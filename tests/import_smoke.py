"""Standard-library smoke check of the package's import graph.

``import team_disclosure`` loads no submodule, and every name in
``team_disclosure.__all__`` resolves, on first read, to the object its
submodule defines; ``dir()`` lists them all and an unknown name raises
AttributeError. Then each command runs in a fresh interpreter with no
bytecode cache, and the package modules it loaded are compared with what it
runs: ``solve``, ``verify``, ``optimal-k`` and ``sweep`` load none of
``audit``, ``incentives`` and ``_flow``; ``gains`` loads ``incentives`` and
``audit`` loads ``audit``. Needs no third-party package:

    PYTHONDONTWRITEBYTECODE=1 PYTHONPATH=src python tests/import_smoke.py

Exits 0 when every check holds, 1 otherwise.
"""
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import team_disclosure

PACKAGE = "team_disclosure"
SRC = str(Path(team_disclosure.__file__).resolve().parents[1])
NEVER = {f"{PACKAGE}.{m}" for m in ("audit", "incentives", "_flow")}

# runs one command line, then prints its exit code and the package modules
# it loaded as the last line of stdout
CHILD = f"""
import json, sys
from {PACKAGE}.cli import main
code = main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m == {PACKAGE!r} or m.startswith({PACKAGE + "."!r}))
print(json.dumps([code, loaded]))
"""

MODEL = {
    "n": 2,
    "costs": ["1/100", "1/100"],
    "distributions": [
        {"effort": [a, b], "dist": {"kind": "independent", "q": [f"{5 + b}/10", f"{5 + a}/10"]}}
        for a in (0, 1)
        for b in (0, 1)
    ],
}
EQUILIBRIUM = {"profile": [["0", "1"], ["0", "1"]], "posteriors": ["1/3", "1/3"]}
PAIR = ["--protocol", "k_majority:2,2", "--dist", "independent:0.5"]


def commands(tmp: Path) -> list[tuple[list[str], set[str], set[str]]]:
    """(command line, modules it must load, modules it must not load)."""
    model, eq = tmp / "model.json", tmp / "eq.json"
    model.write_text(json.dumps(MODEL))
    eq.write_text(json.dumps(EQUILIBRIUM))
    return [
        (["solve", *PAIR], set(), NEVER),
        (["verify", *PAIR, "--equilibrium", str(eq)], set(), NEVER),
        (["optimal-k", "--n", "10"], set(), NEVER),
        (["sweep", "--panel", "b", "--grid", "0.3:0.5:0.1"], set(), NEVER),
        (["gains", "--model", str(model), "--protocol", "k_majority:2,2"], {f"{PACKAGE}.incentives"}, set()),
        (["audit", "--claims", "gain_identity", "--counts", "identity_cases=1"], {f"{PACKAGE}.audit"}, set()),
    ]


def check_exports() -> list[str]:
    """The lazy re-exports, read in this interpreter (it has imported the
    bare package and nothing else of it)."""
    faults = []
    loaded = sorted(m for m in sys.modules if m.startswith(PACKAGE + "."))
    if loaded:
        faults.append(f"import {PACKAGE} loaded {loaded}")
    for name in team_disclosure.__all__:
        try:
            value = getattr(team_disclosure, name)
        except AttributeError as exc:
            faults.append(f"{name}: {exc}")
            continue
        module = f"{PACKAGE}.{team_disclosure._MODULE_OF[name]}"
        if getattr(sys.modules.get(module), name, None) is not value or value.__module__ != module:
            faults.append(f"{name} is not the object {module} defines")
    missing = sorted(set(team_disclosure.__all__) - set(dir(team_disclosure)))
    if missing:
        faults.append(f"dir() misses {missing}")
    try:
        team_disclosure.no_such_name
    except AttributeError:
        pass
    else:
        faults.append("an unknown name raised no AttributeError")
    return faults


def check_command(argv: list[str], needs: set[str], never: set[str], tmp: Path) -> str | None:
    """None when the command exits 0 having loaded all of ``needs`` and none
    of ``never``, else what went wrong."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    argv = [*argv, "--out", str(tmp / "out")]
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *argv], cwd=tmp, env=env, capture_output=True, text=True
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return f"exit {proc.returncode}: {proc.stderr.strip()}"
    code, loaded = json.loads(lines[-1])
    if code != 0:
        return f"main returned {code}"
    wrong = sorted((needs - set(loaded)) | (never & set(loaded)))
    return f"loaded {loaded}, wrong about {wrong}" if wrong else None


def main() -> int:
    faults = check_exports()
    print(f"lazy exports ({len(team_disclosure.__all__)} names): {'; '.join(faults) or 'ok'}")
    failed = bool(faults)
    with tempfile.TemporaryDirectory() as tmp:
        for argv, needs, never in commands(Path(tmp)):
            fault = check_command(argv, needs, never, Path(tmp))
            failed |= fault is not None
            print(f"{argv[0]}: {fault or 'ok'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
