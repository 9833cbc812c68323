"""Standard-library smoke check of how the CLI reads its inputs.

Runs each malformed input below in a fresh interpreter and expects exit 2
with a single ``error:`` line on stderr and no traceback; then runs one valid
``solve`` and two valid ``verify`` calls, one of them at the largest shape
``solve`` takes (4 members on 5-value grids, 2^20 deterministic profiles),
and expects exit 0. Flags and config-file
values reach the same readers, so the check covers both. ``verify`` cases
read their ``--equilibrium`` file, written by the harness. Needs no third-party package, so it runs
on every supported Python:

    PYTHONPATH=src python tests/cli_smoke.py

Exits 0 when every case behaves, 1 otherwise.
"""
import json
import subprocess
import sys
import tempfile
from itertools import product
from pathlib import Path

SOLVE = ["solve", "--protocol", "k_majority:2,2", "--dist", "independent:0.5"]
VERIFY = ["verify", "--protocol", "k_majority:2,2", "--dist", "independent:0.5"]
EQUILIBRIUM = {"profile": [["0", "1"], ["0", "1"]], "posteriors": ["1/3", "1/3"]}
# uniform on four 5-value grids; no profile reaches a posterior of
# denominator 1009, so the refinement scans every profile
GRID5 = [str(v) for v in range(5)]
VERIFY_AT_CAP = ["verify", "--protocol", "consensus:4", "--dist", json.dumps(
    {"grid": [GRID5] * 4, "pmf": [[",".join(c), "1/625"] for c in product(GRID5, repeat=4)]}
)]
EQUILIBRIUM_AT_CAP = {"profile": [["0"] * 5] * 4, "posteriors": ["2019/1009"] * 4}

# (argv, config-file object or None)
MALFORMED = [
    (["sweep"], {"panel": [1]}),
    (["sweep"], {"panel": {"a": 1}}),
    (["sweep", "--panel", "b"], {"grid": 0.3}),
    (["audit"], {"claims": ["gain_identity"]}),
    (["audit", "--claims", "gain_identity"], {"counts": {"identity_cases": 2}}),
    (["optimal-k", "--n", "٣"], None),
    (["optimal-k"], {"n": "٣"}),
    (SOLVE + ["--max-members", "-4"], None),
    (SOLVE + ["--max-members", "+4"], None),
    (["audit", "--seed", "-1"], None),
    (["sweep", "--panel", "z"], None),
    (["solve", "--protocol", "k_majority:+2,2", "--dist", "independent:0.5"], None),
    (["solve", "--protocol", "k_majority: 2,2", "--dist", "independent:0.5"], None),
    (["solve", "--protocol", "k_majority:٢,٢", "--dist", "independent:0.5"], None),
    (["solve", "--protocol", "consensus:+2", "--dist", "independent:0.5"], None),
    (["solve", "--protocol", "unilateral:٢", "--dist", "independent:0.5"], None),
    (["solve", "--protocol", "leader:2,+1", "--dist", "independent:0.5"], None),
    (["solve", "--protocol", "nonsense", "--dist", "independent:0.5"], None),
    # a pmf that lists cell 0,0 twice (once kept the last value)
    (["solve", "--protocol", "k_majority:2,2", "--dist", json.dumps(
        {"grid": [[0, 1], [0, 1]], "pmf": [["0,0", "1/2"], ["0,0", "1/4"], ["0,1", "1/4"], ["1,0", "1/4"], ["1,1", "1/4"]]}
    )], None),
]

# --equilibrium file contents for VERIFY: JSON strings and objects where
# lists belong
MALFORMED_EQUILIBRIA = [
    {"profile": [["0", "1"], ["0", "1"]], "posteriors": "00"},
    {"profile": ["01", "01"], "posteriors": ["1/3", "1/3"]},
    {"profile": {"a": 1}, "posteriors": ["1/3", "1/3"]},
]


def run(argv, tmp):
    out = Path(tmp) / "out"
    out.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, "-m", "team_disclosure.cli", *argv, "--out", str(out)],
        capture_output=True,
        text=True,
    )
    return proc, out


def verify_argv(doc, path, verify=VERIFY):
    """``verify`` reading ``doc`` from its --equilibrium file at ``path``."""
    path.write_text(json.dumps(doc))
    return verify + ["--equilibrium", str(path)]


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        cases = MALFORMED + [
            (verify_argv(doc, Path(tmp) / f"eq{i}.json"), None)
            for i, doc in enumerate(MALFORMED_EQUILIBRIA)
        ]
        for argv, cfg in cases:
            if cfg is not None:
                path = Path(tmp) / "cfg.json"
                path.write_text(json.dumps(cfg))
                argv = argv + ["--config", str(path)]
            proc, out = run(argv, tmp)
            lines = proc.stderr.splitlines()
            ok = (
                proc.returncode == 2
                and len(lines) == 1
                and lines[0].startswith("error:")
                and not out.exists()
            )
            failed += not ok
            shown = " ".join(argv[:-2] if cfg is not None else argv)
            extra = f" with config {json.dumps(cfg)}" if cfg is not None else ""
            verdict = "ok" if ok else f"exit {proc.returncode}, stderr {proc.stderr!r}"
            print(f"{shown}{extra}: {verdict}".encode("ascii", "backslashreplace").decode())
        valid = (
            SOLVE,
            verify_argv(EQUILIBRIUM, Path(tmp) / "eq.json"),
            verify_argv(EQUILIBRIUM_AT_CAP, Path(tmp) / "eq_cap.json", VERIFY_AT_CAP),
        )
        for argv in valid:
            proc, out = run(argv, tmp)
            ok = proc.returncode == 0 and out.exists()
            failed += not ok
            # the 625-cell pmf is shown as "..."
            shown = " ".join(a if len(a) < 100 else "..." for a in argv)
            print(f"{shown}: {'ok' if ok else f'exit {proc.returncode}, stderr {proc.stderr!r}'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
