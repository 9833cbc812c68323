"""Standard-library smoke check of how the CLI reads its inputs.

Runs each malformed input below in a fresh interpreter and expects exit 2
with a single ``error:`` line on stderr and no traceback; then runs one valid
``solve`` and expects exit 0. Flags and config-file values reach the same
readers, so the check covers both. Needs no third-party package, so it runs
on every supported Python:

    PYTHONPATH=src python tests/cli_smoke.py

Exits 0 when every case behaves, 1 otherwise.
"""
import json
import subprocess
import sys
import tempfile
from pathlib import Path

SOLVE = ["solve", "--protocol", "k_majority:2,2", "--dist", "independent:0.5"]

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


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for argv, cfg in MALFORMED:
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
        proc, out = run(SOLVE, tmp)
        ok = proc.returncode == 0 and out.exists()
        failed += not ok
        print(f"{' '.join(SOLVE)}: {'ok' if ok else f'exit {proc.returncode}, stderr {proc.stderr!r}'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
