"""Standard-library smoke check of the four sweep panels.

Runs ``sweep --panel a..d`` in a fresh interpreter each and compares every
CSV's SHA-256 with the bytes recorded in ``perfbench/expected.json``, which it
only reads. Needs no third-party package, so it runs on every supported
Python:

    PYTHONPATH=src python tests/panel_smoke.py

Exits 0 when all four panels match, 1 otherwise.
"""
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())["sweep_panels"]
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for panel in sorted(expected):
            out = Path(tmp) / f"panel-{panel}.csv"
            argv = ["sweep", "--panel", panel, "--out", str(out)]
            proc = subprocess.run(
                [sys.executable, "-m", "team_disclosure.cli", *argv], stdout=subprocess.DEVNULL
            )
            digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
            ok = proc.returncode == 0 and digest == expected[panel]["sha256"]
            failed += not ok
            print(f"panel {panel}: {'ok' if ok else f'exit {proc.returncode}, sha256 {digest}'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
