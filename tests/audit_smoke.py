"""Standard-library smoke check of the default audit report.

Runs ``audit --seed 0 --out FILE`` in a fresh interpreter and compares the
SHA-256 of the report it writes with ``AUDIT_SEED_0_SHA256``. The report
holds exact rationals from every engine (the equilibrium search, the belief
refinement, the effort and binary kernels), so this checks their output on
every supported Python. Needs no third-party package:

    PYTHONPATH=src python tests/audit_smoke.py

Exits 0 when the bytes match, 1 otherwise.
"""
import hashlib
import subprocess
import sys
import tempfile
from pathlib import Path

# SHA-256 of the report `audit --seed 0 --out FILE` writes
AUDIT_SEED_0_SHA256 = "54575918472c212384039c071051f9a4561d65c34052bb16d03a877368669f44"


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "audit.txt"
        argv = ["audit", "--seed", "0", "--out", str(out)]
        proc = subprocess.run(
            [sys.executable, "-m", "team_disclosure.cli", *argv], stdout=subprocess.DEVNULL
        )
        digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
    ok = proc.returncode == 0 and digest == AUDIT_SEED_0_SHA256
    print(f"audit --seed 0: {'ok' if ok else f'exit {proc.returncode}, sha256 {digest}'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
