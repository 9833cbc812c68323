"""Standard-library smoke check of the four sweep panels.

Runs ``sweep --panel a..d`` in a fresh interpreter each and compares every
CSV's SHA-256 with the bytes recorded in ``perfbench/expected.json``, which it
only reads. Then, for each panel's sweep (one per axis) at 40 and 80 members,
compares the kernel's rows with the Fraction sweep loop
``oracles.sweep_by_fractions``, and renders the sweep three ways:
``panel_sweep(...).to_csv()``, the CSV that ``sweep --panel P --n N`` streams
to stdout after its summary line, and the file that
``sweep --panel P --n N --out F`` writes. All three come from the one line
writer, ``SweepTable.csv_lines``; each is compared, byte for byte, with the
per-row ``Decimal`` rendering of ``oracles.csv_by_decimal_str``. Needs no
third-party package, so it runs on every supported Python:

    PYTHONPATH=src python tests/panel_smoke.py

Exits 0 when every check matches, 1 otherwise.
"""
import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from oracles import csv_by_decimal_str, sweep_by_fractions
from team_disclosure import cli
from team_disclosure.binary_env import PANEL_GRIDS, baseline_params, panel_sweep

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
        for n in (40, 80):
            for panel in sorted(PANEL_GRIDS):
                table = panel_sweep(panel, n)
                full, dev = baseline_params(n)
                rows_ok = table.rows == sweep_by_fractions(full, dev, table.axis, table.grid)
                reference = csv_by_decimal_str(table.rows)
                out = Path(tmp) / f"panel-{panel}-{n}.csv"
                argv = ["sweep", "--panel", panel, "--n", str(n)]
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = cli.main(argv)
                with contextlib.redirect_stdout(io.StringIO()):
                    code_out = cli.main([*argv, "--out", str(out)])
                differ = [
                    name
                    for name, text in (
                        ("to_csv", table.to_csv()),
                        ("stdout", stdout.getvalue().partition("\n")[2] if code == 0 else None),
                        ("--out", out.read_text() if code_out == 0 else None),
                    )
                    if text != reference
                ]
                if not rows_ok:
                    differ.insert(0, "rows")
                failed += bool(differ)
                status = f"{' and '.join(differ)} differ from the reference" if differ else "ok"
                print(f"{table.axis} at n={n}, {len(table.grid) * n} rows: {status}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
