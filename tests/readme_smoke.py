"""Standard-library smoke check of README's library tour.

Takes README's first ```python block, runs it in a fresh interpreter and
compares its stdout, line by line, with the comment lines that close the
block: each such line is ``# <output>``, optionally followed by a ``<-``
note, and trailing spaces do not count. Needs no third-party package:

    PYTHONPATH=src python tests/readme_smoke.py [README]

Exits 0 when the tour runs and prints what its comments say, 1 otherwise:
also when the block fails, e.g. by importing a name the package no longer
has.
"""
import re
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def tour(text: str) -> tuple[str, list[str]]:
    """The tour's code and the output lines its closing comments promise."""
    match = re.search(r"^```python\n(.*?)^```", text, re.S | re.M)
    if match is None:
        raise ValueError("no ```python block")
    lines = match.group(1).splitlines()
    expected = []
    while lines and lines[-1].startswith("#"):
        expected.insert(0, lines.pop()[1:].split("<-")[0].strip())
    return "\n".join(lines) + "\n", expected


def main(argv: list[str]) -> int:
    path = Path(argv[0]) if argv else README
    try:
        code, expected = tour(path.read_text())
    except (OSError, ValueError) as exc:
        print(f"README tour: {exc}")
        return 1
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    printed = [line.rstrip() for line in proc.stdout.splitlines()]
    if proc.returncode != 0:
        errors = proc.stderr.strip().splitlines()
        print(f"README tour: exit {proc.returncode}: {errors[-1] if errors else ''}")
        return 1
    if not expected or printed != expected:
        print(f"README tour: printed {printed}, comments say {expected}")
        return 1
    print(f"README tour: ok ({len(expected)} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
