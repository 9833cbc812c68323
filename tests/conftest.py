import os
from pathlib import Path

import team_disclosure

# Child interpreters that the tests start (`python -m team_disclosure.cli`)
# import the same package as this run, also from a bare checkout.
_SRC = str(Path(team_disclosure.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")])
)
