"""Standard-library smoke check of how the CLI reads its inputs.

Runs each malformed input below in a fresh interpreter and expects exit 2
with a single ``error:`` line on stderr and no traceback. Then runs valid
``solve`` and ``verify`` calls, at the search cap among them (4 members on
5-value grids and 3 members on 7-, 7- and 6-value grids, 20 grid values in
all and 2^20 deterministic profiles), and expects exit 0 and an output
file; at the cap, ``verify`` must find posteriors that no profile reaches
inconsistent with deliberation, and those of a concealing profile
consistent. Then a 5-member ``verify`` and a ``solve`` on four 200-value
grids, beyond the cap, which must exit 3 with a single ``error:`` line and
no output file, the second before it builds any of its 200^4 cells. Flags
and config-file values reach the same readers, so the check covers both.
``verify`` cases read their ``--equilibrium`` file, written by the harness.
Needs no third-party package, so it runs on every supported Python:

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


def at_cap(protocol, sizes):
    """``solve`` and ``verify`` arguments on a uniform pmf over grids of the
    given sizes, and an equilibrium file whose posteriors no profile
    reaches (denominator 1009), so the refinement scans every profile."""
    grids = [[str(v) for v in range(size)] for size in sizes]
    cells = [",".join(c) for c in product(*grids)]
    dist = json.dumps({"grid": grids, "pmf": [[c, f"1/{len(cells)}"] for c in cells]})
    args = ["--protocol", protocol, "--dist", dist]
    eq = {"profile": [["0"] * size for size in sizes], "posteriors": ["2019/1009"] * len(sizes)}
    return ["solve", *args], ["verify", *args], eq


SOLVE_776, VERIFY_776, EQUILIBRIUM_776 = at_cap("consensus:3", (7, 7, 6))
_, VERIFY_5555, EQUILIBRIUM_5555 = at_cap("consensus:4", (5, 5, 5, 5))
# the posteriors of the profile voting 1 on each member's top three values,
# which conceals with positive probability: the refinement finds and
# confirms a witness at the cap
EQUILIBRIUM_5555_REACHED = {"profile": [["0", "0", "1", "1", "1"]] * 4, "posteriors": ["1007/544"] * 4}
VERIFY_5 = ["verify", "--protocol", "k_majority:5,3", "--dist", "independent:0.5"]
EQUILIBRIUM_5 = {"profile": [["0", "1"]] * 5, "posteriors": ["1/3"] * 5}
SOLVE_200 = ["solve", "--protocol", "k_majority:4,2", "--dist", json.dumps(
    {"grid": [list(range(200))] * 4, "pmf": [["0,0,0,0", "1"]]}
)]

# (argv, config-file object or None)
MALFORMED = [
    (["sweep"], {"panel": [1]}),
    (["sweep"], {"panel": {"a": 1}}),
    (["sweep", "--panel", "b"], {"grid": 0.3}),
    (["audit"], {"claims": ["gain_identity"]}),
    (["audit", "--claims", "gain_identity"], {"counts": {"identity_cases": 2}}),
    (["optimal-k", "--n", "٣"], None),
    (["optimal-k"], {"n": "٣"}),
    # the search cap has no flag
    (SOLVE + ["--max-members", "4"], None),
    (["audit", "--seed", "-1"], None),
    (["sweep", "--panel", "z"], None),
    (["solve", "--protocol", "k_majority:+2,2", "--dist", "independent:0.5"], None),
    (["solve", "--protocol", "k_majority: 2,2", "--dist", "independent:0.5"], None),
    (["solve", "--protocol", "k_majority:٢,٢", "--dist", "independent:0.5"], None),
    (["solve", "--protocol", "consensus:+2", "--dist", "independent:0.5"], None),
    (["solve", "--protocol", "unilateral:٢", "--dist", "independent:0.5"], None),
    (["solve", "--protocol", "leader:2,+1", "--dist", "independent:0.5"], None),
    (["solve", "--protocol", "nonsense", "--dist", "independent:0.5"], None),
    # 24 members for a 2-member protocol, refused before its 2^24 cells are built
    (["solve", "--protocol", "k_majority:2,1", "--dist", json.dumps(
        {"kind": "independent", "q": "1/2", "n": 24}
    )], None),
    # a q list of 2 values next to n = 5 (once solved a 2-member distribution)
    (["solve", "--protocol", "k_majority:2,2", "--dist", json.dumps(
        {"kind": "independent", "q": ["1/2", "1/2"], "n": 5}
    )], None),
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
        # (argv, expected exit, expected posteriors_consistent_with_deliberation
        # of a verify document, or None)
        runs = (
            (SOLVE, 0, None),
            (verify_argv(EQUILIBRIUM, Path(tmp) / "eq.json"), 0, None),
            (verify_argv(EQUILIBRIUM_5555, Path(tmp) / "eq_5555.json", VERIFY_5555), 0, False),
            (verify_argv(EQUILIBRIUM_5555_REACHED, Path(tmp) / "eq_5555r.json", VERIFY_5555), 0, True),
            (SOLVE_776, 0, None),
            (verify_argv(EQUILIBRIUM_776, Path(tmp) / "eq_776.json", VERIFY_776), 0, False),
            (verify_argv(EQUILIBRIUM_5, Path(tmp) / "eq_5.json", VERIFY_5), 3, None),
            (SOLVE_200, 3, None),
        )
        for argv, code, consistent in runs:
            proc, out = run(argv, tmp)
            lines = proc.stderr.splitlines()
            ok = proc.returncode == code and out.exists() == (code == 0)
            if code:
                ok = ok and len(lines) == 1 and lines[0].startswith("error:")
            if ok and consistent is not None:
                doc = json.loads(out.read_text())
                ok = doc["posteriors_consistent_with_deliberation"] is consistent
            failed += not ok
            # a long pmf is shown as "..."
            shown = " ".join(a if len(a) < 100 else "..." for a in argv)
            print(f"{shown}: {'ok' if ok else f'exit {proc.returncode}, stderr {proc.stderr!r}'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
