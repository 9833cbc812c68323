"""Mutation probe: do the tests notice a wrong comparison in a kernel?

Each mutant flips one operator in the named functions of one module of the
package: a comparison (``<``/``<=``, ``>``/``>=``, ``==``/``!=``), a
boolean ``and``/``or``, or the ``+``/``-`` of an addition or subtraction
whose right operand is the constant 1 (``x + 1``/``x - 1``). The package, tests and all, is copied into a
temporary directory once; each mutant is written into that copy, never into
the checkout, and the named tests run against it with ``-x``. A mutant that
the tests let pass survives; one that fails them, or runs past ``TIMEOUT_S``
(a flip can make a loop endless), is killed. Survivors listed in
``EQUIVALENT`` are equivalent mutants, judged by reading the code; any other
survivor is a gap in the tests, or code the engine does not need.

Standard library only. Opt-in, not part of tier-1: every survivor costs a
full run of the named tests. Usage::

    python tests/mutation_probe.py equilibrium _AtomSolver _verify \\
        --seed 0 --count 20 --tests "tests/test_atom_solver.py tests/test_kernels.py"

A name is a top-level function, a class (each of its methods) or
``Class.method``. ``--site TEXT`` keeps only the sites whose comparison,
``and``/``or`` or ``+ 1``/``- 1`` unparses to TEXT, e.g. ``--site "beta < 0"``. With no
``--count`` every kept site is tried, in source order; otherwise ``--count``
of them are drawn with ``random.Random(seed)``. Prints
``killed k/n`` and one line per survivor; exits 1 when a survivor is not
listed as equivalent.
"""
from __future__ import annotations

import argparse
import ast
import os
import random
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "team_disclosure"
TIMEOUT_S = 900  # per run of the named tests
FLIP = {
    ast.Lt: ast.LtE,
    ast.LtE: ast.Lt,
    ast.Gt: ast.GtE,
    ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
    ast.And: ast.Or,
    ast.Or: ast.And,
    ast.Add: ast.Sub,
    ast.Sub: ast.Add,
}

# (function, original, mutant) -> why the mutant computes the same thing
EQUIVALENT = {
    ("_verify", "0 < vn < vd", "0 < vn <= vd"): (
        "a member voting 1 also counts as mixing, and _pivotal only "
        "enumerates the same rest | sub sets again"
    ),
    ("_AtomSolver._solve", "beta < 0", "beta <= 0"): (
        "_poly.active has dropped every weight with zero slope, so beta is never 0"
    ),
}


def functions(tree: ast.Module, names: list[str]):
    """(qualified name, node) for each function the names select."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in names:
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    qualname = f"{node.name}.{item.name}"
                    if node.name in names or qualname in names:
                        yield qualname, item


def _plus_minus_one(node: ast.AST) -> bool:
    """Whether the node is ``x + 1`` or ``x - 1``, the constant on the right."""
    return (
        isinstance(node, ast.BinOp)
        and type(node.op) in (ast.Add, ast.Sub)
        and isinstance(node.right, ast.Constant)
        and type(node.right.value) is int
        and node.right.value == 1
    )


def sites(tree: ast.Module, names: list[str]):
    """(function, node, operator index) for every flippable operator, in
    source order."""
    out = []
    for qualname, func in functions(tree, names):
        for node in ast.walk(func):
            if isinstance(node, ast.Compare):
                out += [(qualname, node, i) for i, op in enumerate(node.ops) if type(op) in FLIP]
            elif isinstance(node, ast.BoolOp) or _plus_minus_one(node):
                out.append((qualname, node, None))
    return sorted(out, key=lambda site: (site[1].lineno, site[1].col_offset, site[2] or 0))


def mutate(source: str, names: list[str], k: int) -> tuple[str, str, str, str]:
    """The module with site k flipped: (function, original, mutant, module
    source). Parsing afresh each time leaves every other mutant's tree
    untouched."""
    tree = ast.parse(source)
    qualname, node, i = sites(tree, names)[k]
    original = ast.unparse(node)
    if i is None:
        node.op = FLIP[type(node.op)]()
    else:
        node.ops[i] = FLIP[type(node.ops[i])]()
    return qualname, original, ast.unparse(node), ast.unparse(tree)


def passes(copy: Path, tests: list[str]) -> bool:
    """Whether the named tests pass in the copy within ``TIMEOUT_S``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # no stale bytecode across mutants
    env.pop("PYTHONPATH", None)  # the copy's pyproject.toml puts its own src first
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        proc = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="a module of team_disclosure, e.g. equilibrium")
    parser.add_argument("functions", nargs="+")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, help="sites to draw (default: every site)")
    parser.add_argument("--site", help="only the sites whose expression reads SITE")
    parser.add_argument(
        "--tests",
        default="tests/test_atom_solver.py tests/test_equilibrium.py tests/test_kernels.py",
        help="pytest arguments, as one shell-quoted string",
    )
    args = parser.parse_args(argv)

    path = PACKAGE / f"{args.module}.py"
    source = (ROOT / path).read_text()
    found = sites(ast.parse(source), args.functions)
    total = len(found)
    if not total:
        parser.error(f"no comparison, and/or or +/- 1 in {args.functions} of {path}")
    chosen = [k for k, (_, node, _) in enumerate(found) if args.site in (None, ast.unparse(node))]
    if not chosen:
        parser.error(f"no site {args.site!r} in {args.functions} of {path}")
    if args.count is not None and args.count < len(chosen):
        chosen = sorted(random.Random(args.seed).sample(chosen, args.count))
    tests = shlex.split(args.tests)

    with tempfile.TemporaryDirectory(prefix="mutation-probe-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests", "pyproject.toml", "README.md"):
            src = ROOT / part
            if src.is_dir():
                shutil.copytree(src, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
            elif src.exists():
                shutil.copy(src, copy / part)
        # the control is unparsed too, as every mutant is
        (copy / path).write_text(ast.unparse(ast.parse(source)))
        if not passes(copy, tests):
            print("the unmutated copy fails the named tests")
            return 2
        survivors = []
        for k in chosen:
            qualname, original, mutant, text = mutate(source, args.functions, k)
            (copy / path).write_text(text)
            if passes(copy, tests):
                survivors.append((qualname, original, mutant))

    unexplained = 0
    print(f"killed {len(chosen) - len(survivors)}/{len(chosen)} of {total} sites in {path}")
    for key in survivors:
        qualname, original, mutant = key
        reason = EQUIVALENT.get(key)
        unexplained += reason is None
        line = f"{qualname}: {original}  ->  {mutant}"
        print(f"  equivalent  {line}  ({reason})" if reason else f"  SURVIVED  {line}")
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
