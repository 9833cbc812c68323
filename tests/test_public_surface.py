"""The package's public surface: every public name earns its place,
README's library tour runs and prints what its comments say, and the lazy
re-exports and per-command imports hold (tests/import_smoke.py)."""
import ast
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "team_disclosure"
README = ROOT / "README.md"

# Public names that nothing in src/ uses and README does not name, each with
# the rule that keeps it.
KEPT = {
    "binary_env.BinaryEnvParams.joint_distribution": (
        "states the paper's binary mixture as an explicit joint pmf; "
        "test_cross_module_gain_agreement checks the closed-form gains on it"
    ),
    "protocols.from_boolean": (
        "states a protocol as a monotone 0/1 vote function, the paper's "
        "definition; test_boolean_round_trip checks it against enumeration"
    ),
    "equilibrium.StrategyProfile.vote_vector": (
        "the reference path of team_rule's slow twin, "
        "oracles.team_rule_by_evaluate"
    ),
}


def public_definitions():
    """(module, qualified name, node) for every public top-level function or
    class of the package and every public method of those classes."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            yield path.stem, node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name[0] != "_":
                        yield path.stem, f"{node.name}.{item.name}", item


def references():
    """(module, name, line, is_attribute) for every name the package's code
    reads: plain names and attribute accesses. Imports and strings, so also
    docstrings and ``__init__``'s re-exports, do not count."""
    refs = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            if isinstance(node, ast.Name):
                refs.append((path.stem, node.id, node.lineno, False))
            elif isinstance(node, ast.Attribute):
                refs.append((path.stem, node.attr, node.lineno, True))
    return refs


def readme_code_names():
    """Identifiers in README's code blocks and inline code."""
    code = re.findall(r"```.*?```|`[^`\n]+`", README.read_text(), re.S)
    return set(re.findall(r"[A-Za-z_]\w*", " ".join(code)))


def unearned_names():
    """Public names that no package code outside their own definition uses
    (a method counts only through an attribute access) and README does not
    name."""
    refs, named = references(), readme_code_names()
    out = []
    for module, qualname, node in public_definitions():
        name = qualname.rpartition(".")[2]
        method = "." in qualname
        used = any(
            ref == name
            and (is_attr or not method)
            and not (ref_module == module and node.lineno <= line <= node.end_lineno)
            for ref_module, ref, line, is_attr in refs
        )
        if not used and name not in named:
            out.append(f"{module}.{qualname}")
    return out


def test_every_public_name_is_used_named_or_kept():
    unearned = [name for name in unearned_names() if name not in KEPT]
    assert unearned == [], (
        "public names that only tests reach: delete them, or add each to "
        "KEPT with the rule that keeps it"
    )


def test_kept_names_still_need_their_rule():
    # a KEPT entry whose name is gone, or has since found a caller in src/
    # or README, no longer needs the exception
    assert sorted(KEPT) == sorted(set(KEPT) & set(unearned_names()))


def unused_imports(src=SRC):
    """``module.name`` for every name a module of the package imports at top
    level and never reads; ``from __future__`` imports are not names."""
    out = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {
            node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in read:
                        out.append(f"{path.stem}.{name}")
    return out


def test_no_module_imports_a_name_it_never_reads():
    assert unused_imports() == []


def test_unused_import_scan_catches_an_added_import(tmp_path):
    shutil.copytree(SRC, tmp_path, dirs_exist_ok=True, ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "rationals.py"
    path.write_text(path.read_text().replace("\nfrom ", "\nimport os.path as osp\nfrom ", 1))
    assert unused_imports(tmp_path) == ["rationals.osp"]


def run_readme_smoke(readme):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "tests" / "readme_smoke.py"), str(readme)],
        env=env,
        capture_output=True,
        text=True,
    )


def test_readme_tour_prints_what_its_comments_say():
    proc = run_readme_smoke(README)
    assert proc.returncode == 0, proc.stdout
    assert proc.stdout.startswith("README tour: ok")


@pytest.mark.parametrize(
    "old, new, message",
    [
        # a tour that imports a name the package no longer has
        ("make_consensus, find_equilibria,", "make_consensus, find_equilibria, prob_nd,", "ImportError"),
        # a comment that no longer matches the printed line
        ("# interior 1/3 1/3", "# interior (1/3, 1/3)", "comments say"),
        # output the comments do not list
        ("\n# interior 1/3 1/3     <- conceal unless both draw high", "", "comments say"),
    ],
)
def test_readme_smoke_catches_a_stale_tour(tmp_path, old, new, message):
    text = README.read_text()
    assert text.count(old) == 1
    stale = tmp_path / "README.md"
    stale.write_text(text.replace(old, new))
    proc = run_readme_smoke(stale)
    assert proc.returncode == 1
    assert message in proc.stdout


def run_import_smoke(src):
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, str(ROOT / "tests" / "import_smoke.py")],
        env=env,
        capture_output=True,
        text=True,
    )


def test_each_command_imports_only_what_it_runs():
    proc = run_import_smoke(ROOT / "src")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count(": ok") == 7


@pytest.mark.parametrize(
    "module, old, new, message",
    [
        # an eager audit import in cli
        ("cli.py", "from .rationals import", "from .audit import run_audit\nfrom .rationals import", "solve: loaded"),
        # an eager max-flow import in outcomes
        ("outcomes.py", "from .rationals import", "from ._flow import min_upper_set_sum\nfrom .rationals import", "verify: loaded"),
        # a re-export that its submodule does not define
        ("__init__.py", '"gain_curve",', '"gain_curve",\n        "prob_nd",', "prob_nd: module"),
        # a submodule imported by the package itself
        ("__init__.py", "from importlib import import_module", "from . import protocols\nfrom importlib import import_module", "import team_disclosure loaded"),
    ],
)
def test_import_smoke_catches_an_eager_import(tmp_path, module, old, new, message):
    src = tmp_path / "src"
    shutil.copytree(SRC, src / "team_disclosure", ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "team_disclosure" / module
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    proc = run_import_smoke(src)
    assert proc.returncode == 1
    assert message in proc.stdout
