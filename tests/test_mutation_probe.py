"""The mutation probe (tests/mutation_probe.py) still works: one comparison
flip in the search's sign coder, which a kernel test kills in seconds, is
killed, and the checkout keeps its bytes."""
import ast

import pytest

import mutation_probe


def test_probe_kills_a_sign_code_flip(capsys):
    path = mutation_probe.ROOT / mutation_probe.PACKAGE / "equilibrium.py"
    before = path.read_bytes()
    # _sign_code's one site, picked by its text
    args = ["equilibrium", "_sign_code", "--site", "hi < size"]
    code = mutation_probe.main(args + ["--tests", "tests/test_kernels.py -k search_tables_match"])
    assert code == 0
    assert capsys.readouterr().out == "killed 1/1 of 1 sites in src/team_disclosure/equilibrium.py\n"
    assert path.read_bytes() == before


def test_probe_refuses_a_site_it_cannot_find(capsys):
    with pytest.raises(SystemExit) as exc:
        mutation_probe.main(["equilibrium", "_sign_code", "--site", "hi <= size"])
    assert exc.value.code == 2
    assert "no site 'hi <= size' in ['_sign_code']" in capsys.readouterr().err


def test_every_flip_is_one_operator():
    source = "def f(a, b):\n    return 0 < a <= b or a == b and b != 1\n"
    tree = ast.parse(source)
    assert len(mutation_probe.sites(tree, ["f"])) == 6
    mutants = [mutation_probe.mutate(source, ["f"], k)[2] for k in range(6)]
    assert mutants == [
        "0 < a <= b and (a == b and b != 1)",
        "0 <= a <= b",
        "0 < a < b",
        "a == b or b != 1",
        "a != b",
        "b == 1",
    ]
