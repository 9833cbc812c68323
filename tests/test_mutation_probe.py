"""The mutation probe (tests/mutation_probe.py) still works: one flip of
the slot bias in the search's sign masks, which a kernel test kills in
seconds, is killed, and the checkout keeps its bytes."""
import ast

import pytest

import mutation_probe


def test_probe_kills_a_slot_bias_flip(capsys):
    path = mutation_probe.ROOT / mutation_probe.PACKAGE / "equilibrium.py"
    before = path.read_bytes()
    # the bias 2**(L-1) - 1 of _search_context's above masks, picked by its text
    args = ["equilibrium", "_search_context", "--site", "edge - 1"]
    code = mutation_probe.main(args + ["--tests", "tests/test_kernels.py -k slot_edge"])
    assert code == 0
    assert capsys.readouterr().out == "killed 1/1 of 5 sites in src/team_disclosure/equilibrium.py\n"
    assert path.read_bytes() == before


def test_probe_refuses_a_site_it_cannot_find(capsys):
    with pytest.raises(SystemExit) as exc:
        mutation_probe.main(["equilibrium", "_search_context", "--site", "edge + 1"])
    assert exc.value.code == 2
    assert "no site 'edge + 1' in ['_search_context']" in capsys.readouterr().err


def test_every_flip_is_one_operator():
    source = "def f(a, b):\n    c = a + 1 - (b - 1) * 2 + (1 + b)\n    return 0 < a <= b or a == b and b != c\n"
    tree = ast.parse(source)
    assert len(mutation_probe.sites(tree, ["f"])) == 8
    mutants = [mutation_probe.mutate(source, ["f"], k)[2] for k in range(8)]
    assert mutants == [
        "a - 1",
        "b + 1",
        "0 < a <= b and (a == b and b != c)",
        "0 <= a <= b",
        "0 < a < b",
        "a == b or b != c",
        "a != b",
        "b == c",
    ]
