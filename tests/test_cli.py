import errno
import json
import os
import random
import re
import stat
import subprocess
import sys
import time
from fractions import Fraction
from dataclasses import fields
from itertools import product
from pathlib import Path

import pytest

from team_disclosure import binary_env, cli
from team_disclosure.audit import AuditConfig
from team_disclosure.binary_env import MAX_SWEEP_MEMBERS, MAX_SWEEP_ROWS, PANEL_GRIDS, panel_sweep
from team_disclosure.cli import main
from team_disclosure.configio import ConfigError, distribution_to_config, load_distribution, load_protocol

F = Fraction


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "team_disclosure.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc


def write_worked_model(path: Path) -> Path:
    """Team-improving pair: own high chance fixed by the partner's effort."""

    def q(e):
        return [F(1, 2) + F(1, 10) * e[1], F(1, 2) + F(1, 10) * e[0]]

    dists = []
    for e in [(0, 0), (1, 0), (0, 1), (1, 1)]:
        qs = q(e)
        dists.append(
            {
                "effort": list(e),
                "dist": {"kind": "independent", "q": [str(x) for x in qs]},
            }
        )
    doc = {"n": 2, "costs": ["1/100", "1/100"], "distributions": dists}
    path.write_text(json.dumps(doc))
    return path


class TestSolve:
    def test_consensual_pair_report(self, tmp_path):
        out = tmp_path / "eq.json"
        code = main(
            ["solve", "--protocol", "k_majority:2,2", "--dist", "independent:0.5", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        posteriors = {tuple(e["posteriors"]) for e in doc["equilibria"]}
        assert ("1/3", "1/3") in posteriors
        assert all(e["verified"] for e in doc["equilibria"])

    def test_refine_drops_full_disclosure_under_consensus(self, tmp_path):
        out = tmp_path / "eq.json"
        assert main(
            ["refine", "--protocol", "k_majority:2,2", "--dist", "independent:0.5", "--out", str(out)]
        ) == 0
        doc = json.loads(out.read_text())
        assert [e["classification"] for e in doc["equilibria"]] == ["interior"]

    def test_idempotent_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["solve", "--protocol", "leader:2,1", "--dist", "independent:0.5"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"protocol": "k_majority:2,1", "dist": "independent:0.5"}))
        out = tmp_path / "eq.json"
        # the flag overrides the config's protocol
        assert main(
            ["solve", "--config", str(cfg), "--protocol", "k_majority:2,2", "--out", str(out)]
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["protocol"]["winning"] == [[1, 2]]

    def test_search_cap_exit_code(self, tmp_path):
        # solve and verify share one cap: each takes an instance exactly when
        # the other does. At 20 grid values in all (2^20 deterministic
        # profiles) verify scans every profile, as none reaches a posterior
        # of denominator 1009; 21 grid values, or 5 members, are beyond it
        cases = [
            ("consensus:4", (5, 5, 5, 5), 0),
            ("consensus:3", (7, 7, 6), 0),
            ("consensus:3", (7, 7, 7), 3),
            ("k_majority:5,3", None, 3),
        ]
        for protocol, sizes, expected in cases:
            if sizes is None:
                dist = "independent:0.5"
                eq = {"profile": [["0", "1"]] * 5, "posteriors": ["1/3"] * 5}
            else:
                grids = [[str(v) for v in range(size)] for size in sizes]
                cells = [",".join(c) for c in product(*grids)]
                dist = json.dumps({"grid": grids, "pmf": [[c, f"1/{len(cells)}"] for c in cells]})
                eq = {
                    "profile": [["0"] * size for size in sizes],
                    "posteriors": ["2019/1009"] * len(sizes),
                }
            eq_path = tmp_path / "eq.json"
            eq_path.write_text(json.dumps(eq))
            for command, extra in (("solve", []), ("verify", ["--equilibrium", str(eq_path)])):
                out = tmp_path / f"{command}.json"
                out.unlink(missing_ok=True)
                argv = [command, "--protocol", protocol, "--dist", dist, *extra, "--out", str(out)]
                assert main(argv) == expected, (command, protocol, sizes)
                assert out.exists() == (expected == 0)
            if expected == 0:
                doc = json.loads((tmp_path / "verify.json").read_text())
                assert doc["posteriors_consistent_with_deliberation"] is False

    @pytest.mark.parametrize(
        "protocol, dist, expected",
        [
            # once built 2^20 and 2^24 cells (the second died of a
            # MemoryError) before the member counts were compared
            ("k_majority:2,1", {"kind": "independent", "q": "1/2", "n": 20}, 2),
            ("k_majority:2,1", {"kind": "independent", "q": "1/2", "n": 24}, 2),
            # once built 200^4 cells for one listed pmf cell before the cap
            ("k_majority:4,2", {"grid": [list(range(200))] * 4, "pmf": [["0,0,0,0", "1"]]}, 3),
        ],
        ids=["20-members", "24-members", "200-value-grids"],
    )
    def test_oversized_spec_refused_before_any_cell(self, tmp_path, capsys, protocol, dist, expected):
        out = tmp_path / "eq.json"
        argv = ["solve", "--protocol", protocol, "--dist", json.dumps(dist), "--out", str(out)]
        start = time.perf_counter()
        assert main(argv) == expected
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert ("different member counts" in err) == (expected == 2)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "refine"])
    def test_missing_input_names_the_command(self, capsys, command):
        assert main([command, "--protocol", "k_majority:2,2"]) == 2
        assert capsys.readouterr().err == f"error: {command} needs --protocol and --dist\n"

    def test_parse_error_exit_code(self):
        assert main(["solve", "--protocol", "nonsense", "--dist", "independent:0.5"]) == 2
        assert main(["solve", "--protocol", "k_majority:2,9", "--dist", "independent:0.5"]) == 2

    def test_huge_decimal_exponent_rejected(self, capsys):
        # refused before Fraction would build a billion-digit power of ten
        argv = ["solve", "--protocol", "k_majority:2,2", "--dist", "independent:1e999999999"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("n, expected", [(5, 2), (1, 2), (2, 0)])
    def test_q_list_length_must_match_n(self, tmp_path, capsys, n, expected):
        # an explicit n next to a q list of another length was once ignored,
        # and the q list's member count solved
        dist = {"kind": "independent", "q": ["1/2", "1/2"], "n": n}
        out = tmp_path / "eq.json"
        argv = ["solve", "--protocol", "k_majority:2,2", "--dist", json.dumps(dist), "--out", str(out)]
        assert main(argv) == expected
        assert out.exists() == (expected == 0)
        if expected:
            err = capsys.readouterr().err
            assert err == f"error: independent generator lists 2 q values for n = {n}\n"


class TestVerify:
    def test_verify_round_trip(self, tmp_path):
        eq = tmp_path / "eq.json"
        eq.write_text(
            json.dumps({"profile": [["0", "1"], ["0", "1"]], "posteriors": ["1/3", "1/3"]})
        )
        out = tmp_path / "report.json"
        assert main(
            [
                "verify",
                "--protocol",
                "k_majority:2,2",
                "--dist",
                "independent:0.5",
                "--equilibrium",
                str(eq),
                "--out",
                str(out),
            ]
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["ok"] and doc["posteriors_consistent_with_deliberation"]

    def test_verify_at_the_profile_cap(self, tmp_path):
        # 4 members on 4-value grids: 2^16 deterministic profiles; a
        # denominator of 1009 is beyond the uniform pmf's, so every profile
        # is scanned and none is consistent
        grid = [str(v) for v in range(4)]
        cells = [",".join(c) for c in product(grid, repeat=4)]
        dist = {"grid": [grid] * 4, "pmf": [[c, "1/256"] for c in cells]}
        eq = tmp_path / "eq.json"
        eq.write_text(json.dumps({"profile": [["0"] * 4] * 4, "posteriors": ["1513/1009"] * 4}))
        out = tmp_path / "report.json"
        argv = ["verify", "--protocol", "consensus:4", "--dist", json.dumps(dist)]
        assert main(argv + ["--equilibrium", str(eq), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["posteriors_consistent_with_deliberation"] is False

    def test_verify_refuses_a_capped_instance_first(self, tmp_path, capsys):
        # 12 members: the cap is checked before the stated profile is
        # verified, which alone would list hundreds of thousands of violations
        eq = tmp_path / "eq.json"
        eq.write_text(json.dumps({"profile": [["0", "1"]] * 12, "posteriors": ["1/3"] * 12}))
        out = tmp_path / "report.json"
        argv = ["verify", "--protocol", "k_majority:12,6", "--dist", "independent:0.5"]
        start = time.perf_counter()
        assert main(argv + ["--equilibrium", str(eq), "--out", str(out)]) == 3
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "cap" in err and len(err.splitlines()) == 1
        assert not out.exists()

    def test_verify_posterior_length_before_the_cap(self, tmp_path, capsys):
        # an input error is reported ahead of the cap
        eq = tmp_path / "eq.json"
        eq.write_text(json.dumps({"profile": [["0", "1"]] * 5, "posteriors": ["1/3"] * 4}))
        argv = ["verify", "--protocol", "k_majority:5,3", "--dist", "independent:0.5"]
        assert main(argv + ["--equilibrium", str(eq)]) == 2
        assert "posterior vector has wrong length" in capsys.readouterr().err

    def test_verify_flags_bad_posteriors(self, tmp_path):
        eq = tmp_path / "eq.json"
        eq.write_text(
            json.dumps({"profile": [["0", "1"], ["0", "1"]], "posteriors": ["1/2", "1/2"]})
        )
        out = tmp_path / "report.json"
        assert main(
            [
                "verify",
                "--protocol",
                "k_majority:2,2",
                "--dist",
                "independent:0.5",
                "--equilibrium",
                str(eq),
                "--out",
                str(out),
            ]
        ) == 0
        doc = json.loads(out.read_text())
        assert not doc["ok"]
        assert doc["violations"]

    @pytest.mark.parametrize(
        "content",
        [
            "5",
            "[]",
            '"eq"',
            json.dumps({"profile": [["0", "1"], ["0", "1"]]}),
            json.dumps({"profile": 5, "posteriors": ["1/3", "1/3"]}),
            json.dumps({"profile": [["0", "1"], ["0", "1"]], "posteriors": 5}),
        ],
    )
    def test_verify_rejects_malformed_equilibrium_file(self, tmp_path, capsys, content):
        eq = tmp_path / "eq.json"
        eq.write_text(content)
        args = ["verify", "--protocol", "k_majority:2,2", "--dist", "independent:0.5"]
        assert main(args + ["--equilibrium", str(eq)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "doc, message",
        [
            # a string was read as its characters: posteriors (0, 0), exit 0
            ({"profile": [["0", "1"], ["0", "1"]], "posteriors": "00"}, "'posteriors' must be a list"),
            ({"profile": [["0", "1"], ["0", "1"]], "posteriors": {"0": 1, "1": 1}}, "'posteriors' must be a list"),
            # a string row was read as a row of its characters
            ({"profile": ["01", "01"], "posteriors": ["1/3", "1/3"]}, "'profile' must be a list of lists"),
            # an object was read as its keys: "Invalid literal for Fraction: 'a'"
            ({"profile": {"a": 1}, "posteriors": ["1/3", "1/3"]}, "'profile' must be a list of lists"),
            ({"profile": "0101", "posteriors": ["1/3", "1/3"]}, "'profile' must be a list of lists"),
            ({"profile": [["0", "1"], 1], "posteriors": ["1/3", "1/3"]}, "'profile' must be a list of lists"),
            # a posterior that is no rational value is quoted as JSON
            ({"profile": [["0", "1"], ["0", "1"]], "posteriors": ["1/3", None]}, "posterior must be a rational number, got null"),
            ({"profile": [["0", {"a": 1}], ["0", "1"]], "posteriors": ["1/3", "1/3"]}, 'vote must be a rational number, got {"a": 1}'),
        ],
    )
    def test_verify_requires_lists(self, tmp_path, capsys, doc, message):
        eq = tmp_path / "eq.json"
        eq.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        args = ["verify", "--protocol", "k_majority:2,2", "--dist", "independent:0.5"]
        assert main(args + ["--equilibrium", str(eq), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: malformed equilibrium file: {message}\n"
        assert not out.exists()


class TestGainsAndDominance:
    def test_gains_report(self, tmp_path):
        model = write_worked_model(tmp_path / "model.json")
        out = tmp_path / "gains.json"
        assert main(
            ["gains", "--model", str(model), "--protocol", "k_majority:2,2", "--out", str(out)]
        ) == 0
        doc = json.loads(out.read_text())
        gains = {tuple(c["gains"]) for c in doc["corners"]}
        assert ("3/80", "3/80") in gains
        assert doc["costs_in_full_effort_set"]

    def test_model_with_shorthand_distributions(self, tmp_path):
        # a model entry's distribution is read like every other distribution
        # input, so a shorthand names the distribution of its object, the
        # member count coming from the model when one q is given (shorthand
        # was once refused: distribution config must be an object)
        model = write_worked_model(tmp_path / "model.json")
        doc = json.loads(model.read_text())
        for entry in doc["distributions"]:
            qs = entry["dist"]["q"]
            entry["dist"] = "independent:" + (qs[0] if len(set(qs)) == 1 else ",".join(qs))
        assert doc["distributions"][0]["dist"] == "independent:1/2"
        short = tmp_path / "short.json"
        short.write_text(json.dumps(doc))
        documents = []
        for path in (model, short):
            out = tmp_path / f"gains-{path.stem}.json"
            assert main(["gains", "--model", str(path), "--protocol", "k_majority:2,2", "--out", str(out)]) == 0
            documents.append(out.read_text())
        assert documents[0] == documents[1]

    def test_dominance_report(self, tmp_path):
        model = write_worked_model(tmp_path / "model.json")
        out = tmp_path / "dom.json"
        assert main(
            [
                "dominance",
                "--model",
                str(model),
                "--protocol-a",
                "k_majority:2,2",
                "--protocol-b",
                "k_majority:2,1",
                "--out",
                str(out),
            ]
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["dominates"] and doc["strictly"]
        assert doc["witness_costs"] == ["3/80", "3/80"]

    def test_model_entry_with_24_members(self, tmp_path, capsys):
        # refused on its member count before its 2^24 cells are built
        path = write_worked_model(tmp_path / "model.json")
        doc = json.loads(path.read_text())
        doc["distributions"][0]["dist"] = {"kind": "independent", "q": "1/2", "n": 24}
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        assert main(["gains", "--model", str(path), "--protocol", "k_majority:2,2"]) == 2
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "different member counts" in err
        assert len(err.splitlines()) == 1

    def test_model_missing_an_effort_vector(self, tmp_path, capsys):
        # three of the four effort vectors: once a bare "error: (1, 1)"
        path = write_worked_model(tmp_path / "model.json")
        doc = json.loads(path.read_text())
        assert doc["distributions"].pop()["effort"] == [1, 1]
        path.write_text(json.dumps(doc))
        assert main(["gains", "--model", str(path), "--protocol", "k_majority:2,2"]) == 2
        err = capsys.readouterr().err
        assert err == "error: need one distribution per effort vector in {0,1}^n\n"

    def test_unknown_model_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 2, "costs": ["1/100", "1/100"], "dists": []}))
        assert main(
            ["gains", "--model", str(bad), "--protocol", "k_majority:2,2"]
        ) == 2


OBJECT_PROTOCOL = {"kind": "k_majority", "n": 2, "k": 2}
OBJECT_DIST = {"kind": "independent", "q": ["1/2", "1/2"]}


def _config_command(command, tmp_path):
    """argv and config object for one command, its protocols given as objects."""
    if command in ("solve", "refine"):
        return [command], {"protocol": OBJECT_PROTOCOL, "dist": OBJECT_DIST}
    if command == "verify":
        eq = tmp_path / "eq.json"
        eq.write_text(
            json.dumps({"profile": [["0", "1"], ["0", "1"]], "posteriors": ["1/3", "1/3"]})
        )
        cfg = {"protocol": OBJECT_PROTOCOL, "dist": OBJECT_DIST, "equilibrium": str(eq)}
        return ["verify"], cfg
    model = str(write_worked_model(tmp_path / "model.json"))
    if command == "gains":
        return ["gains"], {"model": model, "protocol": OBJECT_PROTOCOL}
    unilateral = {"kind": "k_majority", "n": 2, "k": 1}
    cfg = {"model": model, "protocol-a": OBJECT_PROTOCOL, "protocol-b": unilateral}
    return ["dominance"], cfg


class TestObjectConfig:
    """Every command accepts config-file protocols and distributions as objects."""

    @pytest.mark.parametrize("command", ["solve", "refine", "verify", "gains", "dominance"])
    def test_object_protocol_in_config(self, tmp_path, command):
        argv, cfg = _config_command(command, tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out.json"
        assert main(argv + ["--config", str(cfg_path), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        if command == "verify":
            assert doc["ok"]
        else:
            key = "protocol_a" if command == "dominance" else "protocol"
            assert doc[key]["winning"] == [[1, 2]]


class TestIntegerConfigValues:
    """Integer options read from a config file, and the integers inside its
    protocol, distribution and effort-model objects: a JSON integer or a
    string of decimal digits; anything else is an input error (exit 2)."""

    SOLVE = {"protocol": "k_majority:2,2", "dist": "independent:0.5"}
    MIXTURE = {"kind": "common_mixture", "p": "1/2", "q_T": "1/2", "q": "1/2"}

    @pytest.mark.parametrize(
        "command, cfg, code",
        [
            ("solve", {**SOLVE, "dist": {"kind": "independent", "q": "1/2", "n": [2]}}, 2),
            ("solve", {**SOLVE, "protocol": {"kind": "k_majority", "n": "2x", "k": 2}}, 2),
            ("solve", {**SOLVE, "protocol": {"kind": "leader", "n": "2", "leader": 1}}, 0),
            ("optimal-k", {"n": [10]}, 2),
            ("optimal-k", {"n": 2.5}, 2),
            ("optimal-k", {"n": True}, 2),
            ("optimal-k", {"n": None}, 2),
            ("optimal-k", {"n": "-6"}, 2),
            ("optimal-k", {"n": "6"}, 0),
            ("optimal-k", {"n": 6}, 0),
            ("audit", {"seed": {"a": 1}}, 2),
            ("audit", {"seed": "0.5"}, 2),
            # inside protocol and distribution objects
            ("solve", {**SOLVE, "protocol": {"kind": "k_majority", "n": 2.9, "k": True}}, 2),
            ("solve", {**SOLVE, "protocol": {"kind": "k_majority", "n": 2, "k": 1.0}}, 2),
            ("solve", {**SOLVE, "protocol": {"kind": "k_majority", "n": "2", "k": "2"}}, 0),
            ("solve", {**SOLVE, "protocol": {"kind": "leader", "n": 2, "leader": True}}, 2),
            ("solve", {**SOLVE, "protocol": {"kind": "leader", "n": 2, "leader": "1"}}, 0),
            ("solve", {**SOLVE, "protocol": {"kind": "custom", "n": 2, "winning": [[1, 2.0]]}}, 2),
            ("solve", {**SOLVE, "protocol": {"kind": "custom", "n": 2, "winning": [[True]]}}, 2),
            ("solve", {**SOLVE, "protocol": {"kind": "custom", "n": 2.0, "winning": [[1]]}}, 2),
            ("solve", {**SOLVE, "protocol": {"kind": "custom", "n": 2, "winning": [["1"], [2]]}}, 0),
            ("solve", {**SOLVE, "dist": {"kind": "independent", "q": "1/2", "n": 2.5}}, 2),
            ("solve", {**SOLVE, "dist": {"kind": "independent", "q": "1/2", "n": "2"}}, 0),
            ("solve", {**SOLVE, "dist": {**MIXTURE, "n": True}}, 2),
            ("solve", {**SOLVE, "dist": {**MIXTURE, "n": 2}}, 0),
            ("audit", {"seed": [4]}, 2),
            ("optimal-k", {"n": "5x"}, 2),
        ],
    )
    def test_integer_config_values(self, tmp_path, capsys, command, cfg, code):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == code
        if code == 2:
            err = capsys.readouterr().err
            assert err.startswith("error:") and len(err.splitlines()) == 1
            assert "must be an integer" in err

    @pytest.mark.parametrize(
        "field, value, code",
        [("n", True, 2), ("n", 2.0, 2), ("n", "2", 0), ("effort", [True, 0], 2), ("effort", [1.0, 0], 2)],
    )
    def test_effort_model_integers(self, tmp_path, capsys, field, value, code):
        model = write_worked_model(tmp_path / "model.json")
        doc = json.loads(model.read_text())
        if field == "n":
            doc["n"] = value
        else:
            doc["distributions"][1]["effort"] = value
        model.write_text(json.dumps(doc))
        argv = ["gains", "--model", str(model), "--protocol", "k_majority:2,2"]
        assert main([*argv, "--out", str(tmp_path / "o")]) == code
        if code == 2:
            err = capsys.readouterr().err
            assert err.startswith("error:") and "must be an integer" in err


class TestListConfigValues:
    """Every list inside a protocol, distribution or effort-model object is a
    JSON array: a string there, once read as its characters, is an input
    error (exit 2) with one error line."""

    GRID = [["0", "1"], ["0", "1"]]
    PMF = [[f"{a},{b}", "1/4"] for a in "01" for b in "01"]

    @staticmethod
    def run(tmp_path, capsys, argv, cfg):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(argv + ["--config", str(cfg_path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2 or not err
        return code, err

    @pytest.mark.parametrize(
        "winning, key",
        [
            # read as the coalitions {1} and {2}
            ("12", "winning"),
            # read as the coalition {1, 2}
            (["12"], "coalition"),
            ([[1, 2], "1"], "coalition"),
        ],
    )
    def test_protocol_lists(self, tmp_path, capsys, winning, key):
        protocol = {"kind": "custom", "n": 2, "winning": winning}
        cfg = {"protocol": protocol, "dist": "independent:0.5"}
        code, err = self.run(tmp_path, capsys, ["solve"], cfg)
        assert code == 2 and len(err.splitlines()) == 1
        assert err.startswith(f"error: {key} must be a list, got ")

    @pytest.mark.parametrize(
        "field, value, key",
        [
            ("grid", "01", "grid"),
            # read as the grids (0, 1)
            ("grid", ["01", "01"], "grid row"),
            ("grid", [["0", "1"], "01"], "grid row"),
            ("pmf", "0,0", "pmf"),
            ("pmf", [*PMF[:3], "11"], "pmf entry"),
        ],
    )
    def test_distribution_lists(self, tmp_path, capsys, field, value, key):
        dist = {"grid": self.GRID, "pmf": self.PMF, field: value}
        cfg = {"protocol": "k_majority:2,2", "dist": dist}
        code, err = self.run(tmp_path, capsys, ["solve"], cfg)
        assert code == 2 and len(err.splitlines()) == 1
        assert err.startswith(f"error: {key} must be a list, got ")

    def test_scalar_q_stays_valid(self, tmp_path, capsys):
        for dist in [{"grid": self.GRID, "pmf": self.PMF}, {"kind": "independent", "q": "1/2"}]:
            cfg = {"protocol": "k_majority:2,2", "dist": dist}
            assert self.run(tmp_path, capsys, ["solve"], cfg)[0] == 0

    @pytest.mark.parametrize(
        "field, value, key",
        [
            # read as the costs (1, 1)
            ("costs", "11", "costs"),
            ("distributions", "dd", "distributions"),
            # read as the effort vector (1, 1)
            ("effort", "11", "effort"),
        ],
    )
    def test_effort_model_lists(self, tmp_path, capsys, field, value, key):
        model = write_worked_model(tmp_path / "model.json")
        doc = json.loads(model.read_text())
        if field == "effort":
            assert doc["distributions"][3]["effort"] == [1, 1]
            doc["distributions"][3]["effort"] = value
        else:
            doc[field] = value
        model.write_text(json.dumps(doc))
        cfg = {"model": str(model), "protocol": "k_majority:2,2"}
        code, err = self.run(tmp_path, capsys, ["gains"], cfg)
        assert code == 2 and len(err.splitlines()) == 1
        assert err.startswith(f"error: {key} must be a list, got ")



class TestRationalConfigValues:
    """A rational value in a config is a string or a JSON number; anything
    else is one error line, exit 2, that quotes the value as JSON."""

    PMF = [[f"{a},{b}", "1/4"] for a in "01" for b in "01"]

    @staticmethod
    def solve(capsys, dist):
        argv = ["solve", "--protocol", "k_majority:2,2", "--dist", json.dumps(dist)]
        assert main(argv) == 2
        return one_error_line(capsys)

    def test_grid_pmf_probability(self, capsys):
        pmf = [*self.PMF[:3], ["1,1", None]]
        err = self.solve(capsys, {"grid": [[0, 1], [0, 1]], "pmf": pmf})
        assert err == "error: pmf probability must be a rational number, got null\n"

    def test_grid_value(self, capsys):
        err = self.solve(capsys, {"grid": [[0, None], [0, 1]], "pmf": self.PMF})
        assert err == "error: grid value must be a rational number, got null\n"

    @pytest.mark.parametrize("q", [{"a": 1}, [{"a": 1}, "1/2"]], ids=["scalar", "listed"])
    def test_independent_q(self, capsys, q):
        err = self.solve(capsys, {"kind": "independent", "n": 2, "q": q})
        assert err == 'error: q must be a rational number, got {"a": 1}\n'

    def test_common_mixture_p(self, capsys):
        dist = {"kind": "common_mixture", "n": 2, "p": [1], "q_T": "1/2", "q": "1/2"}
        assert self.solve(capsys, dist) == "error: p must be a rational number, got [1]\n"

    @pytest.mark.parametrize(
        "cfg, message",
        [
            ({"full": {"p": None}}, "full p must be a rational number, got null"),
            ({"deviation": {"q_own": True}}, "deviation q_own must be a rational number, got true"),
        ],
    )
    def test_optimal_k_parameters(self, tmp_path, capsys, cfg, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["optimal-k", "--n", "4", "--config", str(path)]) == 2
        assert one_error_line(capsys) == f"error: {message}\n"

    def test_effort_model_cost(self, tmp_path, capsys):
        model = write_worked_model(tmp_path / "model.json")
        doc = json.loads(model.read_text())
        doc["costs"][1] = None
        model.write_text(json.dumps(doc))
        assert main(["gains", "--model", str(model), "--protocol", "k_majority:2,2"]) == 2
        assert one_error_line(capsys) == "error: cost must be a rational number, got null\n"

    def test_numbers_and_strings_stay_valid(self, capsys):
        for q in (0.5, "1/2", "0.5", [0.5, "1/2"]):
            argv = ["solve", "--protocol", "k_majority:2,2"]
            assert main(argv + ["--dist", json.dumps({"kind": "independent", "n": 2, "q": q})]) == 0
            capsys.readouterr()

class TestStrictConfigFile:
    """A config file holds only keys that the command reads, and `refine`
    there is a JSON boolean; anything else is one error line and exit 2."""

    @staticmethod
    def run(tmp_path, capsys, argv, cfg):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out.json"
        code = main(argv + ["--config", str(cfg_path), "--out", str(out)])
        captured = capsys.readouterr()
        if code == 2:
            assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
            return code, captured.err
        return code, (out.read_bytes(), json.loads(captured.out))

    @pytest.mark.parametrize("command", ["solve", "gains", "dominance"])
    def test_refine_is_a_json_boolean(self, tmp_path, capsys, command):
        argv, cfg = _config_command(command, tmp_path)
        for value in ["false", "true", 0, 1, None, []]:
            code, err = self.run(tmp_path, capsys, argv, {**cfg, "refine": value})
            assert code == 2 and "refine must be true or false" in err, value
        # true and false behave as the flag given and not given
        for value, flag in [(False, []), (True, ["--refine"])]:
            code, from_file = self.run(tmp_path, capsys, argv, {**cfg, "refine": value})
            assert code == 0
            assert from_file == self.run(tmp_path, capsys, argv + flag, cfg)[1]
            if command == "solve":
                assert from_file[1]["command"] == ("refine" if value else "solve")

    @pytest.mark.parametrize(
        "command, typo",
        [
            ("solve", {"refnie": True, "max-membres": 9}),
            ("solve", {"max_members": 4}),
            ("solve", {"out": "elsewhere.json"}),
            ("refine", {"refine": True}),
            ("verify", {"posteriors": ["1/3", "1/3"]}),
            ("gains", {"protocl": "k_majority:2,1"}),
            ("dominance", {"protocol_a": "k_majority:2,1"}),
            ("optimal-k", {"fulll": {"p": "1/2"}}),
            ("sweep", {"gird": "0.1:0.2:0.05"}),
            ("audit", {"claim": "gain_identity"}),
            # the search cap is no option
            ("solve", {"max-members": 4}),
            ("refine", {"max-grid": 7}),
        ],
    )
    def test_unknown_key_rejected(self, tmp_path, capsys, command, typo):
        if command == "optimal-k":
            # `full` and `deviation` are read from the file alone
            argv, cfg = [command], {"full": {"p": "1/2"}, "deviation": {"q_other": "1/5"}}
        elif command in ("sweep", "audit"):
            argv, cfg = [command], {"n": 3, "panel": "a"} if command == "sweep" else {}
        else:
            argv, cfg = _config_command(command, tmp_path)
        code, err = self.run(tmp_path, capsys, argv, {**cfg, **typo})
        assert code == 2
        assert f"unknown config keys: {sorted(typo)}" in err


class TestSweepAndOptimalK:
    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "panel_b.csv"
        assert main(
            ["sweep", "--panel", "b", "--grid", "0.30:0.50:0.05", "--n", "6", "--out", str(out)]
        ) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "axis_value,K,gain,is_optimal,gain_exact"
        assert len(lines) == 1 + 5 * 6
        k_stars = [int(l.split(",")[1]) for l in lines[1:] if l.split(",")[3] == "true"]
        assert k_stars == sorted(k_stars, reverse=True)  # decreasing along the sweep

    def test_sweep_default_grid_matches_panel_sweep(self, tmp_path):
        out = tmp_path / "panel_c.csv"
        assert main(["sweep", "--panel", "c", "--n", "6", "--out", str(out)]) == 0
        assert out.read_bytes() == panel_sweep("c", 6).to_csv().encode()

    def test_sweep_stdout_out_and_library_agree(self, tmp_path, capsys):
        # the summary line, then the CSV on stdout; with --out the same bytes
        # go to the file, and both are the library table's to_csv()
        argv = ["sweep", "--panel", "a", "--grid", "0.30:0.40:0.02", "--n", "5"]
        assert main(argv) == 0
        summary, _, csv = capsys.readouterr().out.partition("\n")
        assert json.loads(summary)["rows"] == 6 * 5
        out = tmp_path / "panel_a.csv"
        assert main([*argv, "--out", str(out)]) == 0
        expected = panel_sweep("a", 5, binary_env.parse_grid("0.30:0.40:0.02")).to_csv()
        assert csv == expected
        assert out.read_bytes() == expected.encode()

    def test_sweep_hands_the_file_writer_lines(self, tmp_path, monkeypatch):
        # the CSV reaches _atomic_write as an iterable of lines, never
        # joined into one string first
        real, chunks = cli._atomic_write, []

        def recording(path, lines):
            assert not isinstance(lines, (str, list, tuple))
            chunks.extend(lines)
            real(path, chunks)

        monkeypatch.setattr(cli, "_atomic_write", recording)
        out = tmp_path / "panel_b.csv"
        assert main(["sweep", "--panel", "b", "--grid", "0.30:0.50:0.05", "--n", "6", "--out", str(out)]) == 0
        assert len(chunks) == 1 + 5 * 6
        assert all(chunk.count("\n") == 1 and chunk.endswith("\n") for chunk in chunks)
        assert out.read_text() == "".join(chunks)

    def test_sweep_has_no_jobs_option(self):
        assert main(["sweep", "--panel", "b", "--jobs", "2"]) == 2

    def test_optimal_k_baseline(self, capsys):
        assert main(["optimal-k", "--n", "10"]) == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[0])
        assert summary["k_star"] == 5

    @pytest.mark.parametrize(
        "cfg",
        [
            {"full": [1, 2]},
            {"full": 5},
            {"full": {"p": [1]}},
            {"deviation": {"q_own": None}},
        ],
    )
    def test_optimal_k_malformed_params(self, tmp_path, capsys, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["optimal-k", "--n", "4", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("command", ["optimal-k", "sweep"])
    def test_member_cap(self, tmp_path, capsys, command, via):
        argv = [command] + (["--panel", "b"] if command == "sweep" else [])
        if via == "flag":
            argv += ["--n", "10000"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"n": 10000}))
            argv += ["--config", str(cfg)]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_member_cap_is_inclusive(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["optimal-k", "--n", str(MAX_SWEEP_MEMBERS), "--out", out]) == 0
        grid = ["--grid", "0.3:0.3:0.1"]
        assert main(["sweep", "--panel", "b", "--n", str(MAX_SWEEP_MEMBERS), *grid, "--out", out]) == 0

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_row_cap(self, tmp_path, capsys, via):
        # 101 grid points at the member cap: each cap holds, their product does not
        n, grid = MAX_SWEEP_MEMBERS, "0.05:0.15:0.001"
        assert 101 * n > MAX_SWEEP_ROWS
        if via == "flag":
            argv = ["sweep", "--panel", "a", "--n", str(n), "--grid", grid]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"panel": "a", "n": n, "grid": grid}))
            argv = ["sweep", "--config", str(cfg)]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_row_cap_is_inclusive(self, tmp_path, monkeypatch):
        out = str(tmp_path / "out")
        for panel in sorted(PANEL_GRIDS):  # the default panels stay accepted
            assert main(["sweep", "--panel", panel, "--out", out]) == 0
        # the cap itself is accepted, one row more is not (5 and 6 points x 6 members)
        monkeypatch.setattr(binary_env, "MAX_SWEEP_ROWS", 30)
        argv = ["sweep", "--panel", "b", "--n", "6", "--out", out, "--grid"]
        assert main(argv + ["0.30:0.50:0.05"]) == 0
        assert main(argv + ["0.30:0.55:0.05"]) == 2

    def test_grid_value_zero_rejected(self, capsys):
        assert main(["sweep", "--panel", "b", "--grid", "0:0.5:0.25"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: grid value 0 outside (0,1)\n"

    def test_bad_grid_rejected(self):
        assert main(["sweep", "--panel", "b", "--grid", "0.9:0.1:0.1"]) == 2
        # 8 000 001 points: refused before any point is built
        assert main(["sweep", "--panel", "b", "--grid", "0.1:0.9:0.0000001"]) == 2

    @pytest.mark.parametrize(
        "grid, message",
        [
            ("0.3000000000000000000000000000000000000000000000001:" * 2 + "1", "denominator"),
            ("0.01:1.00:0.01", "grid value 1 outside (0,1)"),
        ],
        ids=["49-digit-value", "last-value-one"],
    )
    def test_grid_refused_before_any_gain(self, tmp_path, capsys, monkeypatch, grid, message):
        def no_gains(*args):
            raise AssertionError("a kernel pass was made")

        monkeypatch.setattr(binary_env, "_terms", no_gains)
        monkeypatch.setattr(binary_env, "_other_half", no_gains)
        argv = ["sweep", "--panel", "a", "--n", str(MAX_SWEEP_MEMBERS), "--grid", grid]
        start = time.perf_counter()
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err and len(err.splitlines()) == 1


class TestOutFiles:
    @pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
    def test_mode_follows_the_umask(self, tmp_path, umask):
        out, reference = tmp_path / "p.csv", tmp_path / "touched"
        old = os.umask(umask)
        try:
            assert main(["sweep", "--panel", "b", "--n", "3", "--out", str(out)]) == 0
            reference.touch()
        finally:
            os.umask(old)
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask
        assert stat.S_IMODE(reference.stat().st_mode) == 0o666 & ~umask

    def test_temporary_file_removed_on_error(self, tmp_path, monkeypatch, capsys):
        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(cli.os, "replace", refuse)
        assert main(["sweep", "--panel", "b", "--n", "3", "--out", str(tmp_path / "p.csv")]) == 2
        assert "rename refused" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_temporary_file_removed_when_the_chunks_fail(self, tmp_path):
        # a chunk source that raises part way leaves no file behind
        def chunks():
            yield "first line\n"
            raise ValueError("no second line")

        with pytest.raises(ValueError, match="no second line"):
            cli._atomic_write(str(tmp_path / "p.csv"), chunks())
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "make, code", [(lambda tmp: tmp / "missing" / "x.json", errno.ENOENT), (lambda tmp: tmp, errno.EISDIR)],
        ids=["missing-directory", "directory"],
    )
    def test_failed_write_names_the_requested_path(self, tmp_path, capsys, make, code):
        # the message once named mkstemp's temporary file
        (tmp_path / "sub").mkdir()
        out = make(tmp_path / "sub")
        assert main(["optimal-k", "--n", "3", "--out", str(out)]) == 2
        message = f"[Errno {code}] {os.strerror(code)}: {str(out)!r}"
        assert one_error_line(capsys) == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == [tmp_path / "sub"]
        assert list((tmp_path / "sub").iterdir()) == []


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_a_command_builds_its_own_parser_alone(self, monkeypatch, capsys):
        def refuse():
            raise AssertionError("the full parser was built")

        monkeypatch.setattr(cli, "build_parser", refuse)
        assert main(["optimal-k", "--n", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["k_star"] == 1
        assert main(["solve", "--bogus"]) == 2
        assert cli._command_parser("solve") is cli._command_parser("solve")

    @pytest.mark.parametrize(
        "argv",
        [
            ["--help"],
            ["verify", "--help"],
            ["refine", "-h"],
            ["bogus"],
            [],
            ["solve", "--bogus"],
            ["solve", "extra"],
            ["sweep", "--panel"],
            ["--bogus", "solve"],
        ],
        ids=lambda argv: " ".join(argv) or "no-command",
    )
    def test_parsing_prints_what_the_full_parser_prints(self, capsys, argv):
        try:
            cli.build_parser().parse_args(argv)
        except SystemExit as exc:
            full_code = exc.code
        full = capsys.readouterr()
        code = main(argv)
        got = capsys.readouterr()
        assert (got.out, got.err) == (full.out, full.err)
        assert code == (2 if full_code else 0)
        assert full.out or full.err

    def test_calls_leave_no_state(self, capsys):
        # each in-process call on the shared parser prints what a fresh
        # interpreter prints; flags given to one call do not reach the next
        solve = ["solve", "--protocol", "k_majority:2,2", "--dist", "independent:0.5"]
        calls = [
            ["sweep", "--panel", "z"],
            solve[:1] + ["--refine"] + solve[1:],
            solve,
            ["sweep", "--panel", "b", "--n", "3"],
            ["sweep", "--panel", "b"],
        ]
        outputs = []
        for argv in calls:
            code = main(argv)
            captured = capsys.readouterr()
            fresh = run_cli(*argv)
            assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
            outputs.append(captured.out)
        assert outputs[0] == ""
        assert [json.loads(out)["command"] for out in outputs[1:3]] == ["refine", "solve"]
        rows = outputs[4].splitlines()[2:]
        assert {row.split(",")[1] for row in rows} == {str(k) for k in range(1, 11)}


class TestAuditCommand:
    def test_audit_deterministic_and_green(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        args = [
            "audit",
            "--seed",
            "0",
            "--claims",
            "threshold_form,gain_identity",
            "--counts",
            "threshold_dists=1,identity_cases=4",
        ]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_audit_unknown_claim(self):
        assert main(["audit", "--claims", "bogus"]) == 2

    @pytest.mark.parametrize("by_config", [False, True])
    def test_audit_repeated_claim(self, tmp_path, capsys, by_config):
        # a repeated name once ran its claim twice and exited 0
        claims = "equilibrium_existence, gain_identity,equilibrium_existence"
        out = tmp_path / "report.txt"
        if by_config:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"claims": claims}))
            argv = ["audit", "--config", str(cfg)]
        else:
            argv = ["audit", "--claims", claims]
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: repeated claims: ['equilibrium_existence']\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("by_config", [False, True])
    def test_audit_repeated_count(self, tmp_path, capsys, by_config):
        # a repeated name once kept its last value and exited 0
        counts = "existence_dists=1, identity_cases=4,existence_dists=2"
        out = tmp_path / "report.txt"
        if by_config:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"claims": "gain_identity", "counts": counts}))
            argv = ["audit", "--config", str(cfg)]
        else:
            argv = ["audit", "--claims", "gain_identity", "--counts", counts]
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: repeated counts: ['existence_dists']\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("claims", [",", " , "])
    def test_audit_empty_claim_list(self, tmp_path, capsys, claims):
        # a list naming no claim once passed with 0/0 claims
        out = tmp_path / "report.txt"
        assert main(["audit", "--claims", claims, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: no claims selected\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize(
        "counts",
        [
            "claims=3",  # not a count: once a TypeError traceback
            "seed=1",  # not a count: once ran seed 1 but reported seed 0
            "existence_dists=-3",  # once passed its claim with 0 instances
            "epsilon_check_step=0",  # not a count: once never returned
            "existence_dists=0",
            "existence_dists=1.5",
            "existence_dists",
            "bogus=2",
        ],
    )
    def test_audit_counts_rejected(self, tmp_path, capsys, counts):
        out = tmp_path / "report.txt"
        argv = ["audit", "--claims", "correlation_mixing", "--counts", counts, "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("steps", [1, 2])
    def test_audit_coarse_epsilon_grid(self, tmp_path, capsys, steps):
        # the mixing threshold is exact and scans no grid, so a grid size is
        # no longer a count (these once bisected from a grid with no true point)
        out = tmp_path / "report.txt"
        argv = ["audit", "--claims", "correlation_mixing", "--counts", f"epsilon_grid_steps={steps}"]
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: bad counts entry") and len(captured.err.splitlines()) == 1
        assert captured.out == "" and not out.exists()

    def test_readme_lists_every_audit_count(self):
        # README's --counts list is every AuditConfig field the reader takes,
        # in field order
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        start = readme.index("`audit --counts name=value,...`")
        listed = re.findall(r"`(\w+)`", readme[start : readme.index(")", start)])
        accepted = []
        for field in fields(AuditConfig):
            try:
                cli._audit_counts(f"{field.name}=1")
            except ConfigError:
                continue
            accepted.append(field.name)
        assert listed == accepted

    def test_audit_counts_from_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"claims": "gain_identity", "counts": "seed=1"}))
        assert main(["audit", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_audit_summary_reports_instances_and_seconds(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        argv = [
            "audit",
            "--claims",
            "threshold_form,gain_identity",
            "--counts",
            " threshold_dists = 1 ,identity_cases=4",
            "--out",
            str(out),
        ]
        assert main(argv) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["seed"] == 0 and summary["passed"] is True
        assert list(summary["claims"]) == ["gain_identity", "threshold_form"]
        report = out.read_text()
        for name, claim in summary["claims"].items():
            assert set(claim) == {"passed", "instances", "seconds"}
            assert claim["passed"] is True and claim["seconds"] >= 0
            assert f"[PASS] {name} ({claim['instances']} instances)" in report
        assert "seconds" not in report

    def test_audit_subprocess_exit_zero(self):
        proc = run_cli(
            "audit",
            "--seed",
            "0",
            "--claims",
            "optimal_consensus_shapes",
            "--counts",
            "sweep_members=6",
        )
        assert proc.returncode == 0
        assert "result: PASS" in proc.stdout


SOLVE_FLAGS = ["--protocol", "k_majority:2,2", "--dist", "independent:0.5"]


PMF_PAIR = 'pmf entry must be a ["cell", probability] pair such as ["0,1", "1/4"]'


def one_error_line(capsys):
    """The captured stderr, asserted to be a single ``error:`` line."""
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1, err
    assert "Traceback" not in err
    return err


class TestOneReaderPerInput:
    """A flag string and a config-file value reach the same reader, and a
    shorthand spec reads as the object it stands for: each input that two
    readers once took differently is one error line and exit 2."""

    @pytest.mark.parametrize(
        "command, option, message",
        [
            ("sweep", "grid", "error: grid spec '' is not start:stop:step\n"),
            ("audit", "claims", "error: no claims selected\n"),
            ("audit", "counts", "error: bad counts entry '': counts are "),
        ],
    )
    @pytest.mark.parametrize("by_config", [False, True])
    def test_empty_text_option(self, tmp_path, capsys, command, option, message, by_config):
        # an empty grid once swept the default grid, and empty claims or
        # counts ran the full default audit; each exited 0
        out = tmp_path / "out"
        argv = [command] + (["--panel", "b"] if command == "sweep" else [])
        if by_config:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({option: ""}))
            argv += ["--config", str(cfg)]
        else:
            argv += [f"--{option}", ""]
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(message) and len(captured.err.splitlines()) == 1
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize(
        "argv, cfg, message",
        [
            # text options in a config file are JSON strings (a list once
            # ended in a TypeError traceback, exit 1)
            (["sweep"], {"panel": [1]}, "panel must be a string"),
            (["sweep"], {"panel": {"a": 1}}, "panel must be a string"),
            (["sweep", "--panel", "b", "--n", "3"], {"grid": 0.3}, "grid must be a string"),
            (["sweep", "--panel", "b"], {"grid": ["0.3:0.5:0.1"]}, "grid must be a string"),
            # once reported as the unknown claim "['gain_identity']"
            (["audit"], {"claims": ["gain_identity"]}, "claims must be a string"),
            (["audit", "--claims", "gain_identity"], {"counts": {"identity_cases": 2}}, "counts must be a string"),
            (["audit", "--claims", "gain_identity"], {"counts": 2}, "counts must be a string"),
            # integer flags follow the config rule (once read by int())
            (["optimal-k", "--n", "\u0663"], None, "n must be an integer"),
            (["optimal-k"], {"n": "\u0663"}, "n must be an integer"),
            (["optimal-k", "--n", "+3"], None, "n must be an integer"),
            (["optimal-k", "--n", "-4"], None, "n must be an integer"),
            (["audit", "--seed", "+4"], None, "seed must be an integer"),
            (["audit", "--seed", "5x"], None, "seed must be an integer"),
            (["audit", "--seed", "-1"], None, "seed must be an integer"),
            (["sweep", "--panel", "z"], None, "panel must be one of ['a', 'b', 'c', 'd']"),
        ],
    )
    def test_input_fault(self, tmp_path, capsys, argv, cfg, message):
        if cfg is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(cfg))
            argv = argv + ["--config", str(path)]
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        assert message in one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, name, text, message",
        [
            # once refused as a flag ("must be an integer") and run as a JSON -1
            ("audit", "seed", "-1", "error: seed must be an integer of at least 0, got -1\n"),
            # once "must be an integer" as a flag, "need at least 2 members" as JSON
            ("optimal-k", "n", "-3", "error: n must be an integer of at least 0, got -3\n"),
            ("optimal-k", "n", "-0", "error: need at least 2 members\n"),
            ("optimal-k", "n", "7", ""),
        ],
    )
    def test_flag_and_config_integer_agree(self, tmp_path, capsys, command, name, text, message):
        """A flag and the JSON integer it spells give one exit code and one
        message."""
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({name: int(text)}))
        results = []
        for argv in ([f"--{name}", text], ["--config", str(config)]):
            code = main([command, *argv, "--out", str(tmp_path / "out")])
            results.append((code, capsys.readouterr().err))
        assert results == [(2 if message else 0, message)] * 2

    @pytest.mark.parametrize(
        "spec",
        [
            "k_majority:+2,2",
            "k_majority:2,+2",
            "k_majority: 2,2",
            "k_majority:\u0662,\u0662",
            "k_majority:2,-1",
            "consensus:+2",
            "unilateral:\u0662",
            "leader:2,+1",
            "leader: 2,1",
        ],
    )
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_shorthand_integer(self, tmp_path, capsys, spec, via):
        if via == "flag":
            argv = ["solve", "--protocol", spec, "--dist", "independent:0.5"]
        else:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"protocol": spec, "dist": "independent:0.5"}))
            argv = ["solve", "--config", str(path)]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert "must be an integer" in one_error_line(capsys)

    @pytest.mark.parametrize(
        "pmf",
        [
            # the listed probabilities sum to 3/2; the last 1/4 was once kept
            [["0,0", "1/2"], ["0,0", "1/4"], ["0,1", "1/4"], ["1,0", "1/4"], ["1,1", "1/4"]],
            # keys equal as Fractions name the same cell
            [["0,0", "1/4"], ["0/1,0.0", "1/4"], ["0,1", "1/4"], ["1,0", "1/4"]],
        ],
    )
    def test_repeated_pmf_cell(self, tmp_path, capsys, pmf):
        dist = json.dumps({"grid": [[0, 1], [0, 1]], "pmf": pmf})
        argv = ["solve", "--protocol", "k_majority:2,2", "--dist", dist]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert "pmf lists cell 0,0 twice" in one_error_line(capsys)

    @pytest.mark.parametrize(
        "pmf, message",
        [
            ([["0,0", "1/2"], ["0,2", "1/4"], ["1,0", "1/4"]], "outcome 0,2 is not on the grid"),
            ([["0,0,1", "1"]], "outcome 0,0,1 is not on the grid"),
            ([["0", "1"]], "outcome 0 is not on the grid"),
            # cells are read in order, and the first one off the grid is
            # reported after the last entry
            ([["3,3", "1/2"], ["0.0,1", "1/4"], ["0,1/1", "1/4"]], "pmf lists cell 0,1 twice"),
            ([["3,3", "1/2"], ["3,3.0", "1/4"]], "pmf lists cell 3,3 twice"),
            ([["3,3", "1/2"], ["1,5", "1/2"]], "outcome 3,3 is not on the grid"),
            # entries of the wrong shape, once reported by the unpacking or
            # Fraction parse that tripped on them
            ([["0,0"]], PMF_PAIR + ', got ["0,0"]'),
            ([["0,0", "1/2", "x"]], PMF_PAIR + ', got ["0,0", "1/2", "x"]'),
            ([[["0", "0"], "1"]], PMF_PAIR + ', got [["0", "0"], "1"]'),
        ],
        ids=[
            "off-grid",
            "too-long",
            "too-short",
            "twice-after-off-grid",
            "off-grid-twice",
            "first-off-grid",
            "no-probability",
            "three-items",
            "cell-list",
        ],
    )
    def test_grid_pmf_messages(self, capsys, pmf, message):
        dist = json.dumps({"grid": [[0, 1], [0, 1]], "pmf": pmf})
        assert main(["solve", "--protocol", "k_majority:2,2", "--dist", dist]) == 2
        assert one_error_line(capsys) == f"error: {message}\n"

    def test_unsorted_grid_message(self, capsys):
        dist = json.dumps({"grid": [["1", "1/2"], [0, 1]], "pmf": [["1,0", "1"]]})
        assert main(["solve", "--protocol", "k_majority:2,2", "--dist", dist]) == 2
        assert one_error_line(capsys) == "error: grid 1,1/2 is not strictly increasing\n"

    def test_grid_pmf_hashes_no_fraction(self, monkeypatch):
        # each value string is located on its member's grid once and each
        # cell is found by position, so no Fraction is hashed
        spec = load_distribution("independent:1/3,1/2,1/5")
        config = distribution_to_config(spec)
        hashed = []
        original = Fraction.__hash__

        def counted(self):
            hashed.append(self)
            return original(self)

        monkeypatch.setattr(Fraction, "__hash__", counted)
        dist = load_distribution(config, 3)
        monkeypatch.undo()
        assert hashed == []
        assert dist.probs == spec.probs

    @pytest.mark.parametrize("flag, value", [("--max-members", "4"), ("--max-grid", "7")])
    @pytest.mark.parametrize("command", ["solve", "refine"])
    def test_no_search_cap_flag(self, tmp_path, capsys, command, flag, value):
        # the search cap is fixed, so these are unknown arguments
        out = tmp_path / "out"
        assert main([command, *SOLVE_FLAGS, flag, value, "--out", str(out)]) == 2
        assert "unrecognized arguments" in one_error_line(capsys)
        assert not out.exists()


PROTOCOL_SHORTHANDS = [
    ("k_majority:3,2", {"kind": "k_majority", "n": "3", "k": "2"}),
    ("k_majority:2,9", {"kind": "k_majority", "n": "2", "k": "9"}),
    ("k_majority:+2,2", {"kind": "k_majority", "n": "+2", "k": "2"}),
    ("k_majority:\u0662,2", {"kind": "k_majority", "n": "\u0662", "k": "2"}),
    ("consensus:3", {"kind": "k_majority", "n": "3", "k": "3"}),
    ("consensus:13", {"kind": "k_majority", "n": "13", "k": "13"}),
    ("unilateral:2", {"kind": "k_majority", "n": "2", "k": "1"}),
    ("unilateral:1", {"kind": "k_majority", "n": "1", "k": "1"}),
    ("leader:3,2", {"kind": "leader", "n": "3", "leader": "2"}),
    ("leader:2,3", {"kind": "leader", "n": "2", "leader": "3"}),
    ("leader:2,x", {"kind": "leader", "n": "2", "leader": "x"}),
]
DISTRIBUTION_SHORTHANDS = [
    ("independent:1/3", {"kind": "independent", "q": "1/3"}),
    ("independent:1/3,0.25", {"kind": "independent", "q": ["1/3", "0.25"]}),
    ("independent:x", {"kind": "independent", "q": "x"}),
    ("independent:2", {"kind": "independent", "q": "2"}),
    ("independent:1e999999999", {"kind": "independent", "q": "1e999999999"}),
    ("common_mixture:1/2,1/3,3/4", {"kind": "common_mixture", "p": "1/2", "q_T": "1/3", "q": "3/4"}),
    ("common_mixture:1/2,1/3,0", {"kind": "common_mixture", "p": "1/2", "q_T": "1/3", "q": "0"}),
    ("common_mixture:1/2,y,1/2", {"kind": "common_mixture", "p": "1/2", "q_T": "y", "q": "1/2"}),
]


def _read(load, value, *hint):
    """What configio reads from a spec: the protocol or distribution, or the
    error message."""
    try:
        return load(value, *hint)
    except ConfigError as exc:
        return f"error: {exc}"


class TestShorthandAgreement:
    """Every shorthand spec reads as the config object it stands for: the same
    protocol or distribution, or the same error and exit code."""

    @pytest.mark.parametrize("spec, obj", PROTOCOL_SHORTHANDS, ids=[s for s, _ in PROTOCOL_SHORTHANDS])
    def test_protocol(self, tmp_path, capsys, spec, obj):
        assert _read(load_protocol, spec) == _read(load_protocol, obj)
        results = []
        for protocol in (spec, obj):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"protocol": protocol, "dist": "independent:1/3"}))
            out = tmp_path / f"{len(results)}.json"
            code = main(["solve", "--config", str(path), "--out", str(out)])
            captured = capsys.readouterr()
            results.append((code, captured.err, out.read_bytes() if code == 0 else None))
        assert results[0] == results[1]

    @pytest.mark.parametrize(
        "spec, obj", DISTRIBUTION_SHORTHANDS, ids=[s for s, _ in DISTRIBUTION_SHORTHANDS]
    )
    @pytest.mark.parametrize("n", [2, 3])
    def test_distribution(self, spec, obj, n):
        assert _read(load_distribution, spec, n) == _read(load_distribution, obj, n)


class TestFuzz:
    """Seeded mutations of specs, config files, equilibrium files and effort
    models, and drawn sweep and audit options: every run ends with exit 0, 2
    or 3 and never a traceback."""

    PROTOCOLS = [
        "k_majority:2,2",
        "k_majority:3,2",
        "leader:3,1",
        "consensus:2",
        "unilateral:3",
        {"kind": "k_majority", "n": 2, "k": 1},
        {"kind": "leader", "n": 2, "leader": 1},
        {"kind": "custom", "n": 3, "winning": [[1], [2, 3]]},
    ]
    DISTS = [
        "independent:0.5",
        "independent:1/3,2/3",
        "common_mixture:0.5,0.5,0.5",
        {"kind": "independent", "q": ["1/2", "1/3"]},
        {"grid": [["0", "1"], ["0", "2"]], "pmf": [["0,0", "1/4"], ["0,2", "1/4"], ["1,0", "1/4"], ["1,2", "1/4"]]},
    ]
    TEXT_JUNK = ["", ":", ",", "-1", "0", "1", "2", "13", "1.5", "1/0", "nan", "inf", "x", "[", "{", "}", '"', "::"]
    JSON_JUNK = [None, True, 0, -1, 2, 13, 1.5, "x", "1/2", "1/0", "-3", [], [1], [[1]], {}, {"kind": "x"}]

    @classmethod
    def mutate_text(cls, rng, text):
        for _ in range(rng.randint(1, 3)):
            i = rng.randint(0, len(text))
            op = rng.randrange(3)
            if op == 0:
                text = text[:i] + rng.choice(cls.TEXT_JUNK) + text[i:]
            elif op == 1:
                text = text[:i] + text[i + rng.randint(1, 4) :]
            else:
                text = text[:i]
        return text

    @classmethod
    def mutate_json(cls, rng, value):
        """Replace, drop or add one node somewhere in a JSON value."""
        if isinstance(value, (dict, list)) and value and rng.random() < 0.75:
            out = dict(value) if isinstance(value, dict) else list(value)
            key = rng.choice(sorted(out)) if isinstance(out, dict) else rng.randrange(len(out))
            r = rng.random()
            if r < 0.2:
                del out[key]
            elif r < 0.3 and isinstance(out, dict):
                out[rng.choice(["extra", "kind", "n", "q"])] = rng.choice(cls.JSON_JUNK)
            else:
                out[key] = cls.mutate_json(rng, out[key])
            return out
        return rng.choice(cls.JSON_JUNK)

    @classmethod
    def mutate(cls, rng, value):
        """A spec or a document, mutated half of the time."""
        if rng.random() < 0.5:
            return value
        if isinstance(value, str) and rng.random() < 0.7:
            return cls.mutate_text(rng, value)
        return cls.mutate_json(rng, value)

    def write(self, rng, path, doc):
        """A JSON document, a mutated one, or its mutated text."""
        text = json.dumps(self.mutate(rng, doc))
        if rng.random() < 0.2:
            text = self.mutate_text(rng, text)
        path.write_text(text)
        return str(path)

    # sweep and audit options: (valid values, malformed values), drawn and
    # not mutated, so that no draw asks for thousands of members, grid points
    # or audit instances
    SWEEP = {
        "panel": (["a", "b", "c", "d"], ["z", "", [1], {"a": 1}, None, 2]),
        "n": ([2, 3, 6, "4"], ["0", "+3", "-1", "\u0663", "x", 2.5, True, None, [3]]),
        "grid": (
            ["0.30:0.50:0.05", "0.3:0.5:0.1"],
            ["0.5:0.3:0.1", "0.3:1:0.1", "x", 0.3, ["0.3:0.5:0.1"], None],
        ),
    }
    AUDIT = {
        "claims": (["gain_identity", "binary_dominance"], ["gain_identity,bogus", ["gain_identity"], 1]),
        "counts": (
            ["identity_cases=2,binary_draws=3"],
            ["identity_cases=0", "seed=3", "bogus=2", "identity_cases", {"identity_cases": 2}, 2],
        ),
        "seed": ([0, 1, "2"], ["-1", "+1", "\u0663", "x", 1.5, True, None]),
    }

    def drawn(self, rng, tmp_path, command, options):
        """A sweep or audit run: each option left out, or drawn valid three
        times in four, and given by flag when it is a string and by config
        file otherwise."""
        argv, cfg = [command], {}
        for name, (valid, malformed) in options.items():
            if rng.random() < 0.1:
                continue
            value = rng.choice(valid if rng.random() < 0.75 else malformed)
            if isinstance(value, str) and rng.random() < 0.5:
                argv += [f"--{name}", value]
            else:
                cfg[name] = value
        if command == "audit" and "claims" not in cfg and "--claims" not in argv:
            cfg["claims"] = "gain_identity"  # the full audit takes seconds
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return argv + ["--config", str(path)]

    def argv(self, rng, tmp_path):
        commands = ["solve", "refine", "verify", "gains", "dominance", "optimal-k", "sweep", "audit"]
        command = rng.choice(commands)
        if command == "sweep":
            return self.drawn(rng, tmp_path, command, self.SWEEP)
        if command == "audit":
            return self.drawn(rng, tmp_path, command, self.AUDIT)
        protocol = self.mutate(rng, rng.choice(self.PROTOCOLS))
        dist = self.mutate(rng, rng.choice(self.DISTS))
        if command == "optimal-k":
            n = rng.choice([2, 3, 6, 0, -1, "4", "x", 2.5, None, [3], True])
            return ["optimal-k", "--config", self.write(rng, tmp_path / "cfg.json", {"n": n})]
        if command in ("gains", "dominance"):
            model = write_worked_model(tmp_path / "model.json")
            argv = [command, "--model", self.write(rng, model, json.loads(model.read_text()))]
            names = ["protocol"] if command == "gains" else ["protocol-a", "protocol-b"]
            cfg = {name: self.mutate(rng, rng.choice(self.PROTOCOLS)) for name in names}
            return argv + ["--config", self.write(rng, tmp_path / "cfg.json", cfg)]
        cfg = {"protocol": protocol, "dist": dist}
        if command == "verify":
            eq = {"profile": [["0", "1"], ["0", "1"]], "posteriors": ["1/3", "1/3"]}
            cfg["equilibrium"] = self.write(rng, tmp_path / "eq.json", eq)
        if rng.random() < 0.5 and isinstance(protocol, str) and isinstance(dist, str):
            argv = [command, "--protocol", protocol, "--dist", dist]
            if "equilibrium" in cfg:
                argv += ["--equilibrium", cfg["equilibrium"]]
            return argv
        return [command, "--config", self.write(rng, tmp_path / "cfg.json", cfg)]

    def test_mutated_inputs(self, tmp_path, capsys):
        rng = random.Random(107)
        codes = []
        for _ in range(200):
            argv = self.argv(rng, tmp_path)
            try:
                code = main(argv + ["--out", str(tmp_path / "out.json")])
            except Exception as exc:  # any escape is a traceback for a user
                pytest.fail(f"{argv} raised {exc!r}")
            err = capsys.readouterr().err
            assert code in (0, 2, 3), (argv, code, err)
            assert "Traceback" not in err, (argv, err)
            if code:
                assert err.startswith("error:") and len(err.splitlines()) == 1, (argv, err)
            codes.append(code)
        assert min(codes.count(0), codes.count(2)) >= 10
