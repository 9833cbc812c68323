import json
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from team_disclosure.audit import panel_sweep
from team_disclosure.cli import main

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
        code = main(
            [
                "solve",
                "--protocol",
                "k_majority:5,5",
                "--dist",
                "independent:0.5",
                "--out",
                str(tmp_path / "x.json"),
            ]
        )
        assert code == 3
        # verify: 2^20 deterministic profiles exceed the refinement scan's cap
        grid = [str(v) for v in range(5)]
        cells = [",".join(c) for c in product(grid, repeat=4)]
        dist = {"grid": [grid] * 4, "pmf": [[c, "1/625"] for c in cells]}
        eq = tmp_path / "eq.json"
        eq.write_text(json.dumps({"profile": [["0"] * 5] * 4, "posteriors": ["2"] * 4}))
        code = main(
            [
                "verify",
                "--protocol",
                "consensus:4",
                "--dist",
                json.dumps(dist),
                "--equilibrium",
                str(eq),
                "--out",
                str(tmp_path / "v.json"),
            ]
        )
        assert code == 3

    def test_parse_error_exit_code(self):
        assert main(["solve", "--protocol", "nonsense", "--dist", "independent:0.5"]) == 2
        assert main(["solve", "--protocol", "k_majority:2,9", "--dist", "independent:0.5"]) == 2


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
    """Integer options read from a config file: a JSON integer or a string of
    decimal digits; anything else is an input error (exit 2)."""

    SOLVE = {"protocol": "k_majority:2,2", "dist": "independent:0.5"}

    @pytest.mark.parametrize(
        "command, cfg, code",
        [
            ("solve", {**SOLVE, "max-members": [4]}, 2),
            ("solve", {**SOLVE, "max-grid": "5x"}, 2),
            ("solve", {**SOLVE, "max-members": "4", "max-grid": 5}, 0),
            ("optimal-k", {"n": [10]}, 2),
            ("optimal-k", {"n": 2.5}, 2),
            ("optimal-k", {"n": True}, 2),
            ("optimal-k", {"n": None}, 2),
            ("optimal-k", {"n": "-6"}, 2),
            ("optimal-k", {"n": "6"}, 0),
            ("optimal-k", {"n": 6}, 0),
            ("audit", {"seed": {"a": 1}}, 2),
            ("audit", {"seed": "0.5"}, 2),
        ],
    )
    def test_integer_config_values(self, tmp_path, capsys, command, cfg, code):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == code
        if code == 2:
            err = capsys.readouterr().err
            assert err.startswith("error:") and len(err.splitlines()) == 1


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

    def test_sweep_has_no_jobs_option(self):
        assert main(["sweep", "--panel", "b", "--jobs", "2"]) == 2

    def test_optimal_k_baseline(self, capsys):
        assert main(["optimal-k", "--n", "10"]) == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[0])
        assert summary["k_star"] == 5

    def test_bad_grid_rejected(self):
        assert main(["sweep", "--panel", "b", "--grid", "0.9:0.1:0.1"]) == 2
        # 8 000 001 points: refused before any point is built
        assert main(["sweep", "--panel", "b", "--grid", "0.1:0.9:0.0000001"]) == 2


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
