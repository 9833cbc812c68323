import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from team_disclosure import audit
from team_disclosure.audit import (
    CLAIMS,
    AuditConfig,
    random_distribution,
    random_protocol,
    run_audit,
)
from team_disclosure.binary_env import panel_sweep
from team_disclosure.cli import main
from team_disclosure.protocols import ProtocolError, make_protocol

import random

from audit_smoke import AUDIT_SEED_0_SHA256


SMALL = AuditConfig(
    seed=0,
    existence_dists=2,
    refinement_dists=2,
    threshold_dists=1,
    interior_dists=2,
    nesting_cases=3,
    statics_cases=3,
    identity_cases=6,
    effort_models=2,
    binary_draws=10,
    sweep_members=6,
)



class TestAudit:
    def test_all_claims_pass_at_small_scale(self):
        report = run_audit(SMALL)
        assert report.passed, report.render()

    def test_reports_are_byte_identical(self):
        a = run_audit(SMALL).render()
        b = run_audit(SMALL).render()
        assert a == b

    def test_different_seed_changes_instances_not_verdict(self):
        report = run_audit(replace(SMALL, seed=1, claims=("equilibrium_existence",)))
        assert report.passed

    def test_claim_subset(self):
        report = run_audit(replace(SMALL, claims=("gain_identity",)))
        assert [r.name for r in report.results] == ["gain_identity"]

    def test_unknown_claim_rejected(self):
        with pytest.raises(ValueError):
            run_audit(replace(SMALL, claims=("not_a_claim",)))

    def test_empty_claim_selection_rejected(self):
        with pytest.raises(ValueError, match="no claims selected"):
            run_audit(replace(SMALL, claims=()))

    def test_default_report_matches_recorded_bytes(self, tmp_path, capsys):
        out = tmp_path / "audit.txt"
        assert main(["audit", "--seed", "0", "--out", str(out)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == AUDIT_SEED_0_SHA256

    def test_registry_lists_each_claim_once_in_report_order(self):
        checks = sorted(
            (f for name, f in vars(audit).items() if name.startswith("_claim_")),
            key=lambda f: f.__code__.co_firstlineno,
        )
        names = [f.__name__.removeprefix("_claim_") for f in checks]
        assert len(names) == len(set(names)) == 12
        assert list(CLAIMS) == names
        assert AuditConfig().claims == tuple(names)
        assert [r.name for r in run_audit(SMALL).results] == names

    def test_render_contains_verdict(self):
        text = run_audit(replace(SMALL, claims=("threshold_form",))).render()
        assert "result: PASS" in text
        assert "[PASS] threshold_form" in text


class TestFailingClaim:
    def test_failures_are_reported_capped_and_exit_1(self, monkeypatch, tmp_path, capsys):
        # a claim registered for this test only fails at each of its 5
        # instances; with max_failures 2 the report lists 2 failures and one
        # suppression line, and the CLI exits 1
        monkeypatch.setattr(audit, "CLAIMS", dict(CLAIMS))

        def _claim_planted(config, rng, rec):
            for k in range(5):
                rec.tick()
                rec.fail(f"planted failure {k}")

        audit._claim("a claim that fails at every instance")(_claim_planted)
        report = run_audit(replace(SMALL, claims=("threshold_form", "planted"), max_failures=2))
        assert not report.passed
        lines = report.render().splitlines()
        at = lines.index("[FAIL] planted (5 instances)")
        assert lines[at + 1:at + 5] == [
            "       a claim that fails at every instance",
            "       failure: planted failure 0",
            "       failure: planted failure 1",
            "       failure: ... more failures suppressed",
        ]
        assert sum("failure:" in line for line in lines) == 3
        assert lines[-1] == "result: FAIL (1/2 claims)"
        out = tmp_path / "audit.txt"
        args = ["audit", "--claims", "planted", "--counts", "max_failures=2", "--out", str(out)]
        assert main(args) == 1
        assert json.loads(capsys.readouterr().out)["passed"] is False
        text = out.read_text().splitlines()
        assert "[FAIL] planted (5 instances)" in text
        assert text[-1] == "result: FAIL (0/1 claims)"


class TestGenerators:
    def test_random_distribution_full_support(self):
        rng = random.Random(0)
        for _ in range(20):
            d = random_distribution(rng, 3)
            assert d.full_support
            assert sum(d.probs) == 1

    def test_random_protocol_satisfies_axioms(self):
        rng = random.Random(0)
        for _ in range(50):
            p = random_protocol(rng, rng.randint(2, 5))
            assert p.minimal_winning  # full team wins
            assert all(p.minimal_winning)  # empty coalition never wins

    def test_corrupted_protocol_rejected_up_front(self):
        # the constructor is the gate: a malformed structure never reaches the audit
        with pytest.raises(ProtocolError):
            make_protocol(3, [])


class TestPanels:
    def test_panel_directions(self):
        for panel in "abcd":
            table = panel_sweep(panel, 6)
            assert table.rows
        # descending panels sweep from weak to strong effort effects
        c = panel_sweep("c", 6)
        values = [v for v, _ in c.k_star_trace()]
        assert values[0] > values[-1]

    def test_default_panels_match_recorded_bytes(self):
        # the four default panels at n=10, byte for byte, against the digests
        # the benchmark gates them with
        recorded = json.loads(
            (Path(__file__).resolve().parents[1] / "perfbench" / "expected.json").read_text()
        )["sweep_panels"]
        assert sorted(recorded) == list("abcd")
        for panel, expected in recorded.items():
            table = panel_sweep(panel, 10)
            data = table.to_csv().encode()
            assert hashlib.sha256(data).hexdigest() == expected["sha256"], panel
            assert len(table.k_star_trace()) == expected["curves"]
