"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. Exact assertions use zero
tolerance (rational arithmetic); runtime budgets are asserted where stated.
"""
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction

from team_disclosure.audit import AuditConfig, run_audit
from team_disclosure.binary_env import BinaryEnvParams, closed_forms, panel_sweep

from oracles import binary_branch_enumeration

F = Fraction


def criterion(number, description):
    def decorate(fn):
        import functools

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {number}: FAIL — {description}")
                raise
            print(f"[acceptance] criterion {number}: PASS — {description}")

        return wrapper

    return decorate


def run_claim(name, budget=None, **overrides):
    config = replace(AuditConfig(seed=0, claims=(name,)), **overrides)
    start = time.monotonic()
    report = run_audit(config)
    elapsed = time.monotonic() - start
    assert report.passed, report.render()
    if budget is not None:
        assert elapsed < budget, f"{name} took {elapsed:.1f}s, budget {budget}s"
    return report


@criterion(1, "binary closed forms exact on the worked instance and a 1000-draw grid, <10s")
def test_criterion_1_binary_closed_forms():
    import random

    start = time.monotonic()
    params = BinaryEnvParams.make(3, F(1, 2), F(1, 2), F(1, 2), F(1, 2))
    pnds, joints, means = closed_forms(params)
    assert pnds[1] == F(1, 2)
    assert joints[1] == F(1, 16)
    assert means[1] == F(1, 8)
    oracle = binary_branch_enumeration(3, F(1, 2), F(1, 2), F(1, 2), F(1, 2), 2)
    assert oracle == (F(1, 2), F(1, 16), F(1, 8))

    rng = random.Random(0)
    for _ in range(1000):
        n = rng.randint(2, 6)
        k = rng.randint(1, n)
        p, qt, qi, qo = (F(rng.randint(1, 99), 100) for _ in range(4))
        pnds, joints, means = closed_forms(BinaryEnvParams(n, p, qt, qi, qo))
        pnd, hi, mean = binary_branch_enumeration(n, p, qt, qi, qo, k)
        assert pnds[k - 1] == pnd
        assert joints[k - 1] == hi
        assert means[k - 1] == mean
    elapsed = time.monotonic() - start
    assert elapsed < 10, f"closed-form grid took {elapsed:.1f}s"


@criterion(2, "equilibrium existence suite: all 2- and 3-member protocols x 200 distributions each, <2min")
def test_criterion_2_equilibrium_existence():
    report = run_claim("equilibrium_existence", budget=120, existence_dists=200)
    assert report.results[0].instances == 200 * 4 + 200 * 18


@criterion(3, "refinement suite: predicate matches the exhaustive belief search on 100 distributions per team size, <2min")
def test_criterion_3_refinement():
    report = run_claim("refinement_consistency", budget=120, refinement_dists=100)
    assert report.results[0].instances == 100 * 4 + 100 * 18


@criterion(4, "effort-gain identity: 500 (model, rule) pairs, direct == covariance == enumerated, exactly")
def test_criterion_4_gain_identity():
    report = run_claim("gain_identity", identity_cases=500)
    assert report.results[0].instances >= 500


@criterion(5, "effort types: unilateral dominates under self-improving effort; consensual gains exactly 3/80 vs 0 and strictly dominates, with witness")
def test_criterion_5_effort_types():
    run_claim("effort_type_dominance", effort_models=6)


@criterion(6, "correlation mixing: a threshold below 1 exists and strict dominance holds on the 0.01 grid up to 0.99")
def test_criterion_6_correlation_mixing():
    run_claim("correlation_mixing", epsilon_check_step=F(1, 100))


@criterion(7, "binary dominance directions (four parametrizations, team sizes up to 6) and conceal-mean signs")
def test_criterion_7_binary_dominance():
    report = run_claim("binary_dominance", binary_draws=150)
    assert report.results[0].instances > 1000


@criterion(8, "optimal-consensus sweeps reproduce the four panel shapes from CSV output, <1min per panel")
def test_criterion_8_panel_shapes(tmp_path):
    shapes = {
        "a": "rise-then-fall",
        "b": "nonincreasing",
        "c": "nonincreasing",
        "d": "nonincreasing",
    }
    for panel, shape in shapes.items():
        start = time.monotonic()
        table = panel_sweep(panel, 10)
        csv_path = tmp_path / f"panel_{panel}.csv"
        csv_path.write_text(table.to_csv())
        elapsed = time.monotonic() - start
        assert elapsed < 60, f"panel {panel} took {elapsed:.1f}s"

        rows = csv_path.read_text().strip().splitlines()[1:]
        trace = []
        for row in rows:
            axis_value, k, _, is_opt, _ = row.split(",")
            if is_opt == "true":
                trace.append((axis_value, int(k)))
        ks = [k for _, k in trace]
        violations = [
            f"{a}->{k}" for (a, k), (b, k2) in zip(trace, trace[1:]) if k2 > k
        ]
        if shape == "nonincreasing":
            assert all(a >= b for a, b in zip(ks, ks[1:])), (
                f"panel {panel} not nonincreasing; offending rows: {violations}"
            )
        else:
            peak = ks.index(max(ks))
            assert all(a <= b for a, b in zip(ks[: peak + 1], ks[1 : peak + 1])), (
                f"panel {panel} does not rise to its peak; rows: {trace[: peak + 1]}"
            )
            assert all(a >= b for a, b in zip(ks[peak:], ks[peak + 1 :])), (
                f"panel {panel} does not fall after its peak; rows: {trace[peak:]}"
            )
            assert ks[0] < max(ks) and ks[-1] < max(ks), "no genuine interior peak"


@criterion(9, "audit --seed 0 twice: byte-identical reports, exit status 0")
def test_criterion_9_audit_determinism(tmp_path):
    outputs = []
    for name in ("first.txt", "second.txt"):
        out = tmp_path / name
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "team_disclosure.cli",
                "audit",
                "--seed",
                "0",
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert b"result: PASS" in outputs[0]
