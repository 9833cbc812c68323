import random
from dataclasses import replace
from fractions import Fraction

import pytest

from team_disclosure.binary_env import (
    BinaryEnvError,
    BinaryEnvParams,
    baseline_params,
    cond_mean_nd,
    gain_binary,
    gain_curve,
    k_majority_interior_rule,
    interior_posteriors_valid,
    optimal_k,
    parse_grid,
    prob_joint_high_and_nd,
    prob_nd,
    sweep,
)
from team_disclosure.incentives import EffortModel, effort_gain

from oracles import binary_branch_enumeration

F = Fraction


def sym(n, p, qt, q):
    return BinaryEnvParams.symmetric(n, p, qt, q)


class TestClosedForms:
    def test_worked_instance(self):
        params = sym(3, F(1, 2), F(1, 2), F(1, 2))
        assert prob_nd(params, 2) == F(1, 2)
        assert prob_joint_high_and_nd(params, 2) == F(1, 16)
        assert cond_mean_nd(params, 2) == F(1, 8)

    def test_worked_instance_against_branch_enumeration(self):
        pnd, hi, mean = binary_branch_enumeration(3, "1/2", "1/2", "1/2", "1/2", 2)
        assert (pnd, hi, mean) == (F(1, 2), F(1, 16), F(1, 8))

    def test_unilateral_empty_sum_convention(self):
        params = sym(4, F(1, 3), F(2, 5), F(1, 2))
        assert prob_joint_high_and_nd(params, 1) == 0
        assert cond_mean_nd(params, 1) == 0

    def test_two_member_consensus_single_term(self):
        params = BinaryEnvParams.make(2, F(1, 3), F(1, 2), F(2, 5), F(1, 2))
        assert prob_joint_high_and_nd(params, 2) == (1 - F(1, 3)) * F(2, 5) * F(1, 2)

    def test_no_common_branch_matches_enumeration(self):
        params = BinaryEnvParams.make(2, F(1, 10**6), F(1, 2), F(3, 10), F(1, 2))
        pnd, hi, mean = binary_branch_enumeration(2, params.p, F(1, 2), F(3, 10), F(1, 2), 2)
        assert prob_nd(params, 2) == pnd
        assert prob_joint_high_and_nd(params, 2) == hi

    def test_randomized_grid_against_enumeration(self):
        rng = random.Random(47)
        # every k of every draw, so the cached low-count tables are both
        # reused and evicted under the oracle
        for _ in range(150):
            n = rng.randint(2, 6)
            params = BinaryEnvParams(
                n,
                F(rng.randint(1, 99), 100),
                F(rng.randint(1, 99), 100),
                F(rng.randint(1, 99), 100),
                F(rng.randint(1, 99), 100),
            )
            for k in range(1, n + 1):
                pnd, hi, mean = binary_branch_enumeration(
                    n, params.p, params.q_team, params.q_own, params.q_other, k
                )
                assert prob_nd(params, k) == pnd
                assert prob_joint_high_and_nd(params, k) == hi
                assert cond_mean_nd(params, k) == mean

    def test_invalid_parameters_rejected(self):
        with pytest.raises(BinaryEnvError):
            BinaryEnvParams.make(3, 0, F(1, 2), F(1, 2), F(1, 2))
        with pytest.raises(BinaryEnvError):
            BinaryEnvParams.make(3, F(1, 2), 1, F(1, 2), F(1, 2))
        with pytest.raises(BinaryEnvError):
            prob_nd(sym(3, F(1, 2), F(1, 2), F(1, 2)), 4)


class TestConcealMeanMonotonicity:
    def test_signs_by_finite_differences(self):
        rng = random.Random(53)
        h = F(1, 500)
        for _ in range(60):
            n = rng.randint(2, 6)
            k = rng.randint(2, n)
            params = BinaryEnvParams(
                n,
                F(rng.randint(5, 90), 100),
                F(rng.randint(5, 90), 100),
                F(rng.randint(5, 90), 100),
                F(rng.randint(5, 90), 100),
            )
            base = cond_mean_nd(params, k)
            assert cond_mean_nd(replace(params, q_other=params.q_other + h), k) <= base
            assert cond_mean_nd(replace(params, p=params.p + h), k) <= base
            assert cond_mean_nd(replace(params, q_own=params.q_own + h), k) >= base
            assert cond_mean_nd(replace(params, q_team=params.q_team + h), k) >= base


class TestGain:
    def test_unilateral_gain_is_mean_shift(self):
        full = sym(4, F(1, 2), F(51, 100), F(51, 100))
        dev = sym(4, F(1, 2), F(1, 2), F(1, 2))
        assert gain_binary(full, dev, 1) == full.mean_own - dev.mean_own

    def test_partner_lift_beats_unilateral(self):
        base = sym(4, F(1, 2), F(1, 2), F(1, 2))
        full = replace(base, q_other=F(11, 20))
        for k in range(2, 5):
            assert gain_binary(full, base, k) > gain_binary(full, base, 1)

    def test_own_lift_favors_unilateral(self):
        base = sym(4, F(1, 2), F(1, 2), F(1, 2))
        full = replace(base, q_own=F(11, 20))
        for k in range(1, 5):
            assert gain_binary(full, base, 1) >= gain_binary(full, base, k)

    def test_interior_validity(self):
        params = sym(5, F(1, 2), F(1, 2), F(1, 2))
        assert not interior_posteriors_valid(params, 1)
        for k in range(2, 6):
            assert interior_posteriors_valid(params, k)

    def test_cross_module_gain_agreement(self):
        # assemble the mixture as an explicit joint distribution and run the
        # generic effort-gain machinery on the same interior rule
        rng = random.Random(59)
        for _ in range(8):
            n = rng.choice((2, 3, 4))
            k = rng.randint(1, n)
            dev = BinaryEnvParams(
                n,
                F(rng.randint(20, 70), 100),
                F(rng.randint(20, 70), 100),
                F(rng.randint(20, 70), 100),
                F(rng.randint(20, 70), 100),
            )
            bump = F(rng.randint(1, 10), 100)
            full = BinaryEnvParams(
                n,
                dev.p,
                dev.q_team + bump,
                dev.q_own + bump,
                dev.q_other + bump,
            )

            def dist(e):
                # member 1 is the marked member; any partner shirking is
                # irrelevant here because only e_N and e_{N\1} are compared
                if all(e):
                    return full.joint_distribution()
                if e[0] == 0 and all(e[1:]):
                    return dev.joint_distribution()
                shirkers = e.count(0)
                scale = F(n - shirkers, n)
                damp = BinaryEnvParams(
                    n,
                    dev.p,
                    dev.q_team + bump * scale if e[0] else dev.q_team,
                    dev.q_own + bump * scale if e[0] else dev.q_own,
                    dev.q_other + bump * scale if e[0] else dev.q_other,
                )
                return damp.joint_distribution()

            model = EffortModel.build(n, dist, ["1/100"] * n)
            rule = k_majority_interior_rule(model.dist_of((1,) * n).space, k)
            assert gain_binary(full, dev, k) == effort_gain(model, rule, 1, off_path="skeptical")


class TestOptimalK:
    def test_single_point_sweep_matches_optimal_k(self):
        full, dev = baseline_params(6)
        table = sweep(full, dev, "p_dev", [F(2, 5)])
        k_from_sweep = [row.k for row in table.rows if row.is_optimal]
        assert k_from_sweep == [optimal_k(full, replace(dev, p=F(2, 5)))]

    def test_ties_break_to_smallest_k(self):
        # identical profiles make every gain zero, so k* must be 1
        params = sym(4, F(1, 2), F(1, 2), F(1, 2))
        curve = gain_curve(params, params)
        assert set(curve.gains) == {F(0)}
        assert curve.k_star == 1

    def test_baseline_interior_optimum(self):
        full, dev = baseline_params(10)
        curve = gain_curve(full, dev)
        assert curve.k_star == 5


class TestSweepTable:
    def test_csv_format(self):
        full, dev = baseline_params(3)
        table = sweep(full, dev, "p_dev", parse_grid("0.4:0.5:0.1"))
        lines = table.to_csv().strip().splitlines()
        assert lines[0] == "axis_value,K,gain,is_optimal,gain_exact"
        assert len(lines) == 1 + 2 * 3
        first = lines[1].split(",")
        assert first[0] == "0.4" and first[1] == "1"
        assert first[3] in ("true", "false")
        assert "/" in first[4] or first[4].isdigit()

    def test_grid_validation(self):
        full, dev = baseline_params(3)
        with pytest.raises(BinaryEnvError):
            sweep(full, dev, "p_dev", [F(0)])
        with pytest.raises(BinaryEnvError):
            sweep(full, dev, "not_an_axis", [F(1, 2)])

    def test_parse_grid_inclusive_exact(self):
        grid = parse_grid("0.30:0.50:0.02")
        assert grid[0] == F(3, 10) and grid[-1] == F(1, 2)
        assert len(grid) == 11
