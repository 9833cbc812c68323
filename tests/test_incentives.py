import random
from fractions import Fraction

import pytest

from team_disclosure.equilibrium import TeamRule
from team_disclosure.incentives import (
    EffortModel,
    IncentiveError,
    OffPathBracket,
    classify_effort,
    dominance_report,
    dominates,
    effective_team_leader,
    effort_gain,
    effort_gain_cov,
    find_epsilon_bar,
    full_effort_set_contains,
    protocol_full_effort_corners,
)
from team_disclosure.outcomes import (
    binary_independent,
    binary_space,
    from_pmf,
    independent,
    mix,
)
from team_disclosure.protocols import make_consensus, make_k_majority, make_leader

from oracles import effort_payoff_difference

F = Fraction


def team_improving_pair_model(a=F(3, 5), b=F(1, 2)):
    """Each member's high chance is their partner's effort choice: a with it,
    b without; own effort leaves one's own distribution untouched."""

    def dist(e):
        return binary_independent([b + (a - b) * e[1], b + (a - b) * e[0]])

    return EffortModel.build(2, dist, ["1/100", "1/100"])


def self_improving_pair_model(lo=F(1, 2), hi=F(3, 5)):
    def dist(e):
        return binary_independent([lo + (hi - lo) * e[0], lo + (hi - lo) * e[1]])

    return EffortModel.build(2, dist, ["1/100", "1/100"])


def consensual_rule(space):
    return TeamRule(space, tuple(F(1) if all(v == 1 for v in c) else F(0) for c in space.cells))


class TestEffortModel:
    def test_requires_all_effort_vectors(self):
        with pytest.raises(IncentiveError):
            EffortModel(2, (((1, 1), binary_independent([F(1, 2), F(1, 2)])),), (F(1, 100),) * 2)

    def test_rejects_unproductive_effort(self):
        def dist(e):  # effort lowers the first member's outcome
            return binary_independent([F(1, 2) - F(1, 10) * e[0], F(1, 2)])

        with pytest.raises(IncentiveError):
            EffortModel.build(2, dist, ["1/100", "1/100"])

    def test_unproductive_effort_names_the_first_failing_deviation(self):
        def dist(e):  # member 2's effort lowers their own high chance
            return binary_independent([F(1, 2) + F(1, 10) * e[0], F(1, 2) - F(1, 10) * e[1]])

        with pytest.raises(IncentiveError) as info:
            EffortModel.build(2, dist, ["1/100", "1/100"])
        assert str(info.value) == "effort is not productive: (0, 1) does not dominate (0, 0)"

    def test_rejects_nonpositive_costs(self):
        with pytest.raises(IncentiveError):
            team_improving_pair_model().__class__.build(
                2, lambda e: binary_independent([F(1, 2), F(1, 2)]), ["0", "1/100"]
            )


class TestEffortGain:
    def test_full_disclosure_gain_is_mean_shift(self):
        model = self_improving_pair_model()
        space = model.dist_of((1, 1)).space
        rule = TeamRule.constant(space, 1)
        assert effort_gain(model, rule, 1) == F(3, 5) - F(1, 2)

    def test_team_improving_consensual_worked_value(self):
        model = team_improving_pair_model()
        space = model.dist_of((1, 1)).space
        gain = effort_gain(model, consensual_rule(space), 1)
        assert gain == F(3, 80)
        assert effort_gain_cov(model, consensual_rule(space), 1) == F(3, 80)

    def test_team_improving_full_disclosure_gain_zero(self):
        model = team_improving_pair_model()
        space = model.dist_of((1, 1)).space
        assert effort_gain(model, TeamRule.constant(space, 1), 1) == 0

    def test_gain_forms_agree_with_enumeration(self):
        rng = random.Random(41)
        for _ in range(40):
            n = rng.choice((2, 3))
            base = [F(rng.randint(20, 60), 100) for _ in range(n)]
            own = [F(rng.randint(2, 15), 100) for _ in range(n)]
            cross = [F(rng.randint(0, 10), 100) for _ in range(n)]

            def dist(e):
                qs = [
                    base[j] + own[j] * e[j] + sum(cross[i] for i in range(n) if i != j and e[i])
                    for j in range(n)
                ]
                return binary_independent(qs)

            model = EffortModel.build(n, dist, ["1/100"] * n)
            space = model.dist_of((1,) * n).space
            rule = TeamRule(space, tuple(F(rng.randint(0, 8), 8) for _ in space.cells))
            for i in range(1, n + 1):
                g = effort_gain(model, rule, i, off_path="skeptical")
                if any(v < 1 for v in rule.values):
                    assert g == effort_gain_cov(model, rule, i)
                assert g == effort_payoff_difference(
                    model.dist_of((1,) * n), model.dist_of(model.without(i)), rule.values, i - 1
                )

    @pytest.mark.parametrize("off_path", ["skeptic", 42])
    def test_rejects_an_unknown_off_path_convention(self, off_path):
        model = team_improving_pair_model()
        space = model.dist_of((1, 1)).space
        with pytest.raises(IncentiveError, match="off_path"):
            effort_gain(model, consensual_rule(space), 1, off_path=off_path)

    def test_cov_form_needs_on_path_concealment(self):
        model = self_improving_pair_model()
        space = model.dist_of((1, 1)).space
        with pytest.raises(OffPathBracket):
            effort_gain_cov(model, TeamRule.constant(space, 1), 1)


class TestFullEffortSet:
    def test_boundary_and_violation(self):
        model = team_improving_pair_model()
        space = model.dist_of((1, 1)).space
        rule = consensual_rule(space)
        assert full_effort_set_contains([F(3, 80), F(3, 80)], rule, model)
        assert full_effort_set_contains([F(3, 100), F(3, 100)], rule, model)
        assert not full_effort_set_contains([F(4, 100), F(4, 100)], rule, model)

    def test_membership_monotone_in_costs(self):
        model = team_improving_pair_model()
        space = model.dist_of((1, 1)).space
        rule = consensual_rule(space)
        rng = random.Random(43)
        for _ in range(30):
            c = [F(rng.randint(1, 6), 100) for _ in range(2)]
            if full_effort_set_contains(c, rule, model):
                smaller = [x / 2 for x in c]
                assert full_effort_set_contains(smaller, rule, model)

    def test_costs_must_be_positive(self):
        model = team_improving_pair_model()
        space = model.dist_of((1, 1)).space
        with pytest.raises(IncentiveError):
            full_effort_set_contains([0, F(1, 100)], consensual_rule(space), model)


class TestCorners:
    def test_unilateral_single_positive_corner_class(self):
        model = self_improving_pair_model()
        corners = protocol_full_effort_corners(make_k_majority(2, 1), model)
        assert all(gv.gains == (F(1, 10), F(1, 10)) for gv in corners)

    def test_consensual_team_improving_corners(self):
        model = team_improving_pair_model()
        corners = protocol_full_effort_corners(make_consensus(2), model)
        gains = {gv.gains for gv in corners}
        assert (F(3, 80), F(3, 80)) in gains
        assert (F(0), F(0)) in gains

    def test_leader_corner_includes_partial_equilibrium(self):
        model = self_improving_pair_model()
        corners = protocol_full_effort_corners(make_leader(2, 1), model)
        assert len(corners) >= 2

    def test_refine_drops_off_path_full_disclosure_under_consensus(self):
        model = team_improving_pair_model()
        refined = protocol_full_effort_corners(make_consensus(2), model, refine=True)
        assert all(gv.classification != "full" for gv in refined)
        kept = protocol_full_effort_corners(make_leader(2, 1), model, refine=True)
        assert any(gv.classification == "full" for gv in kept)


class TestDominance:
    def test_self_improving_unilateral_dominates(self):
        model = self_improving_pair_model()
        for proto in (make_consensus(2), make_leader(2, 1), make_leader(2, 2)):
            assert dominates(make_k_majority(2, 1), proto, model)

    def test_team_improving_consensual_strictly_dominates(self):
        model = team_improving_pair_model()
        report = dominance_report(make_consensus(2), make_k_majority(2, 1), model)
        assert report.dominates and report.strictly
        assert report.witness == (F(3, 80), F(3, 80))
        # the witness is a genuine separator
        space = model.dist_of((1, 1)).space
        assert full_effort_set_contains(report.witness, consensual_rule(space), model)

    def test_reflexive(self):
        model = team_improving_pair_model()
        for proto in (make_consensus(2), make_k_majority(2, 1)):
            assert dominates(proto, proto, model)

    def test_transitive_on_triple(self):
        model = team_improving_pair_model()
        protos = [make_k_majority(2, 1), make_leader(2, 1), make_consensus(2)]
        for a in protos:
            for b in protos:
                for c in protos:
                    if dominates(a, b, model) and dominates(b, c, model):
                        assert dominates(a, c, model)


class TestClassifyEffort:
    def test_self_improving(self):
        assert classify_effort(self_improving_pair_model()) == "self_improving"

    def test_team_improving(self):
        assert classify_effort(team_improving_pair_model()) == "team_improving"

    def test_both_channels_is_neither(self):
        def dist(e):
            qs = [
                F(1, 2) + F(1, 20) * e[j] + F(1, 20) * e[1 - j]
                for j in range(2)
            ]
            return binary_independent(qs)

        model = EffortModel.build(2, dist, ["1/100", "1/100"])
        assert classify_effort(model) == "neither"

    @pytest.mark.parametrize("with_effort, expected", [
        ((F(1, 4), F(3, 8), F(3, 8)), "self_improving"),
        # the tail at member 1's top value gains exactly zero
        ((F(1, 4), F(1, 2), F(1, 4)), "neither"),
    ], ids=["every_tail_gains", "top_tail_gains_zero"])
    def test_zero_tail_gain_is_not_self_improving(self, with_effort, expected):
        without = (F(1, 2), F(1, 4), F(1, 4))

        def dist(e):
            own = with_effort if e[0] else without
            q = F(3, 5) if e[1] else F(1, 2)
            return independent([dict(zip((0, 1, 2), own)), {0: 1 - q, 1: q}])

        model = EffortModel.build(2, dist, ["1/100", "1/100"])
        assert classify_effort(model) == expected


class TestEffectiveLeader:
    def leader_model(self):
        space = binary_space(2)

        def dist(e):
            p1 = F(1, 2) + F(1, 10) * e[0] + F(1, 10) * e[1]
            c_hi, c_lo = (F(9, 10), F(45, 100)) if e[1] else (F(1, 2), F(1, 2))
            pmf = {}
            for w1 in (0, 1):
                for w2 in (0, 1):
                    pw1 = p1 if w1 else 1 - p1
                    c = c_hi if w1 else c_lo
                    pmf[(w1, w2)] = pw1 * (c if w2 else 1 - c)
            return from_pmf(space, pmf)

        return EffortModel.build(2, dist, ["1/100", "1/100"])

    def test_constructed_leader_recognized(self):
        model = self.leader_model()
        assert effective_team_leader(model, 1)
        assert not effective_team_leader(model, 2)

    def test_leader_protocol_strictly_dominates(self):
        model = self.leader_model()
        assert dominates(make_leader(2, 1), make_k_majority(2, 1), model, strict=True)

    def test_independent_models_have_no_leader(self):
        assert not effective_team_leader(self_improving_pair_model(), 1)
        assert not effective_team_leader(team_improving_pair_model(), 1)


class TestEpsilonBar:
    def base_and_top(self):
        base = self_improving_pair_model()
        space = base.dist_of((1, 1)).space
        top = from_pmf(space, {(1, 1): F(85, 100), (0, 0): F(15, 100)})
        return base, top

    def test_threshold_found_and_checks(self):
        base, top = self.base_and_top()
        result = find_epsilon_bar(base, top, make_consensus(2), grid_steps=50)
        assert result.found and result.epsilon_bar is not None
        assert F(0) < result.epsilon_bar < F(1)
        assert result.monotone_on_grid
        above = base.replace_full_effort(
            mix(base.dist_of((1, 1)), top, result.epsilon_bar + F(1, 100))
        )
        assert dominates(make_consensus(2), make_k_majority(2, 1), above, strict=True)
        assert not dominates(make_consensus(2), make_k_majority(2, 1), base, strict=True)

    @pytest.mark.parametrize("steps", [1, 2])
    def test_coarse_grid_bisects_to_the_same_threshold(self, steps):
        # one step scans no grid point, two scan only 1/2, which is false
        base, top = self.base_and_top()
        fine = find_epsilon_bar(base, top, make_consensus(2), grid_steps=100)
        coarse = find_epsilon_bar(base, top, make_consensus(2), grid_steps=steps)
        assert not any(flag for _, flag in coarse.grid)
        assert coarse.found and F(1, 2) < coarse.epsilon_bar < F(1)
        assert abs(coarse.epsilon_bar - fine.epsilon_bar) <= F(1, 10**6)

    @pytest.mark.parametrize("tolerance", [0, F(-1, 10)])
    def test_rejects_a_tolerance_that_never_ends_the_bisection(self, tolerance):
        base, top = self.base_and_top()
        with pytest.raises(IncentiveError, match="tolerance"):
            find_epsilon_bar(base, top, make_consensus(2), tolerance=tolerance)

    def test_rejects_unilateral_comparison(self):
        base, top = self.base_and_top()
        with pytest.raises(IncentiveError):
            find_epsilon_bar(base, top, make_k_majority(2, 1))

    def test_rejects_non_dominating_mixture_target(self):
        base, _ = self.base_and_top()
        space = base.dist_of((1, 1)).space
        bottom = from_pmf(space, {(0, 0): F(9, 10), (1, 1): F(1, 10)})
        with pytest.raises(IncentiveError):
            find_epsilon_bar(base, bottom, make_consensus(2))


class TestSelfImprovingConcealMean:
    def test_effort_raises_the_conceal_conditional_mean(self):
        # with self-improving effort, concealment hides some of the gain: the
        # conditional mean on the concealed event is higher at full effort
        from team_disclosure.equilibrium import find_equilibria
        from team_disclosure.outcomes import posterior_no_disclosure

        rng = random.Random(61)
        checked = 0
        for _ in range(6):
            n = rng.choice((2, 3))
            lo = [F(rng.randint(20, 50), 100) for _ in range(n)]
            hi = [q + F(rng.randint(5, 20), 100) for q in lo]

            def dist(e):
                return binary_independent([lo[j] + (hi[j] - lo[j]) * e[j] for j in range(n)])

            model = EffortModel.build(n, dist, ["1/100"] * n)
            full = model.dist_of((1,) * n)
            for proto in (make_consensus(n), make_leader(n, 1)):
                for eq in find_equilibria(full, proto):
                    concealed = [
                        c for c, d in zip(full.space.cells, eq.rule.values) if d < 1
                    ]
                    if not concealed:
                        continue
                    for i in range(1, n + 1):
                        dev = model.dist_of(model.without(i))
                        post_full = posterior_no_disclosure(full, eq.rule)[i - 1]
                        post_dev = posterior_no_disclosure(dev, eq.rule)[i - 1]
                        if len({c[i - 1] for c in concealed}) > 1:
                            assert post_full > post_dev
                            checked += 1
                        else:
                            # concealment pins this member's outcome to one
                            # value, so both conditional means equal it
                            assert post_full == post_dev
        assert checked > 0
