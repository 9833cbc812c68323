import random
from fractions import Fraction

import pytest

from team_disclosure.audit import mixed_effect_model, self_improving_model, team_improving_model
from team_disclosure.equilibrium import StrategyProfile, TeamRule, team_rule
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
    GainVector,
    find_epsilon_bar,
    protocol_full_effort_corners,
)
from team_disclosure.outcomes import (
    binary_independent,
    binary_space,
    comonotone,
    fosd_dominates,
    from_pmf,
    independent,
    mix,
    posterior_no_disclosure,
)
from team_disclosure.protocols import all_protocols, make_consensus, make_k_majority, make_leader

from oracles import effort_payoff_difference, mixing_indicator_by_public_calls

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


def skeptical_corner(model, rule):
    """The gain vector of a rule under the skeptical off-path convention."""
    gains = tuple(
        effort_gain(model, rule, i, off_path="skeptical") for i in range(1, model.n + 1)
    )
    return GainVector(gains, "interior", rule)


class TestFullEffortSet:
    def test_boundary_and_violation(self):
        model = team_improving_pair_model()
        space = model.dist_of((1, 1)).space
        corner = skeptical_corner(model, consensual_rule(space))
        assert corner.covers([F(3, 80), F(3, 80)])
        assert corner.covers([F(3, 100), F(3, 100)])
        assert not corner.covers([F(4, 100), F(4, 100)])
        assert not corner.covers([F(1, 100), F(4, 100)])

    def test_membership_monotone_in_costs(self):
        model = team_improving_pair_model()
        space = model.dist_of((1, 1)).space
        corner = skeptical_corner(model, consensual_rule(space))
        rng = random.Random(43)
        for _ in range(30):
            c = [F(rng.randint(1, 6), 100) for _ in range(2)]
            if corner.covers(c):
                smaller = [x / 2 for x in c]
                assert corner.covers(smaller)

    def test_costs_must_be_positive(self):
        # costs are checked where they enter, in the effort model; a corner
        # with a gain of 0 covers no cost vector at all
        model = team_improving_pair_model()
        with pytest.raises(IncentiveError, match="costs must be strictly positive"):
            EffortModel.build(2, dict(model.dists), [0, F(1, 100)])
        space = model.dist_of((1, 1)).space
        rule = TeamRule.constant(space, 1)
        assert not GainVector((F(0), F(1)), "full", rule).covers([F(1, 100), F(1, 100)])


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
        assert skeptical_corner(model, consensual_rule(space)).covers(report.witness)

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


def audit_model_cases():
    """114 (model, diagonal top, protocol) cases: the audit's three model
    builders at 2 and 3 members, each with a top that puts 60-95/100 on
    everyone's high outcome and the rest on everyone's low one, against a
    protocol other than unilateral disclosure. Binary grids: every root is
    a deviation-posterior root."""
    rng = random.Random(5)
    builders = (self_improving_model, team_improving_model, mixed_effect_model)
    cases = []
    while len(cases) < 114:
        n = rng.choice((2, 3))
        model = rng.choice(builders)(rng, n)
        m = F(rng.randint(60, 95), 100)
        top = from_pmf(model.dist_of(model.full_effort).space, {(1,) * n: m, (0,) * n: 1 - m})
        protocol = rng.choice([p for p in all_protocols(n) if not p.all_unilateral])
        if fosd_dominates(top, model.dist_of(model.full_effort)):
            cases.append((model, top, protocol))
    return cases


def three_value_cases():
    """The valid draws of 60 two-member independent models on one shared
    3-value grid, where effort moves mass from the bottom and middle values to
    the top one, each with a comonotone top putting 60-95/100 on the top
    value, against a protocol other than unilateral disclosure. The middle
    value gives grid-value roots."""
    rng = random.Random(11)
    cases = []
    for _ in range(60):
        values = sorted(rng.sample(range(10), 3))
        bases = []
        for _ in range(2):
            w = [rng.randint(1, 6) for _ in range(3)]
            bases.append([F(x, sum(w)) for x in w])
        shifts = [F(rng.randint(1, 5), 20) * min(b[0], b[1]) for b in bases]

        def dist(e, bases=bases, shifts=shifts, values=values):
            return independent(
                [
                    dict(zip(values, (b[0] - d * s, b[1] - d * s, b[2] + 2 * d * s)))
                    for b, s, d in zip(bases, shifts, e)
                ]
            )

        model = EffortModel.build(2, dist, ["1/100", "1/100"])
        m = F(rng.randint(60, 95), 100)
        low = F(rng.randint(1, 9), 10) * (1 - m)
        top = comonotone(values, [low, 1 - m - low, m], 2)
        protocol = rng.choice([p for p in all_protocols(2) if not p.all_unilateral])
        if fosd_dominates(top, model.dist_of(model.full_effort)):
            cases.append((model, top, protocol))
    return cases


class TestEpsilonBar:
    def base_and_top(self):
        base = self_improving_pair_model()
        space = base.dist_of((1, 1)).space
        top = from_pmf(space, {(1, 1): F(85, 100), (0, 0): F(15, 100)})
        return base, top

    def test_threshold_found_and_checks(self):
        base, top = self.base_and_top()
        result = find_epsilon_bar(base, top, make_consensus(2))
        assert result.found and result.epsilon_bar is not None
        assert F(0) < result.epsilon_bar < F(1)
        assert result.monotone
        above = base.replace_full_effort(
            mix(base.dist_of((1, 1)), top, result.epsilon_bar + F(1, 100))
        )
        assert dominates(make_consensus(2), make_k_majority(2, 1), above, strict=True)
        assert not dominates(make_consensus(2), make_k_majority(2, 1), base, strict=True)

    def test_audit_pair_threshold_is_four_sevenths(self):
        # the audit's worked pair: each member's posterior meets their
        # shirking posterior 2/7 at 4/7, so the strict inequality fails there
        # and holds on (4/7, 1)
        base, top = self.base_and_top()
        result = find_epsilon_bar(base, top, make_consensus(2))
        assert (result.found, result.epsilon_bar, result.monotone) == (True, F(4, 7), True)
        holds = mixing_indicator_by_public_calls(base, top, make_consensus(2))
        assert not holds(F(4, 7))
        assert holds(F(4, 7) + F(1, 10**9))

    @pytest.mark.parametrize("steps", [1, 2])
    def test_coarse_grid_bisects_to_the_same_threshold(self, steps):
        # scan j/steps with the public twin, then bisect from the last false
        # point to 1: one step scans no grid point, two scan only 1/2, which
        # is false; either way the bisection closes on the exact threshold
        base, top = self.base_and_top()
        exact = find_epsilon_bar(base, top, make_consensus(2))
        holds = mixing_indicator_by_public_calls(base, top, make_consensus(2))
        grid = [F(j, steps) for j in range(1, steps)]
        assert not any(holds(e) for e in grid)
        lo, hi = (grid[-1] if grid else F(0)), F(1)
        while hi - lo > F(1, 10**6):
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if holds(mid) else (mid, hi)
        assert F(1, 2) < hi < F(1)
        assert lo <= exact.epsilon_bar <= hi

    @pytest.mark.parametrize("cases", [audit_model_cases, three_value_cases])
    def test_threshold_against_the_public_twin(self, cases):
        # the twin is false at every j/400 below the threshold (everywhere when
        # none is found) and, when the indicator is monotone, true above it
        grid_roots = 0
        for model, top, protocol in cases():
            result = find_epsilon_bar(model, top, protocol)
            holds = mixing_indicator_by_public_calls(model, top, protocol)
            for j in range(1, 400):
                eps = F(j, 400)
                if not result.found or eps < result.epsilon_bar:
                    assert not holds(eps), (model, protocol.describe(), eps)
                elif eps > result.epsilon_bar and result.monotone:
                    assert holds(eps), (model, protocol.describe(), eps)
            if result.found and result.epsilon_bar > 0:
                full = model.dist_of(model.full_effort)
                grids = full.space.grids
                rows = [[0] + [1] * (len(g) - 1) for g in grids]
                rule = team_rule(StrategyProfile.from_votes(full.space, rows), protocol)
                at, below = (
                    posterior_no_disclosure(mix(full, top, e), rule)
                    for e in (result.epsilon_bar, result.epsilon_bar / 2)
                )
                grid_roots += any(p != q and p in g for p, q, g in zip(at, below, grids))
        # only the 3-value grids put a threshold where a posterior crosses a
        # grid value
        assert bool(grid_roots) == (cases is three_value_cases)

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
