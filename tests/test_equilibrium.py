import random
from fractions import Fraction
from itertools import product
from math import prod

import pytest

from team_disclosure import equilibrium
from team_disclosure.audit import random_distribution
from team_disclosure.equilibrium import (
    FULL,
    INTERIOR,
    PARTIAL,
    EquilibriumError,
    SearchCapExceeded,
    StrategyProfile,
    TeamRule,
    _AtomSolver,
    _build_context,
    _cut_configs,
    _profile_from_config,
    classify_rule,
    consistent_with_deliberation,
    find_equilibria,
    find_equilibria_report,
    full_disclosure_is_plausible,
    plausible_full_disclosure_by_search,
    team_rule,
    verify_equilibrium,
)
from team_disclosure.outcomes import (
    JointDistribution,
    OffPathPosterior,
    OutcomeError,
    binary_independent,
    binary_space,
    common_mixture,
    independent,
    make_space,
    posterior_no_disclosure,
)
from team_disclosure.protocols import (
    all_protocols,
    make_consensus,
    make_k_majority,
    make_leader,
    make_protocol,
)

from oracles import (
    assert_masks_match,
    consistency_confirmed_by_fractions,
    consistency_witness_by_profiles,
    consistent_with_deliberation_by_fractions,
    context_entries,
    deterministic_profiles,
    find_equilibria_report_unscreened,
    plausibility_confirmed_by_fractions,
    plausibility_witness_by_profiles,
    plausible_full_disclosure_by_fractions,
    posterior_by_enumeration,
    screened_configs_by_product,
    search_conceal_by_cells,
    team_rule_by_evaluate,
    unscreened_configs,
    unscreened_search_configs,
    verify_equilibrium_by_evaluate,
)

F = Fraction


def uniform_binary(n):
    return binary_independent([F(1, 2)] * n)


def random_dist(rng, n, sizes=(2, 3)):
    grids = [sorted(rng.sample(range(0, 8), rng.choice(sizes))) for _ in range(n)]
    space = make_space(grids)
    nums = [rng.randint(1, 20) for _ in space.cells]
    den = sum(nums)
    return JointDistribution(space, tuple(F(x, den) for x in nums))


class TestTeamRule:
    def test_all_ones_is_full_disclosure(self):
        d = uniform_binary(2)
        profile = StrategyProfile.constant(d.space, 1)
        for proto in all_protocols(2):
            assert team_rule(profile, proto).values == (F(1),) * 4

    def test_consensus_needs_both_high(self):
        d = uniform_binary(2)
        profile = StrategyProfile.from_votes(d.space, [[0, 1], [0, 1]])
        rule = team_rule(profile, make_consensus(2))
        assert rule.prob([1, 1]) == 1
        assert rule.prob([0, 1]) == rule.prob([1, 0]) == rule.prob([0, 0]) == 0

    def test_mixed_votes_use_multilinear_extension(self):
        d = uniform_binary(3)
        profile = StrategyProfile.from_votes(d.space, [[1, 1], [0, 0], [F(1, 2), F(1, 2)]])
        rule = team_rule(profile, make_k_majority(3, 2))
        assert rule.prob([0, 0, 0]) == F(1, 2)

    def test_dimension_mismatch(self):
        d = uniform_binary(2)
        with pytest.raises(EquilibriumError):
            team_rule(StrategyProfile.constant(d.space, 1), make_consensus(3))

    @pytest.mark.parametrize("cell", [[0, F(1, 2)], [2, 1], [0, 1, 1]])
    def test_off_grid_cell_in_the_rule(self, cell):
        # the same error as JointDistribution.prob
        d = uniform_binary(2)
        rule = team_rule(StrategyProfile.constant(d.space, 1), make_consensus(2))
        with pytest.raises(OutcomeError, match="is not on the grid"):
            d.prob(cell)
        with pytest.raises(OutcomeError, match="is not on the grid"):
            rule.prob(cell)

    @pytest.mark.parametrize("cell", [[0, F(1, 2)], [2, 1], [0, 1, 1]])
    def test_off_grid_cell_in_the_profile(self, cell):
        profile = StrategyProfile.from_votes(uniform_binary(2).space, [[0, 1], [F(1, 3), 1]])
        assert profile.vote_vector([0, 0]) == (0, F(1, 3))
        with pytest.raises(OutcomeError, match="is not on the grid"):
            profile.vote_vector(cell)


class TestVerify:
    def test_full_disclosure_with_skeptical_beliefs(self):
        d = uniform_binary(2)
        profile = StrategyProfile.constant(d.space, 1)
        report = verify_equilibrium(profile, [0, 0], d, make_consensus(2))
        assert report.ok and report.off_path and not report.violations

    def test_consensual_threshold_equilibrium(self):
        d = uniform_binary(2)
        profile = StrategyProfile.from_votes(d.space, [[0, 1], [0, 1]])
        report = verify_equilibrium(profile, [F(1, 3), F(1, 3)], d, make_consensus(2))
        assert report.ok and not report.off_path

    def test_wrong_posteriors_reported(self):
        d = uniform_binary(2)
        profile = StrategyProfile.from_votes(d.space, [[0, 1], [0, 1]])
        report = verify_equilibrium(profile, [F(1, 2), F(1, 2)], d, make_consensus(2))
        assert not report.ok
        assert any(v.kind == "bayes" for v in report.violations)

    def test_coalition_deviation_reported(self):
        d = uniform_binary(2)
        # concealing everything is not stable: at (1,1) the pair would disclose
        profile = StrategyProfile.constant(d.space, 0)
        post = posterior_no_disclosure(d, team_rule(profile, make_consensus(2)))
        report = verify_equilibrium(profile, post, d, make_consensus(2))
        assert not report.ok
        assert any(v.kind == "deviation" for v in report.violations)


class TestWorkedSearches:
    def test_unilateral_only_full_class(self):
        eqs = find_equilibria(uniform_binary(2), make_k_majority(2, 1))
        assert all(e.classification == FULL for e in eqs)
        assert any(all(v == 1 for v in e.rule.values) for e in eqs)

    def test_consensual_interior_third(self):
        eqs = find_equilibria(uniform_binary(2), make_consensus(2))
        interior = [e for e in eqs if e.classification == INTERIOR]
        assert len(interior) == 1
        eq = interior[0]
        assert eq.posteriors == (F(1, 3), F(1, 3))
        assert eq.rule.prob([1, 1]) == 1 and eq.rule.prob([0, 0]) == 0
        # oracle: conceal everything but (1,1), then Bayes by enumeration
        rule = [F(1) if c == (1, 1) else F(0) for c in eq.space.cells]
        assert posterior_by_enumeration(eq.space.cells, uniform_binary(2).probs, rule, 0) == F(1, 3)

    def test_leader_partial_non_interior(self):
        eqs = find_equilibria(uniform_binary(2), make_leader(2, 1))
        partial = [e for e in eqs if e.classification != FULL]
        assert len(partial) == 1
        eq = partial[0]
        assert eq.classification == PARTIAL
        assert eq.posteriors == (F(0), F(1, 2))
        assert eq.rule.prob([0, 0]) == 0 and eq.rule.prob([0, 1]) == 0
        assert eq.rule.prob([1, 0]) == 1 and eq.rule.prob([1, 1]) == 1

    def test_equilibria_deduplicated_by_rule(self):
        eqs = find_equilibria(uniform_binary(2), make_consensus(2))
        rules = [e.rule.values for e in eqs]
        assert len(rules) == len(set(rules))

    def test_one_distribution_under_every_protocol(self):
        # the search state is built once per distribution object and serves
        # every protocol; searching one object under every protocol gives the
        # reports of a fresh equal distribution per protocol
        rng = random.Random(233)
        for n in (2, 3):
            shared = fractional_dist(rng, n, sizes=(2, 3))
            state = shared._search
            for proto in all_protocols(n):
                fresh = JointDistribution(make_space(shared.space.grids), shared.probs)
                assert find_equilibria_report(shared, proto) == find_equilibria_report(fresh, proto)
                assert _build_context(shared, proto).state is state
                assert fresh._search is not state
            assert shared._search is state

    def test_search_state_does_not_depend_on_order(self):
        # one distribution object searched under its protocols in three
        # orders: after each search the context's entries and masks equal
        # the slow twins and the report equals the first order's, and after
        # the last the search state equals a fresh distribution's, so no
        # search leaves anything in it for the next
        rng = random.Random(239)
        cases = [(fractional_dist(rng, n, sizes=(2, 3)), all_protocols(n)) for n in (2, 3)]
        for size in (4, 5):
            d = fractional_dist(rng, 4, sizes=(size,))
            cases.append((d, [make_k_majority(4, k) for k in range(1, 5)]))
        for dist, protos in cases:
            expected = [search_conceal_by_cells(dist, proto) for proto in protos]
            cut_ranges = [range(len(g) + 1) for g in dist.space.grids]
            forward = list(range(len(protos)))
            interleaved = [j for pair in zip(forward, forward[::-1]) for j in pair][: len(forward)]
            reports = {}
            for order in (forward, forward[::-1], interleaved):
                shared = JointDistribution(make_space(dist.space.grids), dist.probs)
                for j in order:
                    report = find_equilibria_report(shared, protos[j])
                    assert reports.setdefault(j, report) == report
                    ctx = _build_context(shared, protos[j])
                    assert list(zip(product(*cut_ranges), context_entries(ctx))) == list(expected[j].items())
                    assert_masks_match(ctx)
                fresh = JointDistribution(make_space(dist.space.grids), dist.probs)
                assert vars(shared._search) == vars(fresh._search)

    def test_full_disclosure_entry_matches_public_verify(self):
        # the search verifies the always-disclose entry through the private
        # core with no Bayes posteriors; the public check, which builds the
        # team rule and finds it never conceals, must give the same report
        rng = random.Random(241)
        for n in (2, 3):
            for _ in range(8):
                dist = random_distribution(rng, n)
                ones = StrategyProfile.constant(dist.space, 1)
                for proto in all_protocols(n):
                    expected = verify_equilibrium(ones, dist.space.min_vector, dist, proto)
                    (full,) = [
                        eq for eq in find_equilibria_report(dist, proto)[0]
                        if eq.profile == ones and eq.off_path
                    ]
                    assert full.verification == expected
                    assert expected.ok and expected.off_path

    def test_search_caps(self):
        space = make_space([[0, 1]] * 5)
        d = JointDistribution(space, tuple(F(1, 32) for _ in range(32)))
        with pytest.raises(SearchCapExceeded):
            find_equilibria(d, make_consensus(5))

    def test_ternary_grid_interior(self):
        space = make_space([[0, 1, 2], [0, 1, 2]])
        d = JointDistribution(space, tuple(F(1, 9) for _ in range(9)))
        eqs = find_equilibria(d, make_consensus(2))
        interior = [e for e in eqs if e.classification == INTERIOR]
        assert interior, "uniform ternary consensus should have an interior equilibrium"
        for eq in interior:
            assert eq.verification.ok


class TestClassification:
    def test_always_disclose_is_full(self):
        space = binary_space(2)
        assert classify_rule(TeamRule.constant(space, 1)) == FULL

    def test_single_concealed_cell_is_full(self):
        space = binary_space(2)
        vals = [F(1)] * 4
        vals[0] = F(0)
        assert classify_rule(TeamRule(space, tuple(vals))) == FULL

    def test_row_concealment_is_partial(self):
        space = binary_space(2)
        vals = [F(0) if cell[0] == 0 else F(1) for cell in space.cells]
        assert classify_rule(TeamRule(space, tuple(vals))) == PARTIAL

    def test_consensual_rule_is_interior(self):
        space = binary_space(2)
        vals = [F(1) if cell == (1, 1) else F(0) for cell in space.cells]
        assert classify_rule(TeamRule(space, tuple(vals))) == INTERIOR


class TestRejectedCandidate:
    def test_candidate_failing_verification_is_noted_and_dropped(self, monkeypatch):
        # hand out weights of 1/2 where the solver proves the all-atom
        # configuration at the lowest values infeasible; verification has to
        # turn the candidate away. The corner screen drops that configuration
        # before it reaches the solver, so the search runs unscreened, the
        # solver proving the configurations with no atom in the screen's place
        space = make_space([[0, 1, 2], [0, 1, 2]])
        d = JointDistribution(space, tuple(F(1, 9) for _ in range(9)))
        proto = make_consensus(2)
        expected, _ = find_equilibria_report(d, proto)
        solve = _AtomSolver.solve
        planted = []

        def planting(self):
            found = solve(self)
            if found is None and self.config == (("atom", 0), ("atom", 0)):
                found = {a: F(1, 2) for a in self.atoms}
                planted.append(_profile_from_config(space, self.config, found)[0])
            return found

        monkeypatch.setattr(_AtomSolver, "solve", planting)
        monkeypatch.setattr(equilibrium, "_cut_configs", unscreened_search_configs)
        eqs, notes = find_equilibria_report(d, proto)
        assert notes == (
            "candidate configuration (('atom', 0), ('atom', 0)) failed verification",
        )
        assert eqs == expected
        assert planted and not {e.profile for e in eqs} & set(planted)


class TestThresholdForm:
    def test_all_returned_profiles_are_thresholds(self):
        rng = random.Random(13)
        for _ in range(8):
            n = rng.choice((2, 3))
            d = random_dist(rng, n)
            for proto in all_protocols(n):
                for eq in find_equilibria(d, proto):
                    for i, grid in enumerate(d.space.grids):
                        for pos, value in enumerate(grid):
                            if value > eq.posteriors[i]:
                                assert eq.profile.values[i][pos] == 1
                            if value < eq.posteriors[i]:
                                assert eq.profile.values[i][pos] == 0


class TestBinaryInteriorRule:
    def test_interior_rule_is_high_set_vote(self):
        rng = random.Random(17)
        for _ in range(10):
            n = rng.choice((2, 3))
            d = random_dist(rng, n, sizes=(2,))
            for proto in all_protocols(n):
                expected = tuple(
                    F(1)
                    if proto.is_winning(
                        [i + 1 for i in range(n) if cell[i] == d.space.grids[i][1]]
                    )
                    else F(0)
                    for cell in d.space.cells
                )
                for eq in find_equilibria(d, proto):
                    if eq.classification == INTERIOR:
                        assert eq.rule.values == expected


class TestNestedProtocols:
    def test_wider_winning_discloses_more(self):
        rng = random.Random(19)
        for _ in range(10):
            n = rng.choice((2, 3))
            small = make_consensus(n)
            extra = [sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))]
            big = make_protocol(n, list(small.minimal_winning) + extra)
            d = random_dist(rng, n, sizes=(2,))
            eqs_big = find_equilibria(d, big)
            for eq in find_equilibria(d, small):
                assert any(
                    all(b >= s for b, s in zip(other.rule.values, eq.rule.values))
                    for other in eqs_big
                )


class TestCorrelationStatics:
    def test_interior_rule_stable_and_masses_monotone(self):
        q = F(1, 2)
        f = common_mixture(2, F(1, 5), q, q)
        f_prime = common_mixture(2, F(3, 5), q, q)
        proto = make_consensus(2)
        space = f.space
        rule = tuple(F(1) if cell == (1, 1) else F(0) for cell in space.cells)
        assert any(e.rule.values == rule for e in find_equilibria(f, proto))
        assert any(e.rule.values == rule for e in find_equilibria(f_prime, proto))
        for i in range(2):
            hi_f = sum(p for c, p, d in zip(space.cells, f.probs, rule) if d == 1 and c[i] == 1)
            hi_fp = sum(p for c, p, d in zip(space.cells, f_prime.probs, rule) if d == 1 and c[i] == 1)
            lo_f = sum(p for c, p, d in zip(space.cells, f.probs, rule) if d == 0 and c[i] == 0)
            lo_fp = sum(p for c, p, d in zip(space.cells, f_prime.probs, rule) if d == 0 and c[i] == 0)
            assert hi_fp >= hi_f and lo_fp >= lo_f


class TestConsistency:
    def test_skeptical_beliefs_inconsistent_under_consensus(self):
        d = uniform_binary(2)
        assert not consistent_with_deliberation([0, 0], d, make_consensus(2))

    def test_leader_beliefs_consistent(self):
        d = uniform_binary(2)
        # the leader conceals only their worst draw; the partner never discloses
        assert consistent_with_deliberation([0, F(1, 2)], d, make_leader(2, 1))

    def test_prior_mean_always_consistent(self):
        rng = random.Random(23)
        for n in (2, 3):
            d = random_dist(rng, n, sizes=(2,))
            for proto in all_protocols(n):
                assert consistent_with_deliberation(d.mean_vector, d, proto)

    @pytest.mark.parametrize(
        "search",
        [
            lambda d, proto: consistent_with_deliberation(d.mean_vector, d, proto),
            plausible_full_disclosure_by_search,
        ],
        ids=["consistent_with_deliberation", "plausible_full_disclosure_by_search"],
    )
    def test_profile_cap(self, search):
        # 4 members on 6-value grids: 24 grid values, beyond the cap of 20
        space = make_space([range(6)] * 4)
        probs = tuple(F(1, len(space.cells)) for _ in space.cells)
        d = JointDistribution(space, probs)
        with pytest.raises(SearchCapExceeded):
            search(d, make_consensus(4))

    def test_profile_cap_admits_every_solve_shape(self):
        # every shape of at most 4 members and 20 grid values in all passes
        # the cap, which reads grid lengths and builds no cell
        for n in range(2, 5):
            for sizes in product(range(2, 19), repeat=n):
                if sum(sizes) <= 20:
                    space = make_space([range(size) for size in sizes])
                    equilibrium._check_caps(space)
                    assert "cells" not in vars(space)
        # beyond it, the search and both refinement scans refuse alike
        for sizes in ((7, 7, 7), (6, 5, 5, 5), (2,) * 5):
            space = make_space([range(size) for size in sizes])
            d = JointDistribution(space, (F(1, len(space.cells)),) * len(space.cells))
            proto = make_consensus(len(sizes))
            with pytest.raises(SearchCapExceeded):
                find_equilibria_report(d, proto)
            with pytest.raises(SearchCapExceeded):
                consistent_with_deliberation(d.mean_vector, d, proto)
            with pytest.raises(SearchCapExceeded):
                plausible_full_disclosure_by_search(d, proto)

    def test_member_count_mismatch(self):
        # a 3-member distribution with a 2-member protocol once raised IndexError
        d = uniform_binary(3)
        with pytest.raises(EquilibriumError):
            plausible_full_disclosure_by_search(d, make_consensus(2))
        with pytest.raises(EquilibriumError):
            consistent_with_deliberation(d.mean_vector, d, make_consensus(2))


# Grid values for the kernel-oracle tests, non-integers included.
ORACLE_VALUES = (F(0), F(1, 3), F(1), F(2), F(5, 2), F(4), F(7))


def sparse_dist(rng, sizes):
    """A pmf on grids drawn from ORACLE_VALUES, often with zero-probability cells."""
    space = make_space([sorted(rng.sample(ORACLE_VALUES, k)) for k in sizes])
    nums = [rng.choice((0, 0, 1, 2, 5, 9)) for _ in space.cells]
    nums[rng.randrange(len(nums))] += 1
    den = sum(nums)
    return JointDistribution(space, tuple(F(x, den) for x in nums))


ORACLE_SIZES = {2: [(2, 2), (2, 3), (3, 2), (3, 3)], 3: [(2, 2, 2), (2, 3, 2)]}
# Larger spaces (27 and 16 cells, 2^9 and 2^8 profiles), against a seeded
# sample of their protocols: the Fraction loops are slow there.
SAMPLED_SIZES = [(3, 3, 3), (2, 2, 2, 2)]
SAMPLED_PROTOCOLS = 4
# Four members, the last grid the largest (2^10 to 2^16 profiles), against a
# seeded sample of their protocols.
TWIN_SIZES = [(2, 2, 2, 4), (2, 3, 2, 4), (3, 2, 3, 4), (3, 3, 4, 4), (4, 4, 4, 4)]
TWIN_PROTOCOLS = 3


def assert_plausibility_confirmed(d, proto, witness):
    """A returned plausibility witness passes the run-time integer check and
    its Fraction twin."""
    assert equilibrium._witness_holds(d, proto, witness)
    assert plausibility_confirmed_by_fractions(d, proto, witness)


def assert_consistency_confirmed(target, d, proto, witness):
    """A returned consistency witness passes the run-time integer check and
    its Fraction twin."""
    assert equilibrium._witness_holds(d, proto, witness, target)
    assert consistency_confirmed_by_fractions(target, d, proto, witness)


def oracle_cases(rng):
    """(distribution, protocols) pairs: every protocol on the small spaces,
    a seeded sample on the larger ones."""
    for n, patterns in ORACLE_SIZES.items():
        for sizes in patterns:
            yield sparse_dist(rng, sizes), all_protocols(n)
    for sizes in SAMPLED_SIZES:
        yield sparse_dist(rng, sizes), rng.sample(all_protocols(len(sizes)), SAMPLED_PROTOCOLS)


class TestRefinementOracles:
    """The concealed-set refinement scan against the profile-by-profile
    Fraction loops."""

    def test_consistency_matches_fraction_loop(self):
        rng = random.Random(71)
        for d, protos in oracle_cases(rng):
            profiles = list(deterministic_profiles(d.space))
            for proto in protos:
                while True:
                    rule = team_rule(rng.choice(profiles), proto)
                    if any(v == 0 and p > 0 for v, p in zip(rule.values, d.probs)):
                        break
                hit = posterior_no_disclosure(d, rule)
                # a denominator of 1009 is beyond every pmf here: no profile reaches it
                miss = [
                    g[0] + (g[-1] - g[0]) * F(rng.randint(1, 1008), 1009)
                    for g in d.space.grids
                ]
                for target in (hit, miss):
                    fast = consistent_with_deliberation(target, d, proto)
                    assert fast == consistent_with_deliberation_by_fractions(target, d, proto)
                    assert fast == (target is hit)

    def test_plausibility_matches_fraction_loop(self):
        rng = random.Random(73)
        outcomes = set()
        cases = list(oracle_cases(rng))
        # 3-value grids only, with no mass where every member is at their minimum
        for protos in (all_protocols(2), rng.sample(all_protocols(3), SAMPLED_PROTOCOLS)):
            space = make_space([sorted(rng.sample(ORACLE_VALUES, 3)) for _ in range(protos[0].n)])
            nums = [0] + [rng.randint(1, 9) for _ in space.cells[1:]]
            d = JointDistribution(space, tuple(F(x, sum(nums)) for x in nums))
            cases.append((d, protos))
        for d, protos in cases:
            for proto in protos:
                fast = plausible_full_disclosure_by_search(d, proto)
                assert fast == plausible_full_disclosure_by_fractions(d, proto)
                witness = equilibrium._plausibility_witness(d, proto)
                assert witness == plausibility_witness_by_profiles(d, proto)
                if witness is not None:
                    assert_plausibility_confirmed(d, proto, witness)
                outcomes.add(fast)
        assert outcomes == {True, False}

    def test_prefix_scans_match_profile_scans(self):
        # 2^10 to 2^16 profiles, too many for the Fraction loops: both scans
        # return the same first witness, or none, as the twins that read
        # one concealed set per profile
        rng = random.Random(83)
        moved, plausible = set(), set()
        for sizes in TWIN_SIZES:
            d = sparse_dist(rng, sizes)
            # concealed mass below the prime 1009 (in pmf units) reaches no
            # posterior of denominator 1009
            assert d._scaled.den < 1009
            for proto in rng.sample(all_protocols(4), TWIN_PROTOCOLS):
                while True:
                    rows = [rng.randrange(1 << len(g)) for g in d.space.grids]
                    try:
                        hit = posterior_no_disclosure(
                            d, team_rule(equilibrium._pure_profile(d.space, rows), proto)
                        )
                    except OffPathPosterior:
                        continue
                    break
                miss = [
                    g[0] + (g[-1] - g[0]) * F(rng.randint(1, 1008), 1009)
                    for g in d.space.grids
                ]
                fast = equilibrium._consistency_witness(hit, d, proto)
                assert fast is not None
                assert fast == consistency_witness_by_profiles(hit, d, proto)
                assert_consistency_confirmed(hit, d, proto, fast)
                moved.add(fast != tuple(rows))
                assert equilibrium._consistency_witness(miss, d, proto) is None
                assert consistency_witness_by_profiles(miss, d, proto) is None
                fast = equilibrium._plausibility_witness(d, proto)
                assert fast == plausibility_witness_by_profiles(d, proto)
                if fast is not None:
                    assert_plausibility_confirmed(d, proto, fast)
                plausible.add(fast is not None)
        # some reached target's first witness is not the profile it came from
        assert True in moved
        assert plausible == {True, False}

    @pytest.mark.parametrize("bound", [1, 4, 16])
    def test_scans_match_the_twins_in_small_blocks(self, monkeypatch, bound):
        # blocks of at most 1, 4 or 16 prefixes: most head members are
        # walked and a scan crosses many blocks, on spaces whose cells fill
        # a slot up to its spare bit (15 cells in 2 bytes) too; both scans
        # still return the twins' first witness, or none
        monkeypatch.setattr(equilibrium, "BLOCK_PREFIXES", bound)
        rng = random.Random(f"small blocks {bound}")
        plausible = set()
        blocks = 1
        for sizes in [(3, 5), (5, 3), (2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 2, 2), (2, 2, 3, 2)]:
            d = sparse_dist(rng, sizes)
            blocks = max(blocks, prod(map(len, d._scan.outer)))
            protos = all_protocols(len(sizes))
            for proto in rng.sample(protos, min(len(protos), 6)):
                fast = equilibrium._plausibility_witness(d, proto)
                assert fast == plausibility_witness_by_profiles(d, proto)
                plausible.add(fast is not None)
                while True:
                    rows = [rng.randrange(1 << len(g)) for g in d.space.grids]
                    try:
                        hit = posterior_no_disclosure(
                            d, team_rule(equilibrium._pure_profile(d.space, rows), proto)
                        )
                    except OffPathPosterior:
                        continue
                    break
                fast = equilibrium._consistency_witness(hit, d, proto)
                assert fast is not None
                assert fast == consistency_witness_by_profiles(hit, d, proto)
        assert plausible == {True, False}
        assert blocks >= 4

    def test_plausibility_witness_is_the_least_row(self):
        # many small sparse draws, where one prefix often has several least
        # rows, one per minimal winning coalition: the scan must return the
        # smallest, as the one-profile-at-a-time twin does
        rng = random.Random(89)
        for _ in range(60):
            sizes = rng.choice([(2, 3), (3, 2), (3, 3), (2, 2, 3), (2, 3, 3)])
            d = sparse_dist(rng, sizes)
            for proto in all_protocols(len(sizes)):
                fast = equilibrium._plausibility_witness(d, proto)
                assert fast == plausibility_witness_by_profiles(d, proto)
                if fast is not None:
                    assert_plausibility_confirmed(d, proto, fast)

    def test_integer_check_rejects_always_disclose(self):
        # every member votes 1 everywhere: nothing is concealed, so the rows
        # witness neither scan, whatever the target
        rng = random.Random(97)
        for d, protos in oracle_cases(rng):
            rows = [(1 << len(g)) - 1 for g in d.space.grids]
            for proto in protos:
                assert not equilibrium._witness_holds(d, proto, rows)
                assert not equilibrium._witness_holds(d, proto, rows, d.mean_vector)
                assert not plausibility_confirmed_by_fractions(d, proto, rows)
                assert not consistency_confirmed_by_fractions(d.mean_vector, d, proto, rows)

    def test_integer_check_rejects_a_changed_last_row(self):
        # each returned witness with the last member's row changed to every
        # other row: the integer check agrees with its Fraction twin, and
        # rejects some of them
        rng = random.Random(101)
        rejected = {"consistency": 0, "plausibility": 0}
        for d, protos in oracle_cases(rng):
            profiles = list(deterministic_profiles(d.space))
            for proto in protos:
                while True:
                    rule = team_rule(rng.choice(profiles), proto)
                    if any(v == 0 and p > 0 for v, p in zip(rule.values, d.probs)):
                        break
                target = posterior_no_disclosure(d, rule)
                witness = equilibrium._consistency_witness(target, d, proto)
                for m in range(1 << len(d.space.grids[-1])):
                    if m == witness[-1]:
                        continue
                    rows = witness[:-1] + (m,)
                    holds = equilibrium._witness_holds(d, proto, rows, target)
                    assert holds == consistency_confirmed_by_fractions(target, d, proto, rows)
                    rejected["consistency"] += not holds
                witness = equilibrium._plausibility_witness(d, proto)
                if witness is None:
                    continue
                for m in range(1 << len(d.space.grids[-1])):
                    if m == witness[-1]:
                        continue
                    rows = witness[:-1] + (m,)
                    holds = equilibrium._witness_holds(d, proto, rows)
                    assert holds == plausibility_confirmed_by_fractions(d, proto, rows)
                    rejected["plausibility"] += not holds
        assert min(rejected.values()) > 10, rejected

    def test_scans_raise_when_pivot_drops_a_coalition(self, monkeypatch):
        # the 4-cycle protocol {1,2}, {1,4}, {2,3}, {3,4} with {1,4} missing
        # from pivot: kept reads only coalitions without the last member, so
        # the block kernel's blocks are those of the protocol without {1,4},
        # and both scans take a profile for a witness that its rows do not
        # justify
        d = uniform_binary(4)
        proto = make_protocol(4, [(1, 2), (1, 4), (2, 3), (3, 4)])
        reduced = make_protocol(4, [(1, 2), (2, 3), (3, 4)])
        profile = equilibrium._pure_profile(d.space, (1, 1, 1, 1))
        target = posterior_no_disclosure(d, team_rule(profile, reduced))
        assert not consistent_with_deliberation(target, d, proto)
        assert not plausible_full_disclosure_by_search(d, proto)
        blocks = equilibrium._blocks
        monkeypatch.setattr(equilibrium, "_blocks", lambda state, protocol: blocks(state, reduced))
        with pytest.raises(AssertionError, match="integer scan disagrees"):
            consistent_with_deliberation(target, d, proto)
        with pytest.raises(AssertionError, match="integer scan disagrees"):
            plausible_full_disclosure_by_search(d, proto)


class TestPivotOracle:
    """verify_equilibrium's bitmask pivot test against two multilinear
    evaluations per (cell, coalition)."""

    def test_reports_match_evaluate_loop(self):
        rng = random.Random(79)
        weights = (F(0), F(1, 3), F(1, 2), F(1))
        cases = [(2, all_protocols(2)), (3, all_protocols(3))]
        cases.append((4, [make_k_majority(4, k) for k in range(1, 5)]))
        violations = 0
        for n, protos in cases:
            for _ in range(3):
                d = sparse_dist(rng, [rng.choice((2, 3)) if n < 4 else 2 for _ in range(n)])
                for proto in protos:
                    for _ in range(2):
                        profile = StrategyProfile.from_votes(
                            d.space, [[rng.choice(weights) for _ in g] for g in d.space.grids]
                        )
                        post = [rng.choice(g) + rng.choice((0, F(1, 2))) for g in d.space.grids]
                        report = verify_equilibrium(profile, post, d, proto)
                        assert report == verify_equilibrium_by_evaluate(profile, post, d, proto)
                        violations += len(report.violations)
        assert violations > 100


def threshold_profile(rng, space, post):
    """Votes 1 above each member's posterior, 0 below it and a random weight
    at it: no member position gains from a vote it does not cast."""
    weights = (F(0), F(1, 3), F(1, 2), F(1))
    return [
        [F(1) if x > p else F(0) if x < p else rng.choice(weights) for x in g]
        for g, p in zip(space.grids, post)
    ]


def flagged_positions(space, rows, post):
    return [
        (i, j)
        for i, (g, p, row) in enumerate(zip(space.grids, post, rows))
        for j, (x, v) in enumerate(zip(g, row))
        if (x > p and v < 1) or (x < p and v > 0)
    ]


class TestVerifyPrescreen:
    """verify_equilibrium skips its cell loop when no member position is
    flagged (above the posterior voting below 1, or below it voting above 0);
    against the evaluate loop on threshold profiles and on profiles with one
    flagged position."""

    def cases(self, seed):
        rng = random.Random(seed)
        cases = [(2, all_protocols(2)), (3, all_protocols(3))]
        cases.append((4, [make_k_majority(4, k) for k in range(1, 5)]))
        for n, protos in cases:
            for _ in range(3):
                d = sparse_dist(rng, [rng.choice((2, 3)) if n < 4 else 2 for _ in range(n)])
                for proto in protos:
                    post = [rng.choice(g) + rng.choice((0, F(1, 2))) for g in d.space.grids]
                    yield rng, d, proto, post, threshold_profile(rng, d.space, post)

    def test_threshold_profiles(self):
        count = 0
        for _, d, proto, post, rows in self.cases(239):
            assert flagged_positions(d.space, rows, post) == []
            profile = StrategyProfile.from_votes(d.space, rows)
            report = verify_equilibrium(profile, post, d, proto)
            assert report == verify_equilibrium_by_evaluate(profile, post, d, proto)
            assert not any(v.kind == "deviation" for v in report.violations)
            count += 1
        assert count > 50

    def test_one_flagged_position(self):
        deviations = mixed = 0
        for rng, d, proto, post, rows in self.cases(241):
            off = [
                (i, j)
                for i, (g, p) in enumerate(zip(d.space.grids, post))
                for j, x in enumerate(g)
                if x != p
            ]
            i, j = rng.choice(off)
            vote = rng.choice((F(1, 2), F(0) if d.space.grids[i][j] > post[i] else F(1)))
            rows[i][j] = vote
            mixed += vote == F(1, 2)
            assert flagged_positions(d.space, rows, post) == [(i, j)]
            profile = StrategyProfile.from_votes(d.space, rows)
            report = verify_equilibrium(profile, post, d, proto)
            assert report == verify_equilibrium_by_evaluate(profile, post, d, proto)
            deviations += any(v.kind == "deviation" for v in report.violations)
        assert mixed > 10 and deviations > 20


class TestPlausibility:
    def test_k_majority_examples(self):
        d2 = uniform_binary(2)
        assert not full_disclosure_is_plausible(d2, make_consensus(2))
        d4 = uniform_binary(4)
        assert full_disclosure_is_plausible(d4, make_k_majority(4, 2))
        assert not full_disclosure_is_plausible(d4, make_k_majority(4, 3))

    def test_majority_of_three_is_plausible(self):
        # 2-of-3: the pair {1,2} can force disclosure and no strict subgroup
        # blocks it, so beliefs skeptical about that pair survive the search
        d = uniform_binary(3)
        assert full_disclosure_is_plausible(d, make_k_majority(3, 2))
        assert plausible_full_disclosure_by_search(d, make_k_majority(3, 2))

    def test_predicate_matches_search(self):
        rng = random.Random(29)
        for n in (2, 3):
            for _ in range(6):
                d = random_dist(rng, n, sizes=(2,))
                for proto in all_protocols(n):
                    assert full_disclosure_is_plausible(d, proto) == (
                        plausible_full_disclosure_by_search(d, proto)
                    )

    def test_search_shortcut_matches_generic_verifier(self):
        # the always-disclose support test inside the search is a specialized
        # encoding of the generic deviation check; cross-validate the two
        rng = random.Random(31)
        space = binary_space(2)
        d = uniform_binary(2)
        all_ones = StrategyProfile.constant(space, 1)
        for proto in all_protocols(2):
            blocking = [
                [i for i in range(2) if mask >> i & 1]
                for mask in range(1, 4)
                if not proto.wins(3 ^ mask)
            ]
            for _ in range(20):
                post = [F(rng.randint(0, 4), 4) for _ in range(2)]
                fast = all(any(post[i] <= 0 for i in grp) for grp in blocking)
                generic = verify_equilibrium(all_ones, post, d, proto).ok
                assert fast == generic


class TestExistenceSweep:
    def test_small_existence_sweep(self):
        rng = random.Random(37)
        for n in (2, 3):
            protos = all_protocols(n)
            for _ in range(4):
                d = random_dist(rng, n)
                for proto in protos:
                    eqs = find_equilibria(d, proto)
                    assert any(all(v == 1 for v in e.rule.values) for e in eqs)
                    partial = [e for e in eqs if e.classification != FULL]
                    assert bool(partial) == (not proto.all_unilateral)
                    if not proto.any_unilateral:
                        assert all(e.classification == INTERIOR for e in partial)
                    else:
                        assert not any(e.classification == INTERIOR for e in eqs)
                    assert all(e.verification.ok for e in eqs)


class TestTwoMemberTaxonomy:
    def test_equilibrium_types_by_protocol_type(self):
        # two members admit three protocol types; each pins its equilibrium menu
        d = uniform_binary(2)
        menus = {}
        for proto in all_protocols(2):
            kinds = tuple(sorted(e.classification for e in find_equilibria(d, proto)))
            n_unilateral = sum(proto.can_unilaterally_disclose(i) for i in (1, 2))
            menus.setdefault(n_unilateral, set()).add(kinds)
        assert menus[2] == {("full", "full")}
        assert menus[1] == {("full", "partial")}
        assert menus[0] == {("full", "interior")}


class TestSearchCompleteness:
    def test_every_deterministic_equilibrium_rule_is_returned(self):
        # independent completeness oracle: enumerate all deterministic
        # own-outcome profiles, keep the ones that verify as equilibria with
        # their Bayes posteriors, and require each such team rule to appear in
        # the exhaustive search's output (threshold equivalence preserves rules)
        from itertools import product as iproduct
        from team_disclosure.outcomes import OffPathPosterior

        rng = random.Random(67)
        checked = 0
        for n in (2, 3):
            protos = all_protocols(n)
            for _ in range(3):
                d = random_dist(rng, n, sizes=(2,))
                space = d.space
                per_member = [
                    [tuple(map(F, bits)) for bits in iproduct((0, 1), repeat=len(g))]
                    for g in space.grids
                ]
                for proto in protos:
                    found = {e.rule.values for e in find_equilibria(d, proto)}
                    for rows in iproduct(*per_member):
                        profile = StrategyProfile(space, rows)
                        rule = team_rule(profile, proto)
                        try:
                            post = posterior_no_disclosure(d, rule)
                        except OffPathPosterior:
                            continue
                        if verify_equilibrium(profile, post, d, proto).ok:
                            checked += 1
                            assert rule.values in found
        assert checked > 50


class TestRulesFixConfigurations:
    def test_posteriors_imply_the_cuts_and_rules_are_distinct(self):
        # the search keeps every verified candidate without a dedup key: a
        # rule fixes its Bayes posterior, and the posterior fixes the
        # configuration (an atom at p exactly where it equals x_p, a gap at c
        # exactly where it lies strictly between x_{c-1} and x_c), so no two
        # configurations of one search share a rule
        from bisect import bisect_left

        rng = random.Random(113)
        cases = [
            (random_dist(rng, n, sizes=(2, 3, 4)), proto)
            for n, draws in ((2, 20), (3, 10), (4, 3))
            for _ in range(draws)
            for proto in all_protocols(n)
        ]
        on_path = atoms = 0
        for d, proto in cases:
            eqs = find_equilibria(d, proto)
            assert len({e.rule.values for e in eqs}) == len(eqs)
            for e in eqs:
                if e.off_path:
                    continue
                on_path += 1
                implied = []
                for grid, post in zip(d.space.grids, e.posteriors):
                    cut = bisect_left(grid, post)
                    atom = cut if cut < len(grid) and grid[cut] == post else None
                    implied.append((cut + (atom is not None), atom))
                assert [(c.cut, c.atom_pos) for c in e.cuts] == implied
                atoms += any(c.atom_pos is not None for c in e.cuts)
        assert len(cases) == 758 and on_path > len(cases) and atoms > 300


def fractional_dist(rng, n, sizes):
    """Full-support pmf on grids of distinct fractions with mixed denominators."""
    grids = []
    for _ in range(n):
        size = rng.choice(sizes)
        values = set()
        while len(values) < size:
            values.add(F(rng.randint(0, 20), rng.choice((1, 2, 3, 7))))
        grids.append(sorted(values))
    space = make_space(grids)
    nums = [rng.randint(1, 20) for _ in space.cells]
    return JointDistribution(space, tuple(F(x, sum(nums)) for x in nums))


@pytest.fixture(scope="class")
def screened_searches():
    """Seeded searches and their reports: every protocol for two and three
    members, k-majority for four, on 2- to 5-value grids, plus the uniform
    {0..4} grid under k_majority:4,2."""
    rng = random.Random(107)
    cases = []
    for n, draws in ((2, 8), (3, 3)):
        for j in range(draws):
            draw = random_dist if j % 2 else fractional_dist
            d = draw(rng, n, sizes=(2, 3, 4, 5))
            cases += [(d, proto) for proto in all_protocols(n)]
    for sizes in ((2,), (3,), (4,)):
        d = fractional_dist(rng, 4, sizes)
        cases += [(d, make_k_majority(4, k)) for k in range(1, 5)]
    space = make_space([range(5)] * 4)
    uniform = JointDistribution(space, tuple(F(1, len(space.cells)) for _ in space.cells))
    cases.append((uniform, make_k_majority(4, 2)))
    return [(d, proto, find_equilibria_report(d, proto)) for d, proto in cases]


def screen_cases(kind):
    """Searches on which the screened and unscreened configurations must
    agree: every 2- and 3-member protocol on 8 seeded draws each, or three
    iid 4-member instances under k_majority:4,2 whose searches leave
    configurations unresolved."""
    if kind == "protocols":
        rng = random.Random(109)
        return [
            (d, proto)
            for n in (2, 3)
            for d in [random_distribution(rng, n) for _ in range(8)]
            for proto in all_protocols(n)
        ]
    marginals = [
        {v: F(1, 5) for v in range(5)},
        {1: F(1, 12), 4: F(5, 12), 7: F(6, 12)},
        {0: F(1, 6), 1: F(2, 6), 5: F(2, 6), 6: F(1, 6)},
    ]
    return [(independent([m] * 4), make_k_majority(4, 2)) for m in marginals]


class TestCornerScreen:
    """The corner sign screen in front of the atom solver, and the single
    verification of each candidate, against the unscreened search."""

    def test_matches_unscreened_search(self, screened_searches):
        shapes = set()
        for d, proto, report in screened_searches:
            assert report == find_equilibria_report_unscreened(d, proto)
            shapes |= {e.classification for e in report[0]}
        assert shapes == {FULL, PARTIAL, INTERIOR}

    @pytest.mark.parametrize("kind", ["protocols", "iid"])
    def test_screen_keeps_every_equilibrium(self, monkeypatch, kind):
        cases = screen_cases(kind)
        screened = [find_equilibria_report(d, proto) for d, proto in cases]
        monkeypatch.setattr(equilibrium, "_cut_configs", unscreened_search_configs)
        assert [find_equilibria_report(d, proto) for d, proto in cases] == screened

    @pytest.mark.parametrize("kind", ["protocols", "iid"])
    def test_cached_full_disclosure_entry(self, kind):
        """The full-disclosure entry, built and verified once per
        distribution, is what ``verify_equilibrium`` and its Fraction twin
        report under each protocol, and every search on the distribution
        returns that one object."""
        for d, proto in screen_cases(kind):
            entry = d._search.full_disclosure
            assert entry.profile == StrategyProfile.constant(d.space, 1)
            assert entry.rule == team_rule(entry.profile, proto)
            assert entry.posteriors == d.space.min_vector
            assert (entry.classification, entry.off_path) == (FULL, True)
            fresh = verify_equilibrium(entry.profile, entry.posteriors, d, proto)
            assert entry.verification == fresh
            assert fresh == verify_equilibrium_by_evaluate(entry.profile, entry.posteriors, d, proto)
            eqs, _ = find_equilibria_report(d, proto)
            assert sum(e is entry for e in eqs) == 1

    def test_rejected_configurations_have_no_solution(self, screened_searches):
        rejected = kept = 0
        for d, proto, _ in screened_searches:
            ctx = _build_context(d, proto)
            survivors = set(_cut_configs(ctx))
            for config in unscreened_configs(ctx):
                if config in survivors:
                    kept += 1
                    continue
                rejected += 1
                solver = _AtomSolver(ctx.state.grid_ints, config, ctx.corners(config))
                assert solver.solve() is None and not solver.unresolved
        assert rejected > kept > 0

    def test_every_kept_configuration_is_solved(self):
        """The screen is sharp on every 2- and 3-member protocol: each
        configuration it keeps has a solution, so the solver rejects none,
        and 200 of those that pass the needs on the whole box are dropped."""
        kept = dropped = 0
        for d, proto in screen_cases("protocols"):
            ctx = _build_context(d, proto)
            survivors = list(_cut_configs(ctx))
            for config in survivors:
                assert _AtomSolver(ctx.state.grid_ints, config, ctx.corners(config)).solve() is not None
            kept += len(survivors)
            dropped += len(screened_configs_by_product(ctx, zero_set=False)) - len(survivors)
        assert (kept, dropped) == (178, 200)

    def test_zero_set_drops_only_configurations_without_solution(self):
        """On an iid 4-member draw on a 4-value grid, under every protocol,
        each configuration that passes the needs on the whole box but not on
        its zero set has no solution, and the solver proves it."""
        rng = random.Random(3)
        grid = sorted(rng.sample(range(9), 4))
        nums = [rng.randint(1, 6) for _ in grid]
        d = independent([{x: F(k, sum(nums)) for x, k in zip(grid, nums)}] * 4)
        dropped = 0
        for proto in all_protocols(4):
            ctx = _build_context(d, proto)
            survivors = set(_cut_configs(ctx))
            for config in screened_configs_by_product(ctx, zero_set=False):
                if config in survivors:
                    continue
                dropped += 1
                solver = _AtomSolver(ctx.state.grid_ints, config, ctx.corners(config))
                assert solver.solve() is None and not solver.unresolved
        assert dropped > 1000

    def test_walk_matches_product_filter(self, screened_searches):
        """The pruned walk yields what the filter over the whole product
        keeps, in the same order, on the screened searches and on two more
        4-member draws on 5-value grids."""
        rng = random.Random(113)
        cases = [(d, proto) for d, proto, _ in screened_searches]
        for d in [fractional_dist(rng, 4, (5,)) for _ in range(2)]:
            cases += [(d, make_k_majority(4, k)) for k in range(1, 5)]
        kept = 0
        for d, proto in cases:
            ctx = _build_context(d, proto)
            survivors = list(_cut_configs(ctx))
            assert survivors == screened_configs_by_product(ctx)
            kept += len(survivors)
        assert kept > 0

    def test_configurations_with_no_atom_need_no_solver(self, screened_searches):
        """The search takes each configuration with no atom that the screen
        keeps as solved with no weights, without the solver; the solver
        solves each of them with no weights too, so its report is the one
        the solver would give."""
        taken = 0
        for d, proto, _ in screened_searches:
            ctx = _build_context(d, proto)
            for config in _cut_configs(ctx):
                box = ctx.corners(config)
                if len(box) == 1:
                    assert _AtomSolver(ctx.state.grid_ints, config, box).solve() == {}
                    taken += 1
        assert taken > 40

    def test_corner_posteriors_are_bayes_posteriors(self, screened_searches):
        """Every on-path equilibrium's posterior, which the search reads
        from its configuration's corner entries, is the Bayes posterior of
        its rule, at two, three and four members, with atoms and without."""
        seen = set()
        for d, proto, (eqs, _) in screened_searches:
            for e in eqs:
                if not e.off_path:
                    assert e.posteriors == posterior_no_disclosure(d, e.rule)
                    seen.add((d.space.n, any(c.atom_pos is not None for c in e.cuts)))
        assert seen == {(n, atoms) for n in (2, 3, 4) for atoms in (False, True)}

    def test_verification_is_reproduced(self, screened_searches):
        on_path = 0
        for d, proto, (eqs, _) in screened_searches:
            for e in eqs:
                fresh = verify_equilibrium(e.profile, e.posteriors, d, proto)
                assert e.verification == fresh
                assert fresh == verify_equilibrium_by_evaluate(e.profile, e.posteriors, d, proto)
                on_path += not e.off_path
        assert on_path > 50

    def test_positional_vote_vectors(self):
        # team_rule reads each member's votes by grid position
        space = make_space([[F(1, 3), F(1, 2), F(7, 4)], [F(-2), F(1, 3)]])
        profile = StrategyProfile.from_votes(space, [[0, F(2, 5), 1], [F(1, 7), 1]])
        for proto in all_protocols(2):
            assert team_rule(profile, proto) == team_rule_by_evaluate(profile, proto)
