import random
from fractions import Fraction
from itertools import product

import pytest

from team_disclosure.equilibrium import TeamRule
from team_disclosure.incentives import _nd_stats
from team_disclosure.outcomes import (
    JointDistribution,
    OffPathPosterior,
    OutcomeError,
    binary_independent,
    binary_space,
    common_mixture,
    common_outcome_mixture,
    comonotone,
    conditional,
    fosd_dominates,
    fosd_dominates_everywhere,
    from_pmf,
    make_space,
    marginal,
    mix,
    more_correlated,
    posterior_no_disclosure,
)

from oracles import fosd_bruteforce, fosd_everywhere_bruteforce, posterior_by_enumeration

F = Fraction


def random_dist(rng, n, sizes=(2, 3), numerator_max=20):
    grids = [sorted(rng.sample(range(0, 9), rng.choice(sizes))) for _ in range(n)]
    space = make_space(grids)
    nums = [rng.randint(1, numerator_max) for _ in space.cells]
    den = sum(nums)
    return JointDistribution(space, tuple(F(x, den) for x in nums))


class TestSpacesAndDistributions:
    def test_grid_must_increase(self):
        with pytest.raises(OutcomeError):
            make_space([[1, 0], [0, 1]])
        with pytest.raises(OutcomeError):
            make_space([[0], [0, 1]])

    def test_pmf_must_sum_to_one(self):
        space = binary_space(2)
        with pytest.raises(OutcomeError):
            JointDistribution(space, (F(1, 4),) * 3 + (F(1, 3),))

    def test_validation_messages(self):
        space = binary_space(2)
        for probs, message in [
            ((F(1, 2), F(1, 2), F(0)), "pmf length does not match the cell count"),
            ((F(1, 2), F(1, 2), F(1, 4), F(-1, 4)), "probabilities must be nonnegative"),
            ((F(1, 4), F(1, 4), F(1, 4), F(1, 3)), "probabilities must sum to exactly 1"),
            ((F(1, 4), F(1, 4), F(1, 4), F(1, 5)), "probabilities must sum to exactly 1"),
        ]:
            with pytest.raises(OutcomeError) as err:
                JointDistribution(space, probs)
            assert str(err.value) == message

    def test_integer_validation_agrees_with_fraction_checks(self):
        # signs read from numerators and the sum read over the lcm of the
        # denominators accept and refuse what the Fraction comparisons do,
        # with the first failing check's message; full_support agrees too
        rng = random.Random(29)
        space = make_space([[0, 1, 2]] * 3)
        seen = set()
        for _ in range(300):
            dens = [rng.choice((1, 2, 3, 5, 7, 12, 1009)) for _ in space.cells]
            probs = [F(rng.randint(0, 9), den) for den in dens]
            total = sum(probs) or F(1)
            probs = [p / total for p in probs]
            kind = rng.randrange(3)
            if kind == 1:
                at = rng.randrange(len(probs))
                probs[at] += F(rng.choice((-1, 1)), rng.choice((3, 1009, 10**12)))
            elif kind == 2:
                at, other = rng.sample(range(len(probs)), 2)
                shift = F(1, rng.choice((2, 7, 1009)))
                probs[at] -= shift
                probs[other] += shift
            if any(p < 0 for p in probs):
                expected = "probabilities must be nonnegative"
            elif sum(probs) != 1:
                expected = "probabilities must sum to exactly 1"
            else:
                expected = None
            try:
                d = JointDistribution(space, tuple(probs))
            except OutcomeError as exc:
                got = str(exc)
            else:
                got = None
                assert d.full_support == all(p > 0 for p in probs)
            assert got == expected
            seen.add(expected)
        assert seen == {None, "probabilities must be nonnegative", "probabilities must sum to exactly 1"}

    def test_from_pmf_sums_repeated_keys_and_rejects_off_grid_outcomes(self):
        space = make_space([[0, F(1, 2)], [1, 2]])
        # ("1/2", 2) and (Fraction(1, 2), 2.0) name one cell, so their masses add up
        d = from_pmf(space, {(0, 1): F(1, 2), ("1/2", 2): F(1, 4), (F(1, 2), 2.0): F(1, 4)})
        assert d.probs == (F(1, 2), 0, 0, F(1, 2))
        with pytest.raises(OutcomeError) as err:
            from_pmf(space, {(0, 1): F(1, 2), (1, 2): F(1, 2)})
        assert str(err.value) == "outcome 1,2 is not on the grid"

    def test_full_support_flag(self):
        assert binary_independent([F(1, 2), F(1, 2)]).full_support
        g = comonotone([0, 1], [F(1, 2), F(1, 2)], 2)
        assert not g.full_support


class TestMarginalConditional:
    def test_marginal_of_independent_pair(self):
        d = binary_independent([F(1, 2), F(1, 2)])
        m = marginal(d, [1])
        assert m.probs == (F(1, 2), F(1, 2))

    def test_marginal_uniform_pair(self):
        space = binary_space(2)
        d = from_pmf(space, {(0, 0): F(1, 4), (0, 1): F(1, 4), (1, 0): F(1, 4), (1, 1): F(1, 4)})
        assert marginal(d, [2]).probs == (F(1, 2), F(1, 2))

    def test_marginal_matches_hand_enumeration(self):
        d = common_mixture(3, F(1, 3), F(2, 5), F(1, 2))
        m = marginal(d, [1, 2])
        # direct sum over the third member, cell by cell
        expected = {}
        for cell, p in zip(d.space.cells, d.probs):
            expected[cell[:2]] = expected.get(cell[:2], F(0)) + p
        for cell, p in zip(m.space.cells, m.probs):
            assert expected[cell] == p
        assert sum(m.probs) == 1

    def test_marginal_needs_members(self):
        d = binary_independent([F(1, 2), F(1, 2)])
        with pytest.raises(OutcomeError):
            marginal(d, [])

    def test_conditional_independent_is_marginal(self):
        d = binary_independent([F(1, 3), F(2, 3)])
        c = conditional(d, {1: 1})
        assert c.probs == marginal(d, [2]).probs

    def test_conditional_comonotone_degenerate(self):
        d = common_mixture(2, 1 - F(1, 10**9), F(1, 2), F(1, 2))  # almost pure common draw
        c = conditional(common_outcome_mixture(F(1), F(1, 2), [F(1, 2), F(1, 2)]), {1: 1})
        assert c.prob([1]) == 1

    def test_conditional_mixture_by_enumeration(self):
        d = common_mixture(2, F(1, 2), F(1, 2), F(1, 2))
        c = conditional(d, {1: 1})
        joint_11 = d.prob([1, 1])
        total_1 = d.prob([1, 0]) + d.prob([1, 1])
        assert c.prob([1]) == joint_11 / total_1

    def test_conditional_off_grid(self):
        d = binary_independent([F(1, 2), F(1, 2)])
        with pytest.raises(OutcomeError):
            conditional(d, {1: F(1, 2)})


class TestFosd:
    def test_point_mass_at_max_dominates(self):
        space = make_space([[0, 1, 2], [0, 3]])
        top = from_pmf(space, {(2, 3): F(1)})
        rng = random.Random(1)
        for _ in range(10):
            nums = [rng.randint(1, 9) for _ in space.cells]
            den = sum(nums)
            other = JointDistribution(space, tuple(F(x, den) for x in nums))
            assert fosd_dominates(top, other)

    def test_reflexive_but_not_strict(self):
        d = binary_independent([F(1, 3), F(1, 2)])
        assert fosd_dominates(d, d)
        assert not fosd_dominates(d, d, strict=True)

    def test_two_by_two_upper_cell(self):
        space = binary_space(2)
        f = from_pmf(space, {(1, 1): F(2, 5), (1, 0): F(1, 5), (0, 1): F(1, 5), (0, 0): F(1, 5)})
        g = from_pmf(space, {(1, 1): F(1, 4), (1, 0): F(1, 4), (0, 1): F(1, 4), (0, 0): F(1, 4)})
        assert fosd_dominates(f, g, strict=True)
        assert not fosd_dominates(g, f)

    # one-member spaces, binary 2- and 3-member spaces, the 4x4 and 3x5 grids,
    # and three-member spaces of up to 12 cells
    SHAPES = [(2,), (3,), (5,), (2, 2), (2, 3), (2, 2, 2), (4, 4), (3, 5), (2, 2, 3), (2, 3, 2)]

    def test_matches_bruteforce_small(self):
        rng = random.Random(2)
        grid_values = [F(-1), F(0), F(1, 3), F(1), F(5, 2), F(4)]
        seen = set()
        for _ in range(400):
            sizes = rng.choice(self.SHAPES)
            space = make_space([grid_values[: s] for s in sizes])
            zeros = rng.random() < 0.4  # some zero-probability cells
            g = _draw(rng, space, zeros)
            kind = rng.choice(("shuffle", "draw", "lift", "move", "equal"))
            if kind == "shuffle":
                f = JointDistribution(space, tuple(_shuffled(rng, g.probs)))
            elif kind == "draw":
                f = _draw(rng, space, zeros)
            elif kind == "lift":  # part of g's mass moved to the top cell
                eps = F(rng.randint(1, 9), 10)
                f_probs = [(1 - eps) * p for p in g.probs]
                f_probs[-1] += eps
                f = JointDistribution(space, tuple(f_probs))
            elif kind == "move":  # one cell's mass moved to a cell above it
                src = rng.randrange(len(space.cells))
                dst = rng.choice(
                    [j for j, c in enumerate(space.cells)
                     if all(a >= b for a, b in zip(c, space.cells[src]))]
                )
                moved = g.probs[src]
                f_probs = list(g.probs)
                f_probs[src] -= moved
                f_probs[dst] += moved
                f = JointDistribution(space, tuple(f_probs))
            else:
                f = g
            cells = space.cells
            weak = fosd_bruteforce(cells, f.probs, g.probs)
            strict = fosd_bruteforce(cells, f.probs, g.probs, strict=True)
            everywhere = fosd_everywhere_bruteforce(cells, f.probs, g.probs)
            assert fosd_dominates(f, g) == weak
            assert fosd_dominates(f, g, strict=True) == strict
            assert fosd_dominates_everywhere(f, g) == everywhere
            seen.add((len(sizes), weak, strict, everywhere))
        # every answer pattern shows up for one, two and three members
        for n in (1, 2, 3):
            for answers in ((False, False, False), (True, False, False),
                            (True, True, False), (True, True, True)):
                assert (n, *answers) in seen

    def test_flow_path_matches_enumeration(self):
        # 16 cells on 3 members, and a top-heavy mixture for genuine dominance;
        # the oracle enumerates upper sets directly
        rng = random.Random(3)
        space = make_space([[0, 1], [0, 1], [0, 1, 2, 3]])
        assert len(space.cells) == 16
        checked_true = 0
        for _ in range(12):
            nums_f = [rng.randint(1, 9) for _ in space.cells]
            f = JointDistribution(space, tuple(F(x, sum(nums_f)) for x in nums_f))
            top = from_pmf(space, {(1, 1, 3): F(9, 10), (0, 0, 0): F(1, 10)})
            shifted = mix(f, top, F(1, 3))
            nums_g = [rng.randint(1, 9) for _ in space.cells]
            g = JointDistribution(space, tuple(F(x, sum(nums_g)) for x in nums_g))
            for a, b in ((f, g), (g, f), (shifted, f), (f, shifted)):
                expected = fosd_bruteforce(space.cells, a.probs, b.probs)
                assert fosd_dominates(a, b) == expected
                checked_true += expected
        assert checked_true > 0  # the mixture pairs give genuine dominance cases

    def test_flow_everywhere_matches_enumeration(self):
        rng = random.Random(9)
        space = make_space([[0, 1], [0, 1], [0, 1, 2, 3]])
        base = [rng.randint(1, 9) for _ in space.cells]
        f0 = JointDistribution(space, tuple(F(x, sum(base)) for x in base))
        top = from_pmf(space, {(1, 1, 3): F(1)})
        for eps in (F(1, 7), F(2, 5)):
            f = mix(f0, top, eps)
            assert fosd_dominates_everywhere(f, f0) == fosd_everywhere_bruteforce(
                space.cells, f.probs, f0.probs
            )
        assert not fosd_dominates_everywhere(f0, f0)

    def test_transitive_on_mixture_chain(self):
        base = binary_independent([F(2, 5), F(2, 5)])
        top = from_pmf(binary_space(2), {(1, 1): F(4, 5), (0, 0): F(1, 5)})
        lo = mix(base, top, F(1, 10))
        mid = mix(base, top, F(1, 2))
        hi = mix(base, top, F(9, 10))
        assert fosd_dominates(top, base)
        assert fosd_dominates(mid, lo) and fosd_dominates(hi, mid) and fosd_dominates(hi, lo)

    def test_strict_everywhere(self):
        f = binary_independent([F(3, 5), F(3, 5)])
        g = binary_independent([F(2, 5), F(2, 5)])
        assert fosd_dominates_everywhere(f, g)
        assert not fosd_dominates_everywhere(f, f)


class TestMoreCorrelated:
    def test_reflexive(self):
        d = common_mixture(2, F(1, 4), F(1, 2), F(1, 2))
        assert more_correlated(d, d)

    def test_common_weight_orders(self):
        lo = common_mixture(3, F(1, 5), F(2, 5), F(2, 5))
        hi = common_mixture(3, F(2, 5), F(2, 5), F(2, 5))
        assert more_correlated(hi, lo)
        assert not more_correlated(lo, hi)

    def test_unequal_marginals_rejected(self):
        a = binary_independent([F(1, 2), F(1, 2)])
        b = binary_independent([F(1, 3), F(1, 2)])
        with pytest.raises(OutcomeError):
            more_correlated(a, b)

    def test_non_binary_rejected(self):
        space = make_space([[0, 1, 2], [0, 1, 2]])
        d = JointDistribution(space, tuple(F(1, 9) for _ in range(9)))
        with pytest.raises(OutcomeError):
            more_correlated(d, d)


class TestMix:
    def test_zero_weight_is_left_argument(self):
        f = binary_independent([F(1, 3), F(1, 2)])
        g = comonotone([0, 1], [F(1, 2), F(1, 2)], 2)
        assert mix(f, g, 0).probs == f.probs

    def test_half_mix_arithmetic(self):
        space = binary_space(2)
        f = JointDistribution(space, (F(1, 4),) * 4)
        g = comonotone([0, 1], [F(1, 2), F(1, 2)], 2)
        mixed = mix(f, g, F(1, 2))
        assert mixed.probs == (F(3, 8), F(1, 8), F(1, 8), F(3, 8))

    def test_full_weight_on_degenerate_rejected(self):
        f = binary_independent([F(1, 2), F(1, 2)])
        g = comonotone([0, 1], [F(1, 2), F(1, 2)], 2)
        with pytest.raises(OutcomeError):
            mix(f, g, 1)


class TestPosterior:
    def test_never_disclose_gives_prior_mean(self):
        rng = random.Random(4)
        d = random_dist(rng, 2)
        rule = [F(0)] * len(d.space.cells)
        assert posterior_no_disclosure(d, rule) == d.mean_vector

    def test_consensual_binary_half(self):
        d = binary_independent([F(1, 2), F(1, 2)])
        rule = [F(1) if cell == (1, 1) else F(0) for cell in d.space.cells]
        assert posterior_no_disclosure(d, rule) == (F(1, 3), F(1, 3))

    def test_always_disclose_is_off_path(self):
        d = binary_independent([F(1, 2), F(1, 2)])
        with pytest.raises(OffPathPosterior):
            posterior_no_disclosure(d, [F(1)] * 4)

    def test_matches_enumeration_oracle(self):
        rng = random.Random(5)
        for _ in range(30):
            d = random_dist(rng, rng.choice((2, 3)))
            rule = [F(rng.randint(0, 7), 8) for _ in d.space.cells]
            if all(v == 1 for v in rule):
                rule[0] = F(0)
            post = posterior_no_disclosure(d, rule)
            for i in range(d.space.n):
                assert post[i] == posterior_by_enumeration(d.space.cells, d.probs, rule, i)

    def test_rule_on_another_space_is_refused(self):
        # a rule on (0,1)x(0,1,2) was once read cell by cell on (0,1,2)x(0,1):
        # concealing its own cell (1, 2), it gave the posterior of (2, 1)
        d = from_pmf(make_space([[0, 1, 2], [0, 1]]), {c: F(1, 6) for c in product(range(3), range(2))})
        values = (F(1),) * 5 + (F(0),)
        rule = TeamRule(make_space([[0, 1], [0, 1, 2]]), values)
        for read in (lambda r: posterior_no_disclosure(d, r), lambda r: _nd_stats(d, r, 1)):
            with pytest.raises(OutcomeError, match="different spaces"):
                read(rule)
        # a rule on an equal space, and the plain values, are read as before
        equal = TeamRule(make_space([[0, 1, 2], [0, 1]]), values)
        assert posterior_no_disclosure(d, equal) == posterior_no_disclosure(d, values) == (F(2), F(1))

    def test_posterior_in_hull(self):
        rng = random.Random(6)
        for _ in range(30):
            d = random_dist(rng, 2)
            rule = [F(rng.randint(0, 3), 4) for _ in d.space.cells]
            if all(v == 1 for v in rule):
                continue
            post = posterior_no_disclosure(d, rule)
            for i, g in enumerate(d.space.grids):
                assert g[0] <= post[i] <= g[-1]


class TestExactness:
    def test_operations_sum_to_one(self):
        rng = random.Random(8)
        for _ in range(20):
            d = random_dist(rng, 3)
            assert sum(marginal(d, [1, 3]).probs) == 1
            v = d.space.grids[0][0]
            assert sum(conditional(d, {1: v}).probs) == 1
        f = binary_independent([F(1, 7), F(3, 7)])
        g = comonotone([0, 1], [F(2, 3), F(1, 3)], 2)
        assert sum(mix(f, g, F(1, 13)).probs) == 1


def _draw(rng, space, zeros):
    nums = [rng.randint(0 if zeros else 1, 9) for _ in space.cells]
    if not any(nums):
        nums[rng.randrange(len(nums))] = 1
    return JointDistribution(space, tuple(F(x, sum(nums)) for x in nums))


def _shuffled(rng, probs):
    out = list(probs)
    rng.shuffle(out)
    return out


class TestFosdAntisymmetry:
    def test_mutual_dominance_forces_equality(self):
        rng = random.Random(10)
        for _ in range(40):
            n = rng.choice((2, 3))
            f = random_dist(rng, n, sizes=(2,))
            g = JointDistribution(f.space, tuple(_shuffled(rng, f.probs)))
            if fosd_dominates(f, g) and fosd_dominates(g, f):
                assert f.probs == g.probs
        # and a direct equal-pair check
        d = binary_independent([F(2, 5), F(3, 5)])
        assert fosd_dominates(d, d) and fosd_dominates(d, d)
