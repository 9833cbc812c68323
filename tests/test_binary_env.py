import random
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest

from team_disclosure import binary_env
from team_disclosure.audit import _high_set_rule
from team_disclosure.binary_env import (
    BinaryEnvError,
    BinaryEnvParams,
    SweepRow,
    SweepTable,
    baseline_params,
    closed_forms,
    gain_curve,
    parse_grid,
    sweep,
)
from team_disclosure.equilibrium import TeamRule
from team_disclosure.incentives import EffortModel, effort_gain
from team_disclosure.protocols import make_k_majority

import oracles
from oracles import (
    binary_branch_enumeration,
    binary_closed_forms_by_k,
    binary_gains_by_fractions,
    binary_gains_by_k,
    binary_terms_by_fractions,
    csv_by_decimal_str,
    first_argmax,
    grid_by_fractions,
    sweep_by_fractions,
)

F = Fraction


def sym(n, p, qt, q):
    return BinaryEnvParams.make(n, p, qt, q, q)


def ratios(params):
    """The arguments of a ``_terms`` pass on params: n, then the integer
    ratios of p, q_team, q_own and q_other."""
    values = (params.p, params.q_team, params.q_own, params.q_other)
    return (params.n, *(v.as_integer_ratio() for v in values))


def mean_own(params):
    """The marked member's unconditional expected outcome."""
    return params.p * params.q_team + (1 - params.p) * params.q_own


def forms_at(params, k):
    """(P(ND), P(own high and ND), E[own | ND]) at level k, read from
    ``closed_forms``."""
    return tuple(forms[k - 1] for forms in closed_forms(params))


class TestClosedForms:
    def test_worked_instance(self):
        params = sym(3, F(1, 2), F(1, 2), F(1, 2))
        assert forms_at(params, 2) == (F(1, 2), F(1, 16), F(1, 8))

    def test_worked_instance_against_branch_enumeration(self):
        pnd, hi, mean = binary_branch_enumeration(3, "1/2", "1/2", "1/2", "1/2", 2)
        assert (pnd, hi, mean) == (F(1, 2), F(1, 16), F(1, 8))

    def test_unilateral_empty_sum_convention(self):
        params = sym(4, F(1, 3), F(2, 5), F(1, 2))
        assert forms_at(params, 1)[1:] == (0, 0)

    def test_two_member_consensus_single_term(self):
        params = BinaryEnvParams.make(2, F(1, 3), F(1, 2), F(2, 5), F(1, 2))
        assert forms_at(params, 2)[1] == (1 - F(1, 3)) * F(2, 5) * F(1, 2)

    def test_no_common_branch_matches_enumeration(self):
        params = BinaryEnvParams.make(2, F(1, 10**6), F(1, 2), F(3, 10), F(1, 2))
        pnd, hi, mean = binary_branch_enumeration(2, params.p, F(1, 2), F(3, 10), F(1, 2), 2)
        assert forms_at(params, 2)[:2] == (pnd, hi)

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
                expected = binary_branch_enumeration(
                    n, params.p, params.q_team, params.q_own, params.q_other, k
                )
                assert forms_at(params, k) == expected

    def test_kernel_against_per_k_closed_forms(self, monkeypatch):
        # the integer kernel against the per-k closed forms and the Fraction
        # pass it replaced, exactly and at every k, on a /100 grid, with
        # teams up to 40 members. The per-k forms are memoised for the test,
        # so binary_gains_by_k reads the forms the loop has just computed
        per_k = lru_cache(maxsize=None)(oracles.binary_closed_forms_by_k)
        monkeypatch.setattr(oracles, "binary_closed_forms_by_k", per_k)
        rng = random.Random(67)
        sizes = list(range(2, 13)) + [20, 40]
        for _ in range(1000):
            n = rng.choice(sizes)
            full, dev = (
                BinaryEnvParams(n, *(F(rng.randint(1, 99), 100) for _ in range(4)))
                for _ in range(2)
            )
            for params in (full, dev):
                fractions = binary_terms_by_fractions(params)
                assert closed_forms(params) == fractions
                pnds, joints, means = fractions
                for k in range(1, n + 1):
                    expected = per_k(params, k)
                    assert (pnds[k - 1], joints[k - 1], means[k - 1]) == expected
            gains = gain_curve(full, dev).gains
            assert gains == binary_gains_by_k(full, dev)
            assert gains == binary_gains_by_fractions(full, dev)

    def test_closed_forms_make_one_kernel_pass(self, monkeypatch):
        # every k of a parameter set from one kernel pass, against the
        # Fraction pass
        passes = []
        kernel = binary_env._terms

        def counted(*args):
            passes.append(args)
            return kernel(*args)

        monkeypatch.setattr(binary_env, "_terms", counted)
        rng = random.Random(73)
        for _ in range(60):
            n = rng.choice((2, 3, 4, 5, 7, 10, 16))
            params = BinaryEnvParams(n, *(F(rng.randint(1, 99), 100) for _ in range(4)))
            passes.clear()
            pnds, joints, means = closed_forms(params)
            assert passes == [ratios(params)]
            assert (pnds, joints, means) == binary_terms_by_fractions(params)

    @pytest.mark.parametrize("n", [80, 160, 320])
    def test_kernel_against_fraction_pass_at_large_n(self, n):
        # mixed denominators, so the kernel's common denominator takes a
        # different factor from each parameter; the per-k closed forms, which
        # cost O(n) per k, are checked at the ends and the middle. Every k of
        # a parameter set is read from one kernel pass
        rng = random.Random(n)
        dens = (7, 100, 997, 2**10)
        full, dev = (
            BinaryEnvParams(
                n, *(F(rng.randint(1, d - 1), d) for d in rng.sample(dens, 4))
            )
            for _ in range(2)
        )
        ks = (1, 2, 3, n // 2, n - 1, n)
        for f, d in ((full, dev), baseline_params(n)):
            for params in (f, d):
                pnds, joints, means = binary_terms_by_fractions(params)
                assert closed_forms(params) == (pnds, joints, means)
                for k in ks:
                    expected = pnds[k - 1], joints[k - 1], means[k - 1]
                    assert binary_closed_forms_by_k(params, k) == expected
            gains = gain_curve(f, d).gains
            assert gains == binary_gains_by_fractions(f, d)
            assert tuple(gains[k - 1] for k in ks) == binary_gains_by_k(f, d, ks)

    @pytest.mark.parametrize("field", ["p", "q_team", "q_own", "q_other"])
    @pytest.mark.parametrize(
        "value, shown",
        [
            (F(0), "0"),
            (F(1), "1"),
            (F(-1, 2), "-1/2"),
            (F(3, 2), "3/2"),
            (0, "0"),
            (1, "1"),
            (1.5, "1.5"),
            (-0.5, "-0.5"),
        ],
    )
    def test_field_range_messages(self, field, value, shown):
        # every field is checked on its integer ratio, whatever its type
        args = dict(n=3, p=F(1, 2), q_team=F(1, 2), q_own=F(1, 2), q_other=F(1, 2))
        args[field] = value
        with pytest.raises(BinaryEnvError) as err:
            BinaryEnvParams(**args)
        assert str(err.value) == f"{field}={shown} must lie strictly inside (0,1)"

    def test_in_range_fields_and_member_count(self):
        # the constructor checks ranges only; make() turns any input into a
        # Fraction
        assert BinaryEnvParams(3, 0.5, F(1, 2), F(1, 3), F(99, 100)).p == 0.5
        made = BinaryEnvParams.make(3, 0.5, "1/2", 0.25, F(1, 3))
        assert (made.p, made.q_own) == (F(1, 2), F(1, 4))
        with pytest.raises(BinaryEnvError) as err:
            BinaryEnvParams(1, F(1, 2), F(1, 2), F(1, 2), F(1, 2))
        assert str(err.value) == "need at least 2 members"

    def test_invalid_parameters_rejected(self):
        with pytest.raises(BinaryEnvError):
            BinaryEnvParams.make(3, 0, F(1, 2), F(1, 2), F(1, 2))
        with pytest.raises(BinaryEnvError):
            BinaryEnvParams.make(3, F(1, 2), 1, F(1, 2), F(1, 2))


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
            def mean(**changes):
                return forms_at(replace(params, **changes), k)[2]

            base = mean()
            assert mean(q_other=params.q_other + h) <= base
            assert mean(p=params.p + h) <= base
            assert mean(q_own=params.q_own + h) >= base
            assert mean(q_team=params.q_team + h) >= base


class TestGain:
    def test_unilateral_gain_is_mean_shift(self):
        full = sym(4, F(1, 2), F(51, 100), F(51, 100))
        dev = sym(4, F(1, 2), F(1, 2), F(1, 2))
        assert gain_curve(full, dev).gains[0] == mean_own(full) - mean_own(dev)

    def test_partner_lift_beats_unilateral(self):
        base = sym(4, F(1, 2), F(1, 2), F(1, 2))
        full = replace(base, q_other=F(11, 20))
        gains = gain_curve(full, base).gains
        for k in range(2, 5):
            assert gains[k - 1] > gains[0]

    def test_own_lift_favors_unilateral(self):
        base = sym(4, F(1, 2), F(1, 2), F(1, 2))
        full = replace(base, q_own=F(11, 20))
        gains = gain_curve(full, base).gains
        for k in range(1, 5):
            assert gains[0] >= gains[k - 1]

    def test_interior_validity(self):
        # the interior rule's conceal mean lies strictly inside (0,1) at every
        # k >= 2; k=1 conceals only all-low outcomes and pins it at 0
        _, _, means = closed_forms(sym(5, F(1, 2), F(1, 2), F(1, 2)))
        assert means[0] == 0
        for k in range(2, 6):
            assert 0 < means[k - 1] < 1

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
            space = model.dist_of((1,) * n).space
            rule = TeamRule(space, _high_set_rule(make_k_majority(n, k), space))
            # the k-majority interior rule: disclose iff at least k draw high
            assert rule.values == tuple(F(sum(cell) >= k) for cell in space.cells)
            gain = gain_curve(full, dev).gains[k - 1]
            assert gain == effort_gain(model, rule, 1, off_path="skeptical")


class TestOptimalK:
    def test_single_point_sweep_matches_optimal_k(self):
        full, dev = baseline_params(6)
        table = sweep(full, dev, "p_dev", [F(2, 5)])
        k_from_sweep = [row.k for row in table.rows if row.is_optimal]
        assert k_from_sweep == [gain_curve(full, replace(dev, p=F(2, 5))).k_star]

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

    @pytest.mark.parametrize("axis", binary_env.SWEEP_AXES)
    def test_csv_matches_decimal_str_loop(self, axis):
        rng = random.Random(f"csv/{axis}")
        for n in (2, 10, 40):
            full, dev = (
                BinaryEnvParams(n, *(F(rng.randint(1, 99), 100) for _ in range(4)))
                for _ in range(2)
            )
            grid = sorted({F(rng.randint(1, 999), 1000) for _ in range(8)})
            table = sweep(full, dev, axis, grid)
            assert table.to_csv() == csv_by_decimal_str(table.rows)

    def test_csv_hand_built_gains(self):
        # zero, an integer gain, a negative one, one whose decimal takes
        # exponent notation and one of about 200 digits, as reduced pairs
        huge = (7**236 + 1, 3**200)
        values = (F(1, 2), F(1, 3))
        pairs = ((0, 1), (3, 1), (-2, 7), (1, 10**9), huge)
        table = SweepTable("p_dev", values, ((pairs, 2),) * 2)
        text = table.to_csv()
        assert text == csv_by_decimal_str(
            SweepRow(value, k, F(*pair), k == 2)
            for value in values
            for k, pair in enumerate(pairs, 1)
        )
        assert [row.gain for row in table.rows] == [F(*pair) for pair in pairs] * 2
        lines = text.splitlines()
        assert lines[1:5] == [
            "0.5,1,0,false,0",
            "0.5,2,3,true,3",
            "0.5,3,-0.285714285714,false,-2/7",
            "0.5,4,1E-9,false,1/1000000000",
        ]
        assert lines[10].startswith("0.333333333333,5,") and "E+" in lines[10]

    def test_grid_validation(self):
        full, dev = baseline_params(3)
        for value in (F(0), F(1)):
            with pytest.raises(BinaryEnvError, match=rf"^grid value {value} outside \(0,1\)$"):
                sweep(full, dev, "p_dev", [F(1, 2), value])
        with pytest.raises(BinaryEnvError):
            sweep(full, dev, "not_an_axis", [F(1, 2)])

    def test_member_count_refused_before_any_pass(self, monkeypatch):
        # a 10-member full profile against a 5-member deviation, refused by
        # gain_curve and by a sweep on every axis before any kernel pass
        def no_pass(*args):
            raise AssertionError("a kernel pass was made")

        monkeypatch.setattr(binary_env, "_terms", no_pass)
        monkeypatch.setattr(binary_env, "_other_half", no_pass)
        full, dev = baseline_params(10)[0], baseline_params(5)[1]
        with pytest.raises(BinaryEnvError, match="disagree on the member count"):
            gain_curve(full, dev)
        for axis in binary_env.SWEEP_AXES:
            with pytest.raises(BinaryEnvError, match="disagree on the member count"):
                sweep(full, dev, axis, [F(1, 3), F(1, 2)])

    def test_sweep_computes_the_full_effort_side_once(self, monkeypatch):
        # count kernel passes: a sweep over G points makes exactly one pass for
        # the full-effort side plus one per deviation point. The deviation's
        # q_other half is built once per sweep where q_other stays fixed, and
        # at every point on the q_other axis; nothing else is shared
        passes, halves = [], []
        kernel, other_half = binary_env._terms, binary_env._other_half

        def counted(*args):
            passes.append(args[:5])
            return kernel(*args)

        def counted_half(n, q_other):
            halves.append(F(*q_other))
            return other_half(n, q_other)

        monkeypatch.setattr(binary_env, "_terms", counted)
        monkeypatch.setattr(binary_env, "_other_half", counted_half)
        full, dev = baseline_params(12)
        grid = parse_grid("0.30:0.50:0.02")
        for axis in ("q_other_dev", "p_dev", "q_own_dev", "q_T_dev"):
            passes.clear()
            halves.clear()
            sweep(full, dev, axis, grid)
            assert len(passes) == len(grid) + 1
            assert passes.count(ratios(full)) == 1
            if axis == "q_other_dev":
                assert halves == [full.q_other, *grid]
            else:
                assert halves == [full.q_other, dev.q_other]

    def test_parse_grid_inclusive_exact(self):
        grid = parse_grid("0.30:0.50:0.02")
        assert grid[0] == F(3, 10) and grid[-1] == F(1, 2)
        assert len(grid) == 11

    def test_parse_grid_denominator_bound(self):
        bound = binary_env.MAX_GRID_DENOMINATOR
        assert parse_grid(f"1/{bound}:1/{bound}:1") == (F(1, bound),)
        assert len(parse_grid(f"0.3:0.4:1/{bound - 27}")) == 1 + (bound - 27) // 10
        for spec in (f"1/{bound + 1}:0.5:0.1", f"0:1/{bound + 1}:0.1", f"0.1:0.5:1/{bound + 1}"):
            with pytest.raises(BinaryEnvError, match="denominator"):
                parse_grid(spec)

    def test_parse_grid_point_cap_and_zero_step(self):
        # exactly MAX_GRID_POINTS points are accepted and one more refused; a
        # zero step is a bad spec, not a division by zero
        cap = binary_env.MAX_GRID_POINTS
        assert parse_grid(f"1:{cap}:1") == tuple(map(F, range(1, cap + 1)))
        with pytest.raises(BinaryEnvError, match="more than"):
            parse_grid(f"1:{cap + 1}:1")
        with pytest.raises(BinaryEnvError, match="bad grid spec"):
            parse_grid("0.1:0.5:0")

    def test_parse_grid_matches_the_fraction_loop(self):
        # start, stop and step over different denominators, as written and
        # drawn, against start + i*step in Fractions
        rng = random.Random(97)
        specs = ["1/3:0.9:1/7", "0.05:0.509:0.003", "3001/9997:0.31:1/9999", "-1/4:1/6:1/10"]
        for _ in range(40):
            dens = [rng.randint(1, 10_000) for _ in range(3)]
            start, stop = sorted(F(rng.randint(1, 3 * den), den) for den in dens[:2])
            step = F(rng.randint(1, dens[2]), dens[2])
            if (stop - start) // step < 2000:
                specs.append(f"{start}:{stop}:{step}")
        for spec in specs:
            grid = parse_grid(spec)
            assert grid == grid_by_fractions(spec)
            assert all(type(value) is F for value in grid)

    def test_parse_grid_refuses_before_any_point(self, monkeypatch):
        # the point cap and the denominator bound, in that order, before a
        # single grid point is built
        def no_point(*args):
            raise AssertionError("a grid point was built")

        monkeypatch.setattr(binary_env, "Fraction", no_point)
        bound = binary_env.MAX_GRID_DENOMINATOR
        for spec, message in (
            ("0.1:0.9:0.00001", "more than"),
            (f"1/{bound + 1}:0.9:1/{10 * bound}", "more than"),
            (f"1/{bound + 1}:0.5:0.1", "denominator"),
            (f"0.1:0.5:1/{bound + 1}", "denominator"),
        ):
            with pytest.raises(BinaryEnvError, match=message):
                parse_grid(spec)


class TestCurveKernel:
    """The integer curve kernel against the Fraction sweep loop it replaced."""

    @staticmethod
    def draw(rng, n):
        return BinaryEnvParams(n, *(F(rng.randint(1, 99), 100) for _ in range(4)))

    @pytest.mark.parametrize("axis", binary_env.SWEEP_AXES)
    def test_sweep_matches_fraction_loop(self, axis):
        rng = random.Random(f"sweep/{axis}")
        for n in range(2, 13):
            for _ in range(3):
                full, dev = self.draw(rng, n), self.draw(rng, n)
                grid = sorted({F(rng.randint(1, 99), 100) for _ in range(6)})
                table, expected = sweep(full, dev, axis, grid), sweep_by_fractions(full, dev, axis, grid)
                assert table.rows == expected
                assert table.k_star_trace() == tuple((r.axis_value, r.k) for r in expected if r.is_optimal)

    def test_k_star_is_first_argmax(self):
        rng = random.Random(71)
        for _ in range(300):
            n = rng.randint(2, 12)
            full, dev = self.draw(rng, n), self.draw(rng, n)
            curve, expected = gain_curve(full, dev), binary_gains_by_fractions(full, dev)
            assert curve.gains == expected
            assert curve.k_star == first_argmax(expected)

    def test_tie_goes_to_smallest_k(self):
        # hand-built full-effort terms: at k=2 and k=3 the conceal mean equals
        # the deviation's, so both gains equal the mean shift and top the
        # curve; k=3's numerators are scaled by 5, so its integer numerator is
        # larger, and only the P_f cross factor keeps the comparison exact
        dev = sym(4, F(1, 2), F(1, 2), F(1, 2))
        dd, pd, jd = binary_env._terms(*ratios(dev))
        pf = (pd[0], pd[1], 5 * pd[2], 7 * pd[3])
        jf = (jd[0] + 1, jd[1], 5 * jd[2], 7 * jd[3] + 1)
        shift = F(1, 10)
        full = (*(mean_own(dev) + shift).as_integer_ratio(), pf, jf)
        pairs, k_star = binary_env._curve(full, binary_env._reduced, *ratios(dev))
        assert all(type(num) is int and type(den) is int and den > 0 for num, den in pairs)
        assert all(gcd(num, den) == 1 for num, den in pairs)
        gains = tuple(F(num, den) for num, den in pairs)
        assert gains == (shift - F(1, dd), shift, shift, shift - F(1, 7 * dd))
        # k=2 and k=3 tie (their reduced pairs are equal) although k=3's
        # unreduced numerator is five times k=2's
        assert pairs[1] == pairs[2]
        assert k_star == 2
        # gain_curve's constructor gets the same gains, as Fractions
        assert binary_env._curve(full, F, *ratios(dev)) == (gains, 2)

    def test_terms_with_a_given_half_match_the_plain_pass(self):
        # one q_other half, built once as a sweep off the q_other axis builds
        # it, serves parameter sets that differ in p, q_team and q_own: each
        # pass equals the plain one and the Fraction pass it replaced
        rng = random.Random(89)
        for n in range(2, 13):
            q_other = F(rng.randint(1, 99), 100)
            half = binary_env._other_half(n, q_other.as_integer_ratio())
            for _ in range(6):
                params = replace(self.draw(rng, n), q_other=q_other)
                scale, pnds, joints = binary_env._terms(*ratios(params), half)
                assert (scale, pnds, joints) == binary_env._terms(*ratios(params))
                expected = binary_terms_by_fractions(params)[:2]
                assert (tuple(F(v, scale) for v in pnds), tuple(F(v, scale) for v in joints)) == expected

    def test_terms_refuse_a_half_built_for_other_parameters(self):
        # a half carries the n and q_other it was built for, and a pass at
        # another n or q_other refuses it rather than return wrong P and J
        params = BinaryEnvParams.make(5, F(1, 2), F(1, 2), F(1, 2), F(1, 4))
        for n, q_other in ((5, (1, 5)), (6, (1, 4)), (4, (1, 4))):
            with pytest.raises(ValueError, match="q_other half"):
                binary_env._terms(*ratios(params), binary_env._other_half(n, q_other))
        half = binary_env._other_half(5, F(2, 8).as_integer_ratio())
        assert binary_env._terms(*ratios(params), half) == binary_env._terms(*ratios(params))

    def test_a_corrupted_half_fails_its_check_at_build(self, monkeypatch):
        # s1 one too large at k = 3 breaks w*S2 == c*s1 there, and the half
        # is refused where it is built
        real = binary_env.accumulate

        def off_by_one(values):
            sums = list(real(values))
            sums[1] += 1
            return sums

        monkeypatch.setattr(binary_env, "accumulate", off_by_one)
        with pytest.raises(AssertionError, match="closed-form disagreement in _other_half"):
            binary_env._other_half(5, (1, 4))

    @pytest.mark.parametrize("axis", binary_env.SWEEP_AXES)
    def test_csv_writer_matches_the_reference_rendering(self, axis):
        # the one CSV writer, from the kernel's reduced integer pairs, against
        # the per-row decimal_str/frac_str rendering of the Fraction sweep
        # loop, which shares no code with the kernel
        rng = random.Random(f"writer/{axis}")
        for n in (2, 10, 40):
            full, dev = self.draw(rng, n), self.draw(rng, n)
            grid = [F(rng.randint(1, 999), 1000) for _ in range(7)]
            text = sweep(full, dev, axis, grid).to_csv()
            assert text == csv_by_decimal_str(sweep_by_fractions(full, dev, axis, grid))
            assert text.count("\n") == 1 + len(grid) * n

