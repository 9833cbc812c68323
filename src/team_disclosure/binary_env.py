"""Closed forms for the symmetric binary environment and the optimal-consensus experiment.

Each member's outcome is 0/1. With probability p the whole team shares one
common draw (high with probability q_team); otherwise members draw
independently, the marked member with probability q_own and every other
member with probability q_other. Disclosure follows the k-majority interior
rule: conceal exactly when fewer than k members draw high.

The no-disclosure event then splits into the common-low branch and the
independent branch with enough low draws, which gives binomial closed forms
for P(ND), P(own high and ND) and E[own outcome | ND], all exact.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import accumulate
from math import comb, gcd, lcm
from operator import mul
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .outcomes import JointDistribution, common_outcome_mixture
from .rationals import Rational, as_fraction, decimal_str, ratio_decimal_str

_AXIS_FIELD = {
    "q_other_dev": "q_other",
    "p_dev": "p",
    "q_own_dev": "q_own",
    "q_T_dev": "q_team",
}
SWEEP_AXES = tuple(_AXIS_FIELD)


class BinaryEnvError(ValueError):
    """Raised for invalid parameters."""


@dataclass(frozen=True)
class BinaryEnvParams:
    """One effort profile's parameters, seen from the marked member's side."""

    n: int
    p: Fraction
    q_team: Fraction
    q_own: Fraction
    q_other: Fraction

    def __post_init__(self) -> None:
        if self.n < 2:
            raise BinaryEnvError("need at least 2 members")
        for name, v in (
            ("p", self.p), ("q_team", self.q_team), ("q_own", self.q_own), ("q_other", self.q_other)
        ):
            num, den = v.as_integer_ratio()
            if not 0 < num < den:
                raise BinaryEnvError(f"{name}={v} must lie strictly inside (0,1)")

    @staticmethod
    def make(
        n: int, p: Rational, q_team: Rational, q_own: Rational, q_other: Rational
    ) -> "BinaryEnvParams":
        return BinaryEnvParams(
            n, as_fraction(p), as_fraction(q_team), as_fraction(q_own), as_fraction(q_other)
        )

    def joint_distribution(self) -> JointDistribution:
        """The mixture as an explicit joint pmf; member 1 is the marked member."""
        return common_outcome_mixture(
            self.p, self.q_team, [self.q_own] + [self.q_other] * (self.n - 1)
        )


_Ratio = tuple[int, int]


def _ratios(params: BinaryEnvParams) -> tuple[int, _Ratio, _Ratio, _Ratio, _Ratio]:
    """n and the integer ratios of p, q_team, q_own and q_other: the
    arguments of ``_terms`` for one profile."""
    return (
        params.n,
        params.p.as_integer_ratio(),
        params.q_team.as_integer_ratio(),
        params.q_own.as_integer_ratio(),
        params.q_other.as_integer_ratio(),
    )


def _mean_ratio(p: _Ratio, q_team: _Ratio, q_own: _Ratio) -> _Ratio:
    """The marked member's unconditional expected outcome p*q_team +
    (1-p)*q_own as an unreduced integer ratio over the positive denominator
    pb*tb*ib (as in ``_terms``)."""
    (pn, pb), (tn, tb), (in_, ib) = p, q_team, q_own
    return pn * tn * ib + (pb - pn) * in_ * tb, pb * tb * ib


class _Half(NamedTuple):
    """The half of ``_terms`` that reads only n and q_other (``_other_half``):
    the ``n`` and ``q_other`` ratio it was built for, ``scale`` = den**(n-1),
    and per k = 1..n, indexed by k-1, the sequences ``s1``, ``w``, ``s2`` and
    ``c`` over that scale."""

    n: int
    q_other: _Ratio
    scale: int
    s1: list[int]
    w: list[int]
    s2: list[int]
    c: list[int]


def _other_half(n: int, q_other: _Ratio) -> _Half:
    """The half of ``_terms`` that reads only n and q_other = num/den, given
    as its integer ratio ``(num, den)``.

    A :class:`_Half` of ``den**(n-1)`` and, indexed by k-1 for k = 1..n,
    four integer sequences over that scale: ``s1``, the others' weight of
    at least n-k+1 low draws, and ``w``, of exactly n-k low draws (from the
    binomial weights of the others' low count, built once), then the
    partner sum ``S2`` and ``c = C(n-1, n-k) * num**(k-1)``. ``S2`` is
    carried by its own recurrence ``S2(k) = (den-num) * (c(k-1) +
    S2(k-1))``, ``S2(1) = 0``, not read from the weights.

    Every k is checked against the inverted sum-of-three-terms form of
    ``_terms``' closed forms, P/J = common/J + 1/q_own + (1-q_own)/q_own *
    C(n-1, n-k) / s2 with s2 = S2 / num**(k-1). Cross-multiplied, the p,
    q_team and q_own factors cancel, and what is left is the equality
    ``w * S2 == c * s1`` of this half alone, checked here once per half; at
    k = 1 both of its sides are 0.
    """
    num, den = q_other
    low = den - num
    binom = [comb(n - 1, m) for m in range(n)]
    num_pows, low_pows = [1], [1]  # num**m and low**m, m = 0..n-1
    for _ in range(n - 1):
        num_pows.append(num_pows[-1] * num)
        low_pows.append(low_pows[-1] * low)
    # weights[m]: scaled P(exactly m of the n-1 others draw low)
    weights = list(map(mul, map(mul, binom, low_pows), reversed(num_pows)))
    s1 = [0, *accumulate(weights[:0:-1])]
    w = weights[::-1]
    c = list(map(mul, binom, num_pows))  # C(n-1, n-k) = C(n-1, k-1)
    s2 = [0]
    for ck in c[:-1]:
        s2.append(low * (ck + s2[-1]))
    if list(map(mul, w, s2)) != list(map(mul, c, s1)):
        raise AssertionError("closed-form disagreement in _other_half")
    return _Half(n, q_other, den ** (n - 1), s1, w, s2, c)


def _terms(
    n: int,
    p: _Ratio,
    q_team: _Ratio,
    q_own: _Ratio,
    q_other: _Ratio,
    half: _Half | None = None,
) -> tuple[int, list[int], list[int]]:
    """Scaled numerators of P(ND) and P(own high and ND) for every k = 1..n,
    from n and the integer ratios ``(num, den)`` of p, q_team, q_own and
    q_other (``_ratios`` of a profile), each already checked to lie inside
    (0,1).

    Returns ``(D, P, J)`` with P(ND) = ``P[k-1] / D`` and P(own high and ND)
    = ``J[k-1] / D``, over the common denominator
    ``D = pb * tb * ib * den**(n-1)``, where pb, tb, ib and den are the
    denominators of p, q_team, q_own and q_other. Everything in the pass is an
    exact integer.

    The independent branch conceals when at least n-k+1 of the n-1 other
    members draw low, or exactly n-k do and the marked member draws low too.
    Those weights come from ``half``, ``_other_half(n, q_other)``, built here
    when not given; a half built for another n or q_other is refused with
    ValueError. Its closed-form check ran when it was built.

    A sweep along an axis other than q_other builds the deviation's ``half``
    once and hands it to every grid point's pass. Nothing else is shared
    between passes.
    """
    if half is None:
        half = _other_half(n, q_other)
    elif half.n != n or half.q_other != q_other:
        raise ValueError(
            f"a q_other half for n={half.n}, q_other={Fraction(*half.q_other)} given to "
            f"a pass at n={n}, q_other={Fraction(*q_other)}"
        )
    (pn, pb), (tn, tb), (in_, ib) = p, q_team, q_own
    common = pn * (tb - tn) * ib * half.scale  # p(1-q_team) * D
    indep = (pb - pn) * tb
    indep_all, indep_low, indep_high = indep * ib, indep * (ib - in_), indep * in_
    pnds = [common + indep_all * s1 + indep_low * w for s1, w in zip(half.s1, half.w)]
    joints = [indep_high * s1 for s1 in half.s1]
    return pb * tb * ib * half.scale, pnds, joints


def closed_forms(
    params: BinaryEnvParams,
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...], tuple[Fraction, ...]]:
    """P(ND), P(own high and ND) and E[own | ND] at every k = 1..n, as three
    tuples indexed by k-1, from one ``_terms`` pass."""
    scale, pnds, joints = _terms(*_ratios(params))
    return (
        tuple(Fraction(pnd, scale) for pnd in pnds),
        tuple(Fraction(joint, scale) for joint in joints),
        tuple(map(Fraction, joints, pnds)),
    )


_FullSide = tuple[int, int, list[int], list[int]]


def _full_side(params: BinaryEnvParams) -> _FullSide:
    """The full-effort side of every ``_curve`` of one kernel entry: the
    integer ratio of its mean and its ``_terms`` numerators ``P`` and ``J``."""
    args = _ratios(params)
    _, pf, jf = _terms(*args)
    return (*_mean_ratio(*args[1:4]), pf, jf)


def _reduced(num: int, den: int) -> _Ratio:
    """num/den in lowest terms, as an integer pair, by one ``gcd``."""
    g = gcd(num, den)
    return num // g, den // g


def _curve(
    full: _FullSide,
    gain: Callable[[int, int], object],
    n: int,
    p: _Ratio,
    q_team: _Ratio,
    q_own: _Ratio,
    q_other: _Ratio,
    half: _Half | None = None,
) -> tuple[tuple[object, ...], int]:
    """Gains at every consensus level k = 1..n and the first k whose gain is
    largest, from the full-effort side (``_full_side``) and one ``_terms``
    pass over the deviation profile's n and integer ratios (``half`` as
    ``_terms`` takes it). The caller has checked that both sides have n
    members.

    With P(ND) = P/D and E[own | ND] = J/P, the gain at k is
    N_k / (bd*dd*P_f[k]), N_k = bn*dd*P_f[k] - bd*(J_f[k]*P_d[k] - J_d[k]*P_f[k]),
    where bn/bd is the mean shift, formed from the integer ratios of the two
    means and left unreduced. Every denominator is positive and bd*dd is
    common to all k, so gain a beats gain b exactly when
    N_a*P_f[b] > N_b*P_f[a]: the argmax runs on the unreduced integers. In
    the same loop each gain leaves as ``gain(N_k, bd*dd*P_f[k])``: a sweep's
    ``_reduced`` pair or ``gain_curve``'s Fraction, either way reduced by one
    ``gcd``.
    """
    fn, fd, pf, jf = full
    an, ad = _mean_ratio(p, q_team, q_own)
    bn, bd = fn * ad - an * fd, fd * ad
    dd, pd, jd = _terms(n, p, q_team, q_own, q_other, half)
    shift, scale = bn * dd, bd * dd
    gains = []
    best_k = best_num = best_pf = None
    for k, (pfk, jfk, pdk, jdk) in enumerate(zip(pf, jf, pd, jd), 1):
        num = shift * pfk - bd * (jfk * pdk - jdk * pfk)
        gains.append(gain(num, scale * pfk))
        if best_k is None or num * best_pf > best_num * pfk:
            best_k, best_num, best_pf = k, num, pfk
    return tuple(gains), best_k


def _check_members(params_full: BinaryEnvParams, params_dev: BinaryEnvParams) -> None:
    if params_full.n != params_dev.n:
        raise BinaryEnvError("effort profiles disagree on the member count")


@dataclass(frozen=True)
class GainCurve:
    """Effort gain per consensus level, with the argmax (ties to smallest k)."""

    gains: tuple[Fraction, ...]
    k_star: int


def gain_curve(params_full: BinaryEnvParams, params_dev: BinaryEnvParams) -> GainCurve:
    """Marked member's gain from effort under the k-majority interior rule at
    every k = 1..n (``gains[k - 1]``), and the best level ``k_star``.

    ``params_full`` describes the distribution when everyone works,
    ``params_dev`` when the marked member shirks; the rule and the observer's
    posterior stay at their full-effort values, so the gain is the mean shift
    less P_dev(ND) * (E_full[own | ND] - E_dev[own | ND]). Profiles of
    different member counts are refused before any pass.
    """
    _check_members(params_full, params_dev)
    return GainCurve(*_curve(_full_side(params_full), Fraction, *_ratios(params_dev)))


class SweepRow(NamedTuple):
    axis_value: Fraction
    k: int
    gain: Fraction
    is_optimal: bool


@dataclass(frozen=True)
class SweepTable:
    """A sweep as the curve kernel leaves it: the grid, and per grid point
    its gains at k = 1..n as reduced integer pairs ``(num, den)``, den > 0,
    with the point's first argmax k*."""

    axis: str
    grid: tuple[Fraction, ...]
    curves: tuple[tuple[tuple[tuple[int, int], ...], int], ...]

    @property
    def rows(self) -> tuple[SweepRow, ...]:
        """One ``SweepRow`` per grid point and k, in grid order, with the
        gains made Fractions here."""
        return tuple(
            SweepRow(value, k, Fraction(num, den), k == k_star)
            for value, (pairs, k_star) in zip(self.grid, self.curves)
            for k, (num, den) in enumerate(pairs, 1)
        )

    def k_star_trace(self) -> tuple[tuple[Fraction, int], ...]:
        return tuple(zip(self.grid, (k_star for _, k_star in self.curves)))

    def csv_lines(self) -> Iterator[str]:
        """The CSV, one newline-terminated line at a time: the header, then
        per row the axis value (rendered once per grid point), k, the gain
        by ``ratio_decimal_str`` (12 significant digits), the optimum flag,
        and the gain exactly as ``str(Fraction)`` writes it."""
        yield "axis_value,K,gain,is_optimal,gain_exact\n"
        for value, (pairs, k_star) in zip(self.grid, self.curves):
            text = decimal_str(value)
            for k, (num, den) in enumerate(pairs, 1):
                exact = f"{num}/{den}" if den != 1 else str(num)
                flag = "true" if k == k_star else "false"
                yield f"{text},{k},{ratio_decimal_str(num, den)},{flag},{exact}\n"

    def to_csv(self) -> str:
        """The whole CSV as one string: ``csv_lines`` joined."""
        return "".join(self.csv_lines())


def sweep(
    params_full: BinaryEnvParams,
    params_dev: BinaryEnvParams,
    axis: str,
    grid: Iterable[Rational],
) -> SweepTable:
    """Vary one deviation-profile parameter over a grid, holding the
    full-effort profile fixed; emit the gain curve and optimum per grid point,
    at most ``MAX_SWEEP_ROWS`` rows (grid points x members).

    Checks the axis, the row cap, every grid value and the member count
    before any kernel pass, and makes the full-effort side's pass once. Each
    grid point then costs one ``_curve``: one ``_terms`` pass on the
    deviation profile's integer ratios with the grid value's put in, and one
    integer loop that also reduces each gain with one ``gcd``. No parameter
    object is built per point; the profiles' constructors and the grid check
    have made its range checks. Off the q_other axis the deviation's q_other
    is fixed, so its ``_other_half`` is built once here rather than at every
    point.
    """
    if axis not in _AXIS_FIELD:
        raise BinaryEnvError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    grid = tuple(map(as_fraction, grid))
    count = len(grid) * params_full.n
    if count > MAX_SWEEP_ROWS:
        raise BinaryEnvError(
            f"a sweep of {len(grid)} grid points at n={params_full.n} has "
            f"{count} rows, more than {MAX_SWEEP_ROWS}"
        )
    ratios = [value.as_integer_ratio() for value in grid]
    for value, (num, den) in zip(grid, ratios):
        if not 0 < num < den:
            raise BinaryEnvError(f"grid value {value} outside (0,1)")
    _check_members(params_full, params_dev)
    full = _full_side(params_full)
    args = list(_ratios(params_dev))
    field = _AXIS_FIELD[axis]
    # _ratios lists n and the four parameters in their field order
    position = [f.name for f in fields(BinaryEnvParams)].index(field)
    half = None if field == "q_other" else _other_half(params_dev.n, args[-1])
    curves = []
    for ratio in ratios:
        args[position] = ratio
        curves.append(_curve(full, _reduced, *args, half))
    return SweepTable(axis, grid, tuple(curves))


MAX_GRID_POINTS = 10_000
# The largest denominator of a grid spec's start, stop or step. A gain's digits
# grow with n times the digits of the grid value's denominator, which is at
# most this bound squared; at 320 members such a value's gains stay under
# 3 200 digits (Python refuses to print integers of more than 4 300), and a
# q_other_dev sweep row at such a value costs about 1 ms, gains and CSV
# line together (Python 3.11.7, one core).
MAX_GRID_DENOMINATOR = 10_000
# The largest team `optimal-k` and `sweep` accept. A gain curve at 320 members
# takes about 0.02 s at the baseline and 0.1 to 0.15 s when all eight
# parameters have four-digit denominators near the grid bound (Python 3.11.7,
# one core), and the cost grows faster than n.
MAX_SWEEP_MEMBERS = 320
# The most rows (grid points x members) one sweep may emit: the point and
# member caps above hold on their own, but 10 000 points at 320 members would
# run for about 14 minutes. A `sweep` row at 320 members costs about 0.27 ms
# on three-decimal grid values (the q_other_dev axis; 0.08 ms on p_dev),
# about half of it formatting the CSV line (Python 3.11.7, one core), so the
# largest accepted sweep, 100 points at 320 members, takes about 11 s there,
# and about 35 s on values whose denominators are products of two at the
# denominator bound.
MAX_SWEEP_ROWS = 32_000


def parse_grid(spec: str) -> tuple[Fraction, ...]:
    """Parse 'start:stop:step' (inclusive, exact rational arithmetic), at most
    ``MAX_GRID_POINTS`` points, each part's denominator at most
    ``MAX_GRID_DENOMINATOR``."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise BinaryEnvError(f"grid spec {spec!r} is not start:stop:step")
    start, stop, step = (as_fraction(s) for s in parts)
    if step <= 0 or stop < start:
        raise BinaryEnvError(f"bad grid spec {spec!r}")
    count = (stop - start) // step + 1
    if count > MAX_GRID_POINTS:
        raise BinaryEnvError(
            f"grid spec {spec!r} has {count} points, more than {MAX_GRID_POINTS}"
        )
    if any(part.denominator > MAX_GRID_DENOMINATOR for part in (start, stop, step)):
        raise BinaryEnvError(
            f"grid spec {spec!r} has a denominator above {MAX_GRID_DENOMINATOR}"
        )
    # every point over one denominator, so each costs one normalisation
    d = lcm(start.denominator, step.denominator)
    a, b = start.numerator * (d // start.denominator), step.numerator * (d // step.denominator)
    return tuple(Fraction(a + i * b, d) for i in range(count))


def baseline_params(n: int = 10) -> tuple[BinaryEnvParams, BinaryEnvParams]:
    """The optimal-consensus experiment's baseline: everyone-at-work highs of
    0.51, shirker-profile highs of 0.5, common-branch weight 0.5 in both."""
    full = BinaryEnvParams.make(n, "0.5", "0.51", "0.51", "0.51")
    dev = BinaryEnvParams.make(n, "0.5", "0.5", "0.5", "0.5")
    return full, dev


PANEL_GRIDS = {
    "a": ("q_other_dev", "0.05:0.509:0.003", False),
    "b": ("p_dev", "0.05:0.50:0.01", False),
    "c": ("q_own_dev", "0.05:0.509:0.003", True),
    "d": ("q_T_dev", "0.05:0.509:0.003", True),
}


def panel_sweep(panel: str, n: int = 10, grid: Sequence[Fraction] | None = None) -> SweepTable:
    """One panel of the optimal-consensus experiment at the baseline.

    Panels c and d sweep the deviation parameter downward (stronger effort
    effect as the sweep proceeds), matching the direction in which the optimum
    is reported to fall.
    """
    axis, default_grid, descending = PANEL_GRIDS[panel]
    full, dev = baseline_params(n)
    if grid is None:
        grid = parse_grid(default_grid)
        if descending:
            grid = grid[::-1]
    return sweep(full, dev, axis, grid)
