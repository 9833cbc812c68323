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

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterable

from .equilibrium import TeamRule
from .outcomes import JointDistribution, OutcomeSpace, common_outcome_mixture
from .rationals import Rational, as_fraction, decimal_str, frac_str

ZERO = Fraction(0)
ONE = Fraction(1)

SWEEP_AXES = ("q_other_dev", "p_dev", "q_own_dev", "q_T_dev")


class BinaryEnvError(ValueError):
    """Raised for invalid parameters or consensus levels."""


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
        for name in ("p", "q_team", "q_own", "q_other"):
            v = getattr(self, name)
            if not ZERO < v < ONE:
                raise BinaryEnvError(f"{name}={v} must lie strictly inside (0,1)")

    @staticmethod
    def make(
        n: int, p: Rational, q_team: Rational, q_own: Rational, q_other: Rational
    ) -> "BinaryEnvParams":
        return BinaryEnvParams(
            n, as_fraction(p), as_fraction(q_team), as_fraction(q_own), as_fraction(q_other)
        )

    @staticmethod
    def symmetric(n: int, p: Rational, q_team: Rational, q: Rational) -> "BinaryEnvParams":
        return BinaryEnvParams.make(n, p, q_team, q, q)

    def joint_distribution(self) -> JointDistribution:
        """The mixture as an explicit joint pmf; member 1 is the marked member."""
        return common_outcome_mixture(
            self.p, self.q_team, [self.q_own] + [self.q_other] * (self.n - 1)
        )

    @property
    def mean_own(self) -> Fraction:
        """Marked member's unconditional expected outcome."""
        return self.p * self.q_team + (ONE - self.p) * self.q_own


def _check_k(params: BinaryEnvParams, k: int) -> None:
    if not 1 <= k <= params.n:
        raise BinaryEnvError(f"consensus level k={k} out of range 1..{params.n}")


@lru_cache(maxsize=4)
def _low_count_table(
    n: int, q_other: Fraction
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Binomial pmf of the number of the n-1 other members who draw low in the
    independent branch, and its suffix sums: ``suffix[m]`` is P(at least m low),
    with ``suffix[n] = 0``. A gain curve reads only two keys (the full-effort
    and the deviation profile), so a few entries suffice."""
    num, den = q_other.numerator, q_other.denominator
    low = den - num
    weights = [comb(n - 1, m) * low**m * num ** (n - 1 - m) for m in range(n)]
    scale = den ** (n - 1)
    suffix = [0] * (n + 1)
    for m in range(n - 1, -1, -1):
        suffix[m] = suffix[m + 1] + weights[m]
    return (
        tuple(Fraction(w, scale) for w in weights),
        tuple(Fraction(s, scale) for s in suffix),
    )


def _tail_sum(params: BinaryEnvParams, k: int) -> Fraction:
    """Probability that at least n-k+1 of the n-1 other members draw low,
    in the independent branch. Empty sum (k=1) is zero by convention."""
    return _low_count_table(params.n, params.q_other)[1][params.n - k + 1]


def prob_joint_high_and_nd(params: BinaryEnvParams, k: int) -> Fraction:
    """P(marked member high and the team conceals) under the k-majority rule."""
    _check_k(params, k)
    return (ONE - params.p) * params.q_own * _tail_sum(params, k)


def prob_nd(params: BinaryEnvParams, k: int) -> Fraction:
    """P(the team conceals): common low draw, or enough independent low draws."""
    _check_k(params, k)
    p, qt, qi = params.p, params.q_team, params.q_own
    pivotal = _low_count_table(params.n, params.q_other)[0][params.n - k]
    return p * (ONE - qt) + (ONE - p) * _tail_sum(params, k) + (ONE - p) * (ONE - qi) * pivotal


def cond_mean_nd(params: BinaryEnvParams, k: int) -> Fraction:
    """E[marked member's outcome | the team conceals].

    Evaluated both as the ratio of the two closed forms and through the
    inverted sum-of-three-terms form; the two must agree exactly.
    """
    _check_k(params, k)
    den = prob_nd(params, k)
    if den == 0:
        raise BinaryEnvError("conceal probability is zero")
    value = prob_joint_high_and_nd(params, k) / den
    if k >= 2:
        n = params.n
        p, qt, qi, qo = params.p, params.q_team, params.q_own, params.q_other
        s1 = _tail_sum(params, k)
        s2 = ZERO
        for m in range(n - k + 1, n):
            s2 += comb(n - 1, m) * ((ONE - qo) / qo) ** (m - (n - k))
        inverted = (
            p * (ONE - qt) / ((ONE - p) * qi * s1)
            + ONE / qi
            + (ONE - qi) * comb(n - 1, n - k) / (qi * s2)
        )
        if ONE / inverted != value:
            raise AssertionError("closed-form disagreement in cond_mean_nd")
    return value


def k_majority_interior_rule(space: OutcomeSpace, k: int) -> TeamRule:
    """Disclose iff at least k members draw their high outcome."""
    if not space.is_binary():
        raise BinaryEnvError("the interior rule is defined on binary spaces")
    vals = []
    for cell in space.cells:
        highs = sum(1 for i, v in enumerate(cell) if v == space.grids[i][1])
        vals.append(ONE if highs >= k else ZERO)
    return TeamRule(space, tuple(vals))


def interior_posteriors_valid(params: BinaryEnvParams, k: int) -> bool:
    """Whether the k-majority interior rule's posteriors lie strictly in (0,1).

    Holds for every k >= 2 under full-support parameters; k=1 pins the
    posterior at 0 (only all-low outcomes are concealed), the boundary case
    whose gains coincide with full disclosure.
    """
    _check_k(params, k)
    if k == 1:
        return False
    num = prob_joint_high_and_nd(params, k)
    den = prob_nd(params, k)
    return ZERO < num < den


def gain_binary(
    params_full: BinaryEnvParams, params_dev: BinaryEnvParams, k: int
) -> Fraction:
    """Marked member's gain from effort under the k-majority interior rule.

    ``params_full`` describes the distribution when everyone works,
    ``params_dev`` when the marked member shirks; the rule and the observer's
    posterior stay at their full-effort values.
    """
    if params_full.n != params_dev.n:
        raise BinaryEnvError("effort profiles disagree on the member count")
    _check_k(params_full, k)
    base = params_full.mean_own - params_dev.mean_own
    pnd_dev = prob_nd(params_dev, k)
    if pnd_dev == 0:
        return base
    return base - pnd_dev * (cond_mean_nd(params_full, k) - cond_mean_nd(params_dev, k))


@dataclass(frozen=True)
class GainCurve:
    """Effort gain per consensus level, with the argmax (ties to smallest k)."""

    gains: tuple[Fraction, ...]
    k_star: int

    def gain(self, k: int) -> Fraction:
        return self.gains[k - 1]


def gain_curve(params_full: BinaryEnvParams, params_dev: BinaryEnvParams) -> GainCurve:
    gains = tuple(
        gain_binary(params_full, params_dev, k) for k in range(1, params_full.n + 1)
    )
    best = 0
    for k in range(1, len(gains)):
        if gains[k] > gains[best]:
            best = k
    return GainCurve(gains, best + 1)


def optimal_k(params_full: BinaryEnvParams, params_dev: BinaryEnvParams) -> int:
    return gain_curve(params_full, params_dev).k_star


@dataclass(frozen=True)
class SweepRow:
    axis_value: Fraction
    k: int
    gain: Fraction
    is_optimal: bool


@dataclass(frozen=True)
class SweepTable:
    axis: str
    rows: tuple[SweepRow, ...]

    def k_star_trace(self) -> tuple[tuple[Fraction, int], ...]:
        out = []
        for row in self.rows:
            if row.is_optimal:
                out.append((row.axis_value, row.k))
        return tuple(out)

    def to_csv(self) -> str:
        lines = ["axis_value,K,gain,is_optimal,gain_exact"]
        for row in self.rows:
            lines.append(
                ",".join(
                    (
                        decimal_str(row.axis_value),
                        str(row.k),
                        decimal_str(row.gain),
                        "true" if row.is_optimal else "false",
                        frac_str(row.gain),
                    )
                )
            )
        return "\n".join(lines) + "\n"


_AXIS_FIELD = {
    "q_other_dev": "q_other",
    "p_dev": "p",
    "q_own_dev": "q_own",
    "q_T_dev": "q_team",
}


def sweep(
    params_full: BinaryEnvParams,
    params_dev: BinaryEnvParams,
    axis: str,
    grid: Iterable[Rational],
) -> SweepTable:
    """Vary one deviation-profile parameter over a grid, holding the
    full-effort profile fixed; emit the gain curve and optimum per grid point."""
    if axis not in _AXIS_FIELD:
        raise BinaryEnvError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    rows: list[SweepRow] = []
    for raw in grid:
        value = as_fraction(raw)
        if not ZERO < value < ONE:
            raise BinaryEnvError(f"grid value {value} outside (0,1)")
        dev = replace(params_dev, **{_AXIS_FIELD[axis]: value})
        curve = gain_curve(params_full, dev)
        for k in range(1, params_full.n + 1):
            rows.append(SweepRow(value, k, curve.gain(k), k == curve.k_star))
    return SweepTable(axis, tuple(rows))


MAX_GRID_POINTS = 10_000


def parse_grid(spec: str) -> tuple[Fraction, ...]:
    """Parse 'start:stop:step' (inclusive, exact rational arithmetic), at most
    ``MAX_GRID_POINTS`` points."""
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
    return tuple(start + i * step for i in range(count))


def baseline_params(n: int = 10) -> tuple[BinaryEnvParams, BinaryEnvParams]:
    """The optimal-consensus experiment's baseline: everyone-at-work highs of
    0.51, shirker-profile highs of 0.5, common-branch weight 0.5 in both."""
    full = BinaryEnvParams.make(n, "0.5", "0.51", "0.51", "0.51")
    dev = BinaryEnvParams.make(n, "0.5", "0.5", "0.5", "0.5")
    return full, dev
