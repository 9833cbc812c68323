"""Effort incentives induced by equilibrium disclosure behavior.

Each member privately chooses costly binary effort before outcomes realize;
the outcome distribution depends on the effort vector and is productive in
the stochastic-dominance sense. Given a team rule fixed at its full-effort
equilibrium (observers never see effort, so posteriors are frozen at the
full-effort values), a member's gain from effort decomposes into the shift of
their own expected outcome minus a correction for how concealment filters
that shift.

Full-effort sets are unions of boxes anchored at the per-equilibrium gain
vectors, so protocol dominance reduces to exact corner comparisons.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Mapping, Sequence

from ._poly import simplest_between
from .equilibrium import (
    TeamRule,
    _pure_profile,
    _verify,
    find_equilibria,
    full_disclosure_is_plausible,
    team_rule,
)
from .outcomes import (
    JointDistribution,
    _concealment,
    conditional,
    fosd_dominates,
    fosd_dominates_everywhere,
    marginal,
    mix,
    posterior_no_disclosure,
)
from .protocols import DeliberationProtocol
from .rationals import ONE, ZERO, Rational, as_fraction

SELF_IMPROVING = "self_improving"
TEAM_IMPROVING = "team_improving"
NEITHER = "neither"


def _deviations(n: int):
    """Every unilateral effort deviation on n members: ``(i, up, down)`` where
    member i + 1 works in ``up`` and shirks in ``down`` and everyone else's
    effort is the same in both; ``down`` in lexicographic order, then i
    ascending."""
    for down in product((0, 1), repeat=n):
        for i in range(n):
            if not down[i]:
                yield i, down[:i] + (1,) + down[i + 1 :], down


class IncentiveError(ValueError):
    """Raised for malformed effort models or queries."""


class OffPathBracket(IncentiveError):
    """Raised when the no-disclosure bracket is conditioned on an off-path event.

    Happens only if concealment has zero probability at full effort but
    positive probability at the deviation; callers opting into the skeptical
    convention replace the undefined full-effort posterior by the worst
    outcome.
    """


@dataclass(frozen=True)
class EffortModel:
    """Outcome distribution per effort vector, plus effort costs.

    All distributions share one outcome space and are monotone in effort:
    raising any member's effort moves the joint distribution up in
    first-order stochastic dominance.
    """

    n: int
    dists: tuple[tuple[tuple[int, ...], JointDistribution], ...]
    costs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise IncentiveError("an effort model needs at least 2 members")
        table = dict(self.dists)
        if set(table) != set(product((0, 1), repeat=self.n)):
            raise IncentiveError("need one distribution per effort vector in {0,1}^n")
        space = table[(1,) * self.n].space
        if space.n != self.n:
            raise IncentiveError("outcome space does not match the member count")
        for e, d in table.items():
            if d.space != space:
                raise IncentiveError("all effort vectors must share one outcome space")
            if not d.full_support:
                raise IncentiveError(f"distribution at effort {e} lacks full support")
        if len(self.costs) != self.n or any(c <= 0 for c in self.costs):
            raise IncentiveError("costs must be strictly positive, one per member")
        for _, up, down in _deviations(self.n):
            if not fosd_dominates(table[up], table[down]):
                raise IncentiveError(f"effort is not productive: {up} does not dominate {down}")

    @staticmethod
    def build(
        n: int,
        dist_of: Callable[[tuple[int, ...]], JointDistribution] | Mapping[tuple[int, ...], JointDistribution],
        costs: Sequence[Rational],
    ) -> "EffortModel":
        table = {}
        for e in product((0, 1), repeat=n):
            if isinstance(dist_of, Mapping) and e not in dist_of:
                raise IncentiveError("need one distribution per effort vector in {0,1}^n")
            table[e] = dist_of[e] if isinstance(dist_of, Mapping) else dist_of(e)
        return EffortModel(
            n,
            tuple(table.items()),
            tuple(as_fraction(c) for c in costs),
        )

    def dist_of(self, effort: Sequence[int]) -> JointDistribution:
        e = tuple(effort)
        for key, d in self.dists:
            if key == e:
                return d
        raise IncentiveError(f"no distribution for effort vector {e}")

    @property
    def full_effort(self) -> tuple[int, ...]:
        return (1,) * self.n

    def without(self, i: int) -> tuple[int, ...]:
        if not 1 <= i <= self.n:
            raise IncentiveError(f"member {i} out of range 1..{self.n}")
        return tuple(0 if j == i - 1 else 1 for j in range(self.n))

    def replace_full_effort(self, dist: JointDistribution) -> "EffortModel":
        table = {e: d for e, d in self.dists}
        table[self.full_effort] = dist
        return EffortModel(self.n, tuple(sorted(table.items())), self.costs)


def _nd_stats(dist: JointDistribution, rule: TeamRule, i: int) -> tuple[Fraction, Fraction]:
    """(P(conceal), E[member-i value on the concealed event], unnormalized)."""
    mass, sums, scale = _concealment(dist, rule)
    den = scale * dist._scaled.den
    return Fraction(mass, den), Fraction(sums[i - 1], den * dist._scaled.scales[i - 1])


def effort_gain(
    model: EffortModel, rule: TeamRule, i: int, off_path: str = "error"
) -> Fraction:
    """Member i's gain from effort when the team discloses by ``rule``.

    The observer's posterior is held at its full-effort value (effort is
    covert). ``off_path`` picks the convention when concealment is off-path at
    full effort but on-path at the deviation: "error" raises, "skeptical"
    scores the full-effort concealment event at the member's worst outcome.
    """
    if off_path not in ("error", "skeptical"):
        raise IncentiveError(f"off_path must be 'error' or 'skeptical', not {off_path!r}")
    if rule.space != model.dist_of(model.full_effort).space:
        raise IncentiveError("rule and model live on different outcome spaces")
    if not 1 <= i <= model.n:
        raise IncentiveError(f"member {i} out of range 1..{model.n}")
    full = model.dist_of(model.full_effort)
    dev = model.dist_of(model.without(i))
    base = full.mean_vector[i - 1] - dev.mean_vector[i - 1]
    pnd_dev, mass_dev = _nd_stats(dev, rule, i)
    if pnd_dev == 0:
        return base
    pnd_full, mass_full = _nd_stats(full, rule, i)
    if pnd_full == 0:
        if off_path == "skeptical":
            post_full = rule.space.grids[i - 1][0]
        else:
            raise OffPathBracket(
                "concealment is off-path at full effort but on-path at the deviation"
            )
    else:
        post_full = mass_full / pnd_full
    post_dev = mass_dev / pnd_dev
    return base - pnd_dev * (post_full - post_dev)


def effort_gain_cov(model: EffortModel, rule: TeamRule, i: int) -> Fraction:
    """Covariance form of the same gain: the correction is the improvement of
    the covariance between member i's outcome and the disclosure event."""
    if not 1 <= i <= model.n:
        raise IncentiveError(f"member {i} out of range 1..{model.n}")
    full = model.dist_of(model.full_effort)
    dev = model.dist_of(model.without(i))

    def stats(dist: JointDistribution) -> tuple[Fraction, Fraction]:
        pd = ZERO  # E[d]
        cross = ZERO  # E[omega_i * d]
        for cell, p, d in zip(dist.space.cells, dist.probs, rule.values):
            pd += d * p
            cross += cell[i - 1] * d * p
        mean = dist.mean_vector[i - 1]
        return ONE - pd, cross - mean * pd  # (P(ND), Cov[omega_i, d])

    pnd_full, cov_full = stats(full)
    pnd_dev, cov_dev = stats(dev)
    if pnd_full == 0:
        raise OffPathBracket("covariance form needs on-path concealment at full effort")
    base = full.mean_vector[i - 1] - dev.mean_vector[i - 1]
    return (ONE - pnd_dev) * base + (pnd_dev / pnd_full) * cov_full - cov_dev


@dataclass(frozen=True)
class GainVector:
    """Gain per member under one equilibrium rule; its full-effort set is the
    box of positive cost vectors below it."""

    gains: tuple[Fraction, ...]
    classification: str
    rule: TeamRule

    @property
    def positive(self) -> bool:
        return all(g > 0 for g in self.gains)

    def covers(self, costs: Sequence[Fraction]) -> bool:
        """Whether the cost vector lies in this corner's full-effort box:
        every member weakly prefers effort under the rule."""
        return self.positive and all(c <= g for c, g in zip(costs, self.gains))


def protocol_full_effort_corners(
    protocol: DeliberationProtocol,
    model: EffortModel,
    refine: bool = False,
) -> tuple[GainVector, ...]:
    """Gain vectors of every equilibrium rule at the full-effort distribution.

    With ``refine`` set, the off-path full-disclosure equilibrium is kept only
    when it survives the deliberation-consistency refinement; on-path
    equilibria justify their own posteriors and always survive.
    """
    full = model.dist_of(model.full_effort)
    corners = []
    for eq in find_equilibria(full, protocol):
        if refine and eq.off_path and not full_disclosure_is_plausible(full, protocol):
            continue
        gains = tuple(
            effort_gain(model, eq.rule, i, off_path="skeptical")
            for i in range(1, model.n + 1)
        )
        corners.append(GainVector(gains, eq.classification, eq.rule))
    uniq: dict[tuple[Fraction, ...], GainVector] = {}
    for gv in corners:
        uniq.setdefault(gv.gains, gv)
    return tuple(uniq[k] for k in sorted(uniq, reverse=True))


@dataclass(frozen=True)
class DominanceReport:
    dominates: bool
    strictly: bool
    witness: tuple[Fraction, ...] | None
    corners_a: tuple[GainVector, ...]
    corners_b: tuple[GainVector, ...]


def dominance_report(
    protocol_a: DeliberationProtocol,
    protocol_b: DeliberationProtocol,
    model: EffortModel,
    refine: bool = False,
) -> DominanceReport:
    """Whether protocol_a's full-effort set contains protocol_b's.

    Both sets are unions of boxes anchored at equilibrium gain corners, so
    containment holds iff every positive corner of b sits below some positive
    corner of a. Strictness is witnessed by a positive corner of a outside
    b's set (itself a cost vector implementing full effort only under a).
    """
    corners_a = protocol_full_effort_corners(protocol_a, model, refine)
    corners_b = protocol_full_effort_corners(protocol_b, model, refine)
    dominates = all(
        any(a.covers(b.gains) for a in corners_a) for b in corners_b if b.positive
    )
    witness = None
    if dominates:
        for gv in corners_a:
            if gv.positive and not any(b.covers(gv.gains) for b in corners_b):
                witness = gv.gains
                break
    return DominanceReport(
        dominates=dominates,
        strictly=dominates and witness is not None,
        witness=witness,
        corners_a=corners_a,
        corners_b=corners_b,
    )


def dominates(
    protocol_a: DeliberationProtocol,
    protocol_b: DeliberationProtocol,
    model: EffortModel,
    refine: bool = False,
    strict: bool = False,
) -> bool:
    report = dominance_report(protocol_a, protocol_b, model, refine)
    return report.strictly if strict else report.dominates


# ---------------------------------------------------------------------------
# Effort types
# ---------------------------------------------------------------------------


def _lifts(up: JointDistribution, down: JointDistribution, fixed: Sequence[int]) -> bool:
    """Whether ``up`` leaves the joint distribution of the members in
    ``fixed`` as it is under ``down`` and, at every outcome of theirs, strictly
    lifts the conditional distribution of the other members."""
    held = marginal(up, fixed)
    return held.probs == marginal(down, fixed).probs and all(
        fosd_dominates_everywhere(conditional(up, given), conditional(down, given))
        for given in (dict(zip(fixed, cells)) for cells in held.space.cells)
    )


def classify_effort(model: EffortModel) -> str:
    """self_improving / team_improving / neither.

    Self-improving: a member's effort leaves the others' joint distribution
    untouched and strictly lifts their own conditional distribution at every
    conditioning outcome. Team-improving is the mirror image.
    """
    n = model.n
    is_self = is_team = True
    for i, up, down in _deviations(n):
        with_i, without_i = model.dist_of(up), model.dist_of(down)
        others = [j for j in range(1, n + 1) if j != i + 1]
        is_self = is_self and _lifts(with_i, without_i, others)
        is_team = is_team and _lifts(with_i, without_i, [i + 1])
        if not is_self and not is_team:
            return NEITHER
    return SELF_IMPROVING if is_self else TEAM_IMPROVING


def effective_team_leader(model: EffortModel, i: int) -> bool:
    """Whether every other member's effort tightens the link between their own
    outcome and member i's worst outcome: conditional on i's worst draw,
    member j's expected outcome is strictly lower when j exerts effort."""
    if not 1 <= i <= model.n:
        raise IncentiveError(f"member {i} out of range 1..{model.n}")
    space = model.dist_of(model.full_effort).space
    worst = space.grids[i - 1][0]
    for j in range(1, model.n + 1):
        if j == i:
            continue
        pos = j if j < i else j - 1  # member j's index after conditioning away i
        full_cond = conditional(model.dist_of(model.full_effort), {i: worst})
        dev_cond = conditional(model.dist_of(model.without(j)), {i: worst})
        if not full_cond.mean_vector[pos - 1] < dev_cond.mean_vector[pos - 1]:
            return False
    return True


# ---------------------------------------------------------------------------
# Correlation mixing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EpsilonBarResult:
    found: bool
    epsilon_bar: Fraction | None
    monotone: bool


def find_epsilon_bar(
    model_base: EffortModel,
    g_comonotone: JointDistribution,
    protocol_other: DeliberationProtocol,
) -> EpsilonBarResult:
    """Infimum of the mixing weights in (0, 1) toward the comonotone
    distribution at which the given protocol strictly dominates unilateral
    disclosure, decided exactly.

    Uses the conceal-only-your-worst-outcome equilibrium of the mixed
    full-effort distribution. That rule does not move with the weight e, so
    P(conceal) and each member's concealed value sum are linear in e, and
    every condition the dominance indicator reads (each member's posterior
    against each of their grid values, all that verification reads of a
    threshold profile, and against their posterior after a deviation) is the
    sign of a linear function a (1 - e) + b e. Its roots a / (a - b) cut
    (0, 1) into open cells where the indicator is constant, so it is
    evaluated at each root and at the simplest rational of each cell, in
    ascending order. ``epsilon_bar`` is the infimum of the first cell or
    root where it holds, which may itself fail (a strict inequality can be
    an equality at a root), and ``monotone`` says whether it holds at every
    point above.
    """
    if protocol_other.all_unilateral:
        raise IncentiveError("the comparison protocol must differ from unilateral disclosure")
    full = model_base.dist_of(model_base.full_effort)
    if g_comonotone.space != full.space:
        raise IncentiveError("comonotone distribution lives on a different space")
    if not fosd_dominates(g_comonotone, full):
        raise IncentiveError("the comonotone distribution must dominate the base")
    space = full.space
    # conceal only the worst outcome: every row bit but the first (highest)
    profile = _pure_profile(space, [(1 << (len(g) - 1)) - 1 for g in space.grids])
    rule = team_rule(profile, protocol_other)
    # each member's posterior on concealment after their deviation, or None
    # when the deviation never conceals; neither depends on the mixing weight
    dev_posts = []
    for i in range(1, model_base.n + 1):
        pnd_dev, mass_dev = _nd_stats(model_base.dist_of(model_base.without(i)), rule, i)
        dev_posts.append(mass_dev / pnd_dev if pnd_dev else None)

    def indicator(eps: Fraction) -> bool:
        mixed = mix(full, g_comonotone, eps)
        post = posterior_no_disclosure(mixed, rule)
        if not _verify(profile, post, post, mixed, protocol_other).ok:
            return False
        weak = True
        strict = False
        for i, post_dev in enumerate(dev_posts, 1):
            if post_dev is None:
                continue
            if post[i - 1] > post_dev:
                weak = False
                break
            if post[i - 1] < post_dev:
                strict = True
        return weak and strict

    # x P(conceal) - (member-i concealed sum) at e = 0 and at e = 1, per grid
    # value x and per deviation posterior
    roots = set()
    for i, post_dev in enumerate(dev_posts, 1):
        (pa, sa), (pb, sb) = _nd_stats(full, rule, i), _nd_stats(g_comonotone, rule, i)
        for x in space.grids[i - 1] + ((post_dev,) if post_dev is not None else ()):
            a, b = x * pa - sa, x * pb - sb
            if a * b < 0:
                roots.add(a / (a - b))
    cuts = [ZERO, *sorted(roots), ONE]
    # (infimum, test point) of each open cell and of the root that closes it
    points = []
    for lo, hi in zip(cuts, cuts[1:]):
        points += [(lo, simplest_between(lo, hi)), (hi, hi)]
    del points[-1]  # the mixing weight 1 is outside
    flags = [indicator(e) for _, e in points]
    if True not in flags:
        return EpsilonBarResult(False, None, True)
    first = flags.index(True)
    return EpsilonBarResult(True, points[first][0], all(flags[first:]))
