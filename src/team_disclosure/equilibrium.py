"""Equilibrium computation for the team-disclosure game.

An equilibrium is a per-member disclosure strategy (a probability of voting
"disclose" for each own outcome), together with the observer's no-disclosure
posterior means, such that no single member or coalition that could flip the
team decision wants to, and posteriors are Bayes-consistent whenever
concealment happens with positive probability.

Every equilibrium is equivalent to one in threshold form: vote to disclose
above your own no-disclosure posterior, conceal below it, and mix only at an
exact tie. The search is therefore exhaustive over "cut configurations": per
member either a cut strictly between two adjacent grid values, or an
indifference atom sitting exactly on a grid value with a mixing weight. Atom
weights satisfy a multilinear system solved exactly in rational arithmetic;
configurations whose weights would be irrational are reported as unresolved
rather than approximated (they cannot occur for generic rational inputs).

Where a configuration admits a continuum of equilibria (free mixing weights),
one canonical representative is returned: the feasible weight assignment that
conceals the most, scanning 0 before 1 before interior candidates.

The belief refinement (consistency with deliberation, and the brute-force
twin of the full-disclosure plausibility predicate) scans every deterministic
own-outcome profile in scaled integers: one bitmask per member, one winning
table lookup per cell, exact integer concealment sums. Every positive answer
is confirmed by rebuilding its witness profile through the Fraction path
before it is returned.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import compress, product
from math import isqrt, lcm
from operator import or_
from typing import Sequence

from .outcomes import (
    JointDistribution,
    OffPathPosterior,
    OutcomeSpace,
    posterior_no_disclosure,
)
from .protocols import DeliberationProtocol
from .rationals import Rational, as_fraction

ZERO = Fraction(0)
ONE = Fraction(1)

DEFAULT_MAX_MEMBERS = 4
DEFAULT_MAX_GRID = 5
DEFAULT_PROFILE_CAP = 1 << 16

FREE_WEIGHT_CANDIDATES = (
    ZERO,
    ONE,
    Fraction(1, 2),
    Fraction(1, 4),
    Fraction(3, 4),
    Fraction(1, 8),
    Fraction(7, 8),
)

FULL = "full"
PARTIAL = "partial"
INTERIOR = "interior"


class SearchCapExceeded(RuntimeError):
    """Raised when an exhaustive search would exceed its configured cap."""


class EquilibriumError(ValueError):
    """Raised for dimension mismatches and malformed inputs."""


# ---------------------------------------------------------------------------
# Strategy profiles and team rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StrategyProfile:
    """Own-outcome disclosure strategies: values[i][j] = vote probability of
    member i+1 at the j-th value of their grid."""

    space: OutcomeSpace
    values: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.space.n:
            raise EquilibriumError("profile does not match the member count")
        for grid, vals in zip(self.space.grids, self.values):
            if len(vals) != len(grid):
                raise EquilibriumError("strategy not defined on exactly the member's grid")
            for v in vals:
                if not ZERO <= v <= ONE:
                    raise EquilibriumError(f"vote probability {v} outside [0,1]")

    def vote_vector(self, cell: Sequence[Fraction]) -> tuple[Fraction, ...]:
        out = []
        for i, v in enumerate(cell):
            pos = self.space.grids[i].index(v)
            out.append(self.values[i][pos])
        return tuple(out)

    @staticmethod
    def constant(space: OutcomeSpace, value: Rational) -> "StrategyProfile":
        v = as_fraction(value)
        return StrategyProfile(space, tuple(tuple(v for _ in g) for g in space.grids))

    @staticmethod
    def from_votes(space: OutcomeSpace, values: Sequence[Sequence[Rational]]) -> "StrategyProfile":
        return StrategyProfile(
            space, tuple(tuple(as_fraction(v) for v in row) for row in values)
        )


@dataclass(frozen=True)
class TeamRule:
    """Team disclosure probability per outcome cell (lexicographic order)."""

    space: OutcomeSpace
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.space.cells):
            raise EquilibriumError("rule length does not match the cell count")
        for v in self.values:
            if not ZERO <= v <= ONE:
                raise EquilibriumError(f"disclosure probability {v} outside [0,1]")

    def prob(self, cell: Sequence[Rational]) -> Fraction:
        key = tuple(as_fraction(v) for v in cell)
        return self.values[self.space.cell_index[key]]

    @staticmethod
    def constant(space: OutcomeSpace, value: Rational) -> "TeamRule":
        return TeamRule(space, tuple(as_fraction(value) for _ in space.cells))

    @staticmethod
    def from_values(space: OutcomeSpace, values: Sequence[Rational]) -> "TeamRule":
        return TeamRule(space, tuple(as_fraction(v) for v in values))


def team_rule(profile: StrategyProfile, protocol: DeliberationProtocol) -> TeamRule:
    """Aggregate a profile into the team rule via the multilinear extension."""
    if protocol.n != profile.space.n:
        raise EquilibriumError("protocol and profile have different member counts")
    vals = tuple(
        protocol.evaluate(profile.vote_vector(cell)) for cell in profile.space.cells
    )
    return TeamRule(profile.space, vals)


def classify_rule(rule: TeamRule) -> str:
    """full / partial / interior, from which outcomes are ever concealed."""
    concealed = [
        cell for cell, d in zip(rule.space.cells, rule.values) if d < ONE
    ]
    if len(concealed) <= 1:
        return FULL
    for i in range(rule.space.n):
        if len({cell[i] for cell in concealed}) < 2:
            return PARTIAL
    return INTERIOR


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    kind: str  # "deviation" or "bayes"
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    off_path: bool
    violations: tuple[Violation, ...]
    bayes_posteriors: tuple[Fraction, ...] | None


def _pivotal(wins, rest: int, free: int, coalition: int) -> bool:
    """Whether a coalition is pivotal against the other members' votes.

    ``rest`` holds the members voting 1 and ``free`` those mixing strictly
    inside (0,1); everyone else votes 0. Every pure completion of the mixed
    votes then has positive probability, so the coalition is pivotal exactly
    when some completion wins with it voting 1 and loses with it voting 0.
    """
    sub = free
    while True:
        if wins(rest | sub | coalition) and not wins(rest | sub):
            return True
        if sub == 0:
            return False
        sub = (sub - 1) & free


def verify_equilibrium(
    profile: StrategyProfile,
    posteriors: Sequence[Rational],
    dist: JointDistribution,
    protocol: DeliberationProtocol,
) -> VerificationReport:
    """Check every coalitional deviation and Bayes-consistency, exactly.

    Violations are data, not errors: the report lists each outcome and
    coalition where a pivotal group fails the threshold requirement, and any
    mismatch between the stated posteriors and the rule-implied ones.
    """
    space = dist.space
    if profile.space != space:
        raise EquilibriumError("profile and distribution have different spaces")
    if protocol.n != space.n:
        raise EquilibriumError("protocol and distribution have different member counts")
    post = tuple(as_fraction(p) for p in posteriors)
    if len(post) != space.n:
        raise EquilibriumError("posterior vector has wrong length")

    n = space.n
    wins = protocol.wins
    violations: list[Violation] = []
    for cell in space.cells:
        votes = profile.vote_vector(cell)
        ones = mixed = above = below = 0
        for i, v in enumerate(votes):
            if v == ONE:
                ones |= 1 << i
            elif v != ZERO:
                mixed |= 1 << i
            if cell[i] > post[i]:
                above |= 1 << i
            elif cell[i] < post[i]:
                below |= 1 << i
        for mask in range(1, 1 << n):
            # a coalition that gains from disclosure but not all voting 1, or
            # from concealment but not all voting 0, is a violation if pivotal
            gain_up = mask & ~above == 0 and mask & ~ones != 0
            gain_down = mask & ~below == 0 and mask & (ones | mixed) != 0
            if not (gain_up or gain_down):
                continue
            if not _pivotal(wins, ones & ~mask, mixed & ~mask, mask):
                continue
            members = tuple(i + 1 for i in range(n) if mask >> i & 1)
            if gain_up:
                violations.append(
                    Violation(
                        "deviation",
                        f"at outcome {tuple(map(str, cell))} coalition {members} "
                        "all gain from disclosure but someone votes below 1",
                    )
                )
            if gain_down:
                violations.append(
                    Violation(
                        "deviation",
                        f"at outcome {tuple(map(str, cell))} coalition {members} "
                        "all gain from concealment but someone votes above 0",
                    )
                )
    rule = team_rule(profile, protocol)
    off_path = False
    bayes: tuple[Fraction, ...] | None
    try:
        bayes = posterior_no_disclosure(dist, rule)
    except OffPathPosterior:
        bayes = None
        off_path = True
    if bayes is not None and bayes != post:
        violations.append(
            Violation(
                "bayes",
                f"stated posteriors {tuple(map(str, post))} differ from the "
                f"Bayes-consistent ones {tuple(map(str, bayes))}",
            )
        )
    return VerificationReport(not violations, off_path, tuple(violations), bayes)


# ---------------------------------------------------------------------------
# Equilibrium objects
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MemberCut:
    """Threshold description of one member's strategy.

    ``cut`` is the first grid position voting to disclose; when ``atom_pos``
    is set the posterior sits exactly on that grid value and the member mixes
    there with ``atom_weight``.
    """

    cut: int
    atom_pos: int | None = None
    atom_weight: Fraction | None = None


@dataclass(frozen=True)
class Equilibrium:
    profile: StrategyProfile
    rule: TeamRule
    posteriors: tuple[Fraction, ...]
    classification: str
    off_path: bool
    cuts: tuple[MemberCut, ...]
    verification: VerificationReport

    @property
    def space(self) -> OutcomeSpace:
        return self.profile.space


# ---------------------------------------------------------------------------
# Exhaustive threshold search
# ---------------------------------------------------------------------------


def _scaled(dist: JointDistribution):
    """The pmf and the grids as exact integers.

    Returns (weights, scales, grid_ints): pmf weights scaled by the lcm of
    the pmf denominators, and grid i scaled by scales[i], the lcm of grid i's
    denominators.
    """
    weight_den = lcm(*(p.denominator for p in dist.probs))
    weights = tuple(p.numerator * (weight_den // p.denominator) for p in dist.probs)
    scales = tuple(lcm(*(v.denominator for v in g)) for g in dist.space.grids)
    grid_ints = tuple(
        tuple(v.numerator * (s // v.denominator) for v in g)
        for g, s in zip(dist.space.grids, scales)
    )
    return weights, scales, grid_ints


@lru_cache(maxsize=32)
def _search_tables(dist: JointDistribution):
    """Integer aggregates powering the cut-configuration search.

    For every pure cut combination c (member i votes to disclose from grid
    position c_i on, c_i in 0..len(grid_i)) and every pure vote mask v, sums
    the pmf weight and the scaled member values of the cells whose votes
    under c equal v, in the integer units of :func:`_scaled`.
    """
    space = dist.space
    n = space.n
    weights, _, grid_ints = _scaled(dist)
    positions = space.positions
    cells = range(len(space.cells))
    combos = {}
    for combo in product(*(range(len(g) + 1) for g in space.grids)):
        agg_w = [0] * (1 << n)
        agg_s = [[0] * (1 << n) for _ in range(n)]
        for c in cells:
            v = 0
            for i in range(n):
                if positions[i][c] >= combo[i]:
                    v |= 1 << i
            w = weights[c]
            agg_w[v] += w
            for i in range(n):
                agg_s[i][v] += grid_ints[i][positions[i][c]] * w
        combos[combo] = (tuple(agg_w), tuple(tuple(s) for s in agg_s))
    return grid_ints, combos


@dataclass
class _SearchContext:
    dist: JointDistribution
    protocol: DeliberationProtocol
    grid_ints: tuple[tuple[int, ...], ...]
    conceal: dict[tuple[int, ...], tuple[int, tuple[int, ...]]]  # combo -> (W, S per member)
    notes: list[str] = field(default_factory=list)

    def stats(self, combo: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        return self.conceal[combo]


def _build_context(dist: JointDistribution, protocol: DeliberationProtocol) -> _SearchContext:
    grid_ints, combos = _search_tables(dist)
    lose = [
        v for v in range(1 << protocol.n) if not protocol.wins(v)
    ]
    conceal = {}
    for combo, (agg_w, agg_s) in combos.items():
        w = sum(agg_w[v] for v in lose)
        s = tuple(sum(agg_s[i][v] for v in lose) for i in range(protocol.n))
        conceal[combo] = (w, s)
    return _SearchContext(dist, protocol, grid_ints, conceal)


def _profile_from_config(
    space: OutcomeSpace, config: tuple[tuple[str, int], ...], weights: dict[int, Fraction]
) -> tuple[StrategyProfile, tuple[MemberCut, ...]]:
    rows = []
    cuts = []
    for i, (kind, pos) in enumerate(config):
        size = len(space.grids[i])
        if kind == "gap":
            rows.append(tuple(ONE if p >= pos else ZERO for p in range(size)))
            cuts.append(MemberCut(cut=pos))
        else:
            m = weights[i]
            rows.append(
                tuple(
                    ONE if p > pos else (m if p == pos else ZERO) for p in range(size)
                )
            )
            cuts.append(MemberCut(cut=pos + 1, atom_pos=pos, atom_weight=m))
    return StrategyProfile(space, tuple(rows)), tuple(cuts)


def _interval_intersect(
    bounds: tuple[Fraction, Fraction, bool, bool], alpha: Fraction, beta: Fraction
) -> tuple[Fraction, Fraction, bool, bool] | None:
    """Intersect {m : alpha + beta*m > 0} into (lo, hi, lo_open, hi_open)."""
    lo, hi, lo_open, hi_open = bounds
    if beta == 0:
        return bounds if alpha > 0 else None
    root = -alpha / beta
    if beta > 0:
        if root > lo or (root == lo and not lo_open):
            lo, lo_open = root, True
    else:
        if root < hi or (root == hi and not hi_open):
            hi, hi_open = root, True
    if lo > hi or (lo == hi and (lo_open or hi_open)):
        return None
    return lo, hi, lo_open, hi_open


def _pick_from_interval(bounds: tuple[Fraction, Fraction, bool, bool]) -> Fraction:
    lo, hi, lo_open, hi_open = bounds
    if (lo < ZERO or (lo == ZERO and not lo_open)) and (hi > ZERO or (hi == ZERO and not hi_open)):
        return ZERO
    if (lo < ONE or (lo == ONE and not lo_open)) and (hi > ONE or (hi == ONE and not hi_open)):
        return ONE
    return (lo + hi) / 2


def _corner_combo(
    config: tuple[tuple[str, int], ...], corner: dict[int, int]
) -> tuple[int, ...]:
    """Pure cut combo matching a 0/1 assignment of the atom weights."""
    combo = []
    for i, (kind, pos) in enumerate(config):
        if kind == "gap":
            combo.append(pos)
        else:
            # weight 1 behaves like cutting at the atom, weight 0 like cutting above it
            combo.append(pos if corner.get(i, 0) == 1 else pos + 1)
    return tuple(combo)


def _config_candidates(
    ctx: _SearchContext, config: tuple[tuple[str, int], ...]
) -> list[dict[int, Fraction]]:
    """Atom-weight assignments that make the configuration a fixed point.

    Gap members need their posterior strictly inside the cut interval; atom
    members need it exactly on the atom's grid value. Each atom's posterior
    equation is multilinear in the *other* atoms' weights only, so the system
    is solved by exact linear propagation, rational quadratic elimination for
    coupled pairs and triples, and a canonical-slice search for degenerate
    families (which admit continua of equilibria; one representative is
    returned, preferring weight 0, the most concealing choice).
    """
    return _AtomSolver(ctx, config).solve()


class _AtomSolver:
    def __init__(self, ctx: _SearchContext, config: tuple[tuple[str, int], ...]):
        self.ctx = ctx
        self.config = config
        self.atoms = [i for i, (kind, _) in enumerate(config) if kind == "atom"]
        self.gaps = [i for i, (kind, _) in enumerate(config) if kind == "gap"]
        self.n = len(config)
        self.k = len(self.atoms)
        self.sliced = False
        # integer concealment aggregates at every 0/1 corner of the atom box
        self.corner_stats: dict[tuple[int, ...], tuple[int, tuple[int, ...]]] = {}
        for bits in product((0, 1), repeat=self.k):
            corner = dict(zip(self.atoms, bits))
            self.corner_stats[bits] = ctx.stats(_corner_combo(config, corner))

    # -- exact evaluation ---------------------------------------------------

    def stats_at(self, weights: dict[int, Fraction]) -> tuple[Fraction, tuple[Fraction, ...]]:
        """Multilinear interpolation of (W, S) over the atom corners."""
        total_w = ZERO
        total_s = [ZERO] * self.n
        for bits, (w, s) in self.corner_stats.items():
            coeff = ONE
            for v, b in zip(self.atoms, bits):
                coeff *= weights[v] if b else ONE - weights[v]
                if coeff == 0:
                    break
            if coeff == 0:
                continue
            total_w += coeff * w
            for q in range(self.n):
                total_s[q] += coeff * s[q]
        return total_w, tuple(total_s)

    def feasible(self, weights: dict[int, Fraction]) -> bool:
        if any(not ZERO <= m <= ONE for m in weights.values()):
            return False
        w, s = self.stats_at(weights)
        if w <= 0:
            return False
        for i in self.atoms:
            pos = self.config[i][1]
            if s[i] != self.ctx.grid_ints[i][pos] * w:
                return False
        for i in self.gaps:
            cut = self.config[i][1]
            if not self.ctx.grid_ints[i][cut - 1] * w < s[i] < self.ctx.grid_ints[i][cut] * w:
                return False
        return True

    def h_corner(self, a: int, bits: tuple[int, ...]) -> int:
        w, s = self.corner_stats[bits]
        pos = self.config[a][1]
        return s[a] - self.ctx.grid_ints[a][pos] * w

    def reduced_h(self, a: int, pinned: dict[int, Fraction]):
        """Corner table of atom a's equation over the unpinned other atoms.

        The equation never involves a's own weight (cells at the atom value
        contribute zero), so a's own corner bit is fixed arbitrarily.
        """
        others = [v for v in self.atoms if v != a and v not in pinned]
        table: dict[tuple[int, ...], Fraction] = {}
        rest = [v for v in self.atoms if v != a and v in pinned]
        for bits in product((0, 1), repeat=len(others)):
            val = ZERO
            for pbits in product((0, 1), repeat=len(rest)):
                coeff = ONE
                for v, b in zip(rest, pbits):
                    coeff *= pinned[v] if b else ONE - pinned[v]
                    if coeff == 0:
                        break
                if coeff == 0:
                    continue
                assign = dict(zip(others, bits)) | dict(zip(rest, pbits))
                assign[a] = 0
                full_bits = tuple(assign[v] for v in self.atoms)
                val += coeff * self.h_corner(a, full_bits)
            table[bits] = val
        return others, table

    # -- one-dimensional pieces ----------------------------------------------

    def interval_pick(self, pinned: dict[int, Fraction], free_var: int) -> Fraction | None:
        """Canonical feasible weight for one remaining free atom.

        With every other atom weight fixed, the concealment aggregates are
        linear in the free weight, so each strict constraint cuts [0,1] down
        to an exact interval.
        """
        w0, s0 = self.stats_at(pinned | {free_var: ZERO})
        w1, s1 = self.stats_at(pinned | {free_var: ONE})
        bounds: tuple[Fraction, Fraction, bool, bool] | None = (ZERO, ONE, False, False)
        lin = [(w0, w1 - w0)]  # concealment must stay on-path: W(m) > 0
        for g in self.gaps:
            cut = self.config[g][1]
            glo = self.ctx.grid_ints[g][cut - 1]
            ghi = self.ctx.grid_ints[g][cut]
            lin.append((s0[g] - glo * w0, (s1[g] - s0[g]) - glo * (w1 - w0)))
            lin.append((ghi * w0 - s0[g], ghi * (w1 - w0) - (s1[g] - s0[g])))
        for alpha, beta in lin:
            bounds = _interval_intersect(bounds, Fraction(alpha), Fraction(beta))
            if bounds is None:
                return None
        return _pick_from_interval(bounds)

    # -- solving -------------------------------------------------------------

    def solve(self) -> list[dict[int, Fraction]]:
        if not self.atoms:
            return [{}] if self.feasible({}) else []
        # corner prefilter: each equation is multilinear in the other atoms'
        # weights, so its range over the box is spanned by its corner values
        for a in self.atoms:
            vals = [
                self.h_corner(a, bits) for bits in product((0, 1), repeat=self.k)
            ]
            if min(vals) > 0 or max(vals) < 0:
                return []
        found = self._solve({}, 0)
        if found is not None:
            return [found]
        if self.sliced:
            self.ctx.notes.append(
                f"a {self.k}-atom configuration was resolved only on canonical slices"
            )
        return []

    def _solve(self, pinned: dict[int, Fraction], depth: int) -> dict[int, Fraction] | None:
        pinned = dict(pinned)
        if any(not ZERO <= m <= ONE for m in pinned.values()):
            return None
        satisfied: set[int] = set()
        # propagate: any equation linear in a single unpinned weight pins it
        changed = True
        while changed:
            changed = False
            for a in self.atoms:
                if a in satisfied:
                    continue
                others, table = self.reduced_h(a, pinned)
                if not others:
                    if table[()] != 0:
                        return None
                    satisfied.add(a)
                elif len(others) == 1:
                    c0, c1 = table[(0,)], table[(1,)]
                    if c0 == c1:
                        if c0 != 0:
                            return None
                        satisfied.add(a)  # holds for every value; the weight stays free
                    else:
                        m = c0 / (c0 - c1)
                        if not ZERO <= m <= ONE:
                            return None
                        pinned[others[0]] = m
                        satisfied.add(a)
                        changed = True
        unpinned = [v for v in self.atoms if v not in pinned]
        coupled = [a for a in self.atoms if a not in satisfied]
        if coupled:
            result = self._eliminate(pinned, satisfied, coupled, unpinned)
            if result is not _BAIL:
                return result
            # fall back to canonical slices of one coupled weight
            if depth >= self.k:
                self.sliced = True
                return None
            branch = None
            for a in coupled:
                others = [v for v in self.atoms if v != a and v not in pinned]
                if others:
                    branch = others[-1]
                    break
            if branch is None:
                return None
            self.sliced = True
            for cand in FREE_WEIGHT_CANDIDATES:
                res = self._solve(pinned | {branch: cand}, depth + 1)
                if res is not None:
                    return res
            return None
        # all equations hold: resolve the free weights against the strict constraints
        if not unpinned:
            return pinned if self.feasible(pinned) else None
        if len(unpinned) == 1:
            pick = self.interval_pick(pinned, unpinned[0])
            if pick is None:
                return None
            weights = pinned | {unpinned[0]: pick}
            return weights if self.feasible(weights) else None
        for combo in product(FREE_WEIGHT_CANDIDATES, repeat=len(unpinned) - 1):
            trial = pinned | dict(zip(unpinned[:-1], combo))
            pick = self.interval_pick(trial, unpinned[-1])
            if pick is None:
                continue
            weights = trial | {unpinned[-1]: pick}
            if self.feasible(weights):
                return weights
        self.sliced = True
        return None

    def _eliminate(self, pinned, satisfied, coupled, unpinned):
        """Closed-form elimination for the generic coupled cores.

        Handles two bilinear equations over two unknowns and the fresh
        three-equation, three-unknown core (quadratic after substitution).
        Returns _BAIL when the structure does not match or a discriminant is
        irrational (the latter is reported upstream).
        """
        if len(coupled) == 2 and len(unpinned) == 2:
            u, v = unpinned
            eq = []
            for a in coupled:
                others, table = self.reduced_h(a, pinned)
                if set(others) != {u, v}:
                    return _BAIL
                c00 = table[tuple(0 for _ in others)]
                bu = tuple(1 if o == u else 0 for o in others)
                bv = tuple(1 if o == v else 0 for o in others)
                c10 = table[bu]
                c01 = table[bv]
                c11 = table[tuple(1 for _ in others)]
                # h = e0 + e1*u + e2*v + e3*u*v
                eq.append((c00, c10 - c00, c01 - c00, c11 - c10 - c01 + c00))
            (a0, a1, a2, a3), (b0, b1, b2, b3) = eq
            if a2 == 0 and a3 == 0:
                return _BAIL  # first equation lost v; propagation should have caught it
            # v = -(a0 + a1 u)/(a2 + a3 u); substitute into the second equation
            q2 = b1 * a3 - b3 * a1
            q1 = b0 * a3 + b1 * a2 - b2 * a1 - b3 * a0
            q0 = b0 * a2 - b2 * a0
            roots = _quadratic_roots(q2, q1, q0)
            if roots is _BAIL:
                return _BAIL
            for mu in roots:
                if not ZERO <= mu <= ONE:
                    continue
                den = a2 + a3 * mu
                if den == 0:
                    if a0 + a1 * mu != 0:
                        continue
                    res = self._solve(pinned | {u: mu}, self.k)  # v handled downstream
                    if res is not None:
                        return res
                    continue
                mv = -(a0 + a1 * mu) / den
                weights = pinned | {u: mu, v: mv}
                others = {x for x in self.atoms if x not in weights}
                if others:
                    res = self._solve(weights, self.k)
                    if res is not None:
                        return res
                elif self.feasible(weights):
                    return weights
            return None
        if len(coupled) == 3 and len(unpinned) == 3:
            i, j, k = coupled
            coef = {}
            for a, (u, v) in ((i, (j, k)), (j, (i, k)), (k, (i, j))):
                others, table = self.reduced_h(a, pinned)
                if set(others) != {u, v}:
                    return _BAIL
                bu = tuple(1 if o == u else 0 for o in others)
                bv = tuple(1 if o == v else 0 for o in others)
                c00 = table[tuple(0 for _ in others)]
                c10, c01 = table[bu], table[bv]
                c11 = table[tuple(1 for _ in others)]
                coef[a] = (c00, c10 - c00, c01 - c00, c11 - c10 - c01 + c00)
            a0, a1, a2, a3 = coef[i]  # h_i = a0 + a1*m_j + a2*m_k + a3*m_j*m_k
            b0, b1, b2, b3 = coef[j]  # h_j = b0 + b1*m_i + b2*m_k + b3*m_i*m_k
            c0, c1, c2, c3 = coef[k]  # h_k = c0 + c1*m_i + c2*m_j + c3*m_i*m_j
            if (a1 == 0 and a3 == 0) or (b1 == 0 and b3 == 0):
                return _BAIL
            # m_j = -(a0 + a2 t)/(a1 + a3 t), m_i = -(b0 + b2 t)/(b1 + b3 t), t = m_k

            def poly_mul(p, q):
                return (p[0] * q[0], p[0] * q[1] + p[1] * q[0], p[1] * q[1])

            terms = [
                (c0, poly_mul((b1, b3), (a1, a3))),
                (-c1, poly_mul((b0, b2), (a1, a3))),
                (-c2, poly_mul((a0, a2), (b1, b3))),
                (c3, poly_mul((b0, b2), (a0, a2))),
            ]
            q2 = sum(c * p[2] for c, p in terms)
            q1 = sum(c * p[1] for c, p in terms)
            q0 = sum(c * p[0] for c, p in terms)
            roots = _quadratic_roots(q2, q1, q0)
            if roots is _BAIL:
                return _BAIL
            for t in roots:
                if not ZERO <= t <= ONE:
                    continue
                den_j = a1 + a3 * t
                den_i = b1 + b3 * t
                if den_j == 0 or den_i == 0:
                    res = self._solve(pinned | {k: t}, self.k)
                    if res is not None:
                        return res
                    continue
                mj = -(a0 + a2 * t) / den_j
                mi = -(b0 + b2 * t) / den_i
                weights = pinned | {i: mi, j: mj, k: t}
                if self.feasible(weights):
                    return weights
            return None
        return _BAIL


class _Bail:
    __slots__ = ()

    def __repr__(self) -> str:
        return "BAIL"


_BAIL = _Bail()


def _sqrt_fraction(value: Fraction) -> Fraction | None:
    if value < 0:
        return None
    num, den = value.numerator, value.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def _quadratic_roots(q2, q1, q0):
    """Rational roots of q2 x^2 + q1 x + q0 = 0; the canonical weights when the
    equation is identically zero; _BAIL when the roots are irrational."""
    q2, q1, q0 = Fraction(q2), Fraction(q1), Fraction(q0)
    if q2 == 0 and q1 == 0:
        return list(FREE_WEIGHT_CANDIDATES) if q0 == 0 else []
    if q2 == 0:
        return [-q0 / q1]
    disc = q1 * q1 - 4 * q2 * q0
    if disc < 0:
        return []
    root = _sqrt_fraction(disc)
    if root is None:
        return _BAIL
    return [(-q1 + root) / (2 * q2), (-q1 - root) / (2 * q2)]


def find_equilibria_report(
    dist: JointDistribution,
    protocol: DeliberationProtocol,
    max_members: int = DEFAULT_MAX_MEMBERS,
    max_grid: int = DEFAULT_MAX_GRID,
) -> tuple[tuple[Equilibrium, ...], tuple[str, ...]]:
    """Exhaustive equilibrium search plus notes on any unresolved configurations.

    Returns the full-disclosure equilibrium (skeptical off-path beliefs) and
    every threshold fixed point over cut configurations, deduplicated by team
    rule and canonically ordered.
    """
    space = dist.space
    if protocol.n != space.n:
        raise EquilibriumError("protocol and distribution have different member counts")
    if not dist.full_support:
        raise EquilibriumError("equilibrium search requires a full-support distribution")
    if space.n > max_members or any(len(g) > max_grid for g in space.grids):
        raise SearchCapExceeded(
            f"search space beyond caps (n<={max_members}, grid<={max_grid})"
        )

    ctx = _build_context(dist, protocol)
    results: dict[tuple[Fraction, ...], Equilibrium] = {}

    # Full disclosure, supported by skeptical off-path beliefs.
    all_ones = StrategyProfile.constant(space, ONE)
    fd_post = space.min_vector
    fd_rule = TeamRule.constant(space, ONE)
    fd_ver = verify_equilibrium(all_ones, fd_post, dist, protocol)
    results[fd_rule.values] = Equilibrium(
        profile=all_ones,
        rule=fd_rule,
        posteriors=fd_post,
        classification=FULL,
        off_path=True,
        cuts=tuple(MemberCut(cut=0) for _ in range(space.n)),
        verification=fd_ver,
    )

    member_options = []
    for g in space.grids:
        opts: list[tuple[str, int]] = [("gap", c) for c in range(1, len(g))]
        opts += [("atom", p) for p in range(len(g))]
        member_options.append(opts)

    for config in product(*member_options):
        for weights in _config_candidates(ctx, config):
            profile, cuts = _profile_from_config(space, config, weights)
            rule = team_rule(profile, protocol)
            if rule.values in results:
                continue
            try:
                post = posterior_no_disclosure(dist, rule)
            except OffPathPosterior:
                continue
            ver = verify_equilibrium(profile, post, dist, protocol)
            if not ver.ok:
                ctx.notes.append(
                    f"candidate configuration {config} failed verification"
                )
                continue
            results[rule.values] = Equilibrium(
                profile=profile,
                rule=rule,
                posteriors=post,
                classification=classify_rule(rule),
                off_path=False,
                cuts=cuts,
                verification=ver,
            )

    ordered = tuple(
        results[k] for k in sorted(results.keys(), reverse=True)
    )
    return ordered, tuple(dict.fromkeys(ctx.notes))


def find_equilibria(
    dist: JointDistribution,
    protocol: DeliberationProtocol,
    max_members: int = DEFAULT_MAX_MEMBERS,
    max_grid: int = DEFAULT_MAX_GRID,
) -> tuple[Equilibrium, ...]:
    eqs, _ = find_equilibria_report(dist, protocol, max_members, max_grid)
    return eqs


def iterate_posteriors(
    dist: JointDistribution,
    protocol: DeliberationProtocol,
    start: Sequence[Rational] | None = None,
    max_rounds: int = 200,
) -> tuple[tuple[Fraction, ...], bool]:
    """Fast fixed-point heuristic: repeatedly best-respond to candidate beliefs.

    From a candidate posterior vector, each member discloses strictly above it
    and conceals at or below it (worst outcomes always conceal); the induced
    rule then Bayes-updates the candidate. Returns (posteriors, converged).
    The map can cycle, so this is a shortcut only; the exhaustive
    configuration search remains the ground truth.
    """
    space = dist.space
    if protocol.n != space.n:
        raise EquilibriumError("protocol and distribution have different member counts")
    current = (
        tuple(as_fraction(p) for p in start) if start is not None else dist.mean_vector
    )
    seen = {current}
    for _ in range(max_rounds):
        rows = tuple(
            tuple(ONE if v > current[i] else ZERO for v in grid)
            for i, grid in enumerate(space.grids)
        )
        rule = team_rule(StrategyProfile(space, rows), protocol)
        try:
            updated = posterior_no_disclosure(dist, rule)
        except OffPathPosterior:
            return space.min_vector, True  # everything disclosed: skeptical beliefs
        if updated == current:
            return current, True
        if updated in seen:
            return updated, False  # cycle detected
        seen.add(updated)
        current = updated
    return current, False


# ---------------------------------------------------------------------------
# Consistency with deliberation (belief refinement)
# ---------------------------------------------------------------------------


def _concealment_scan(dist: JointDistribution, protocol: DeliberationProtocol, cap: int):
    """Concealment aggregates of every deterministic own-outcome profile.

    Member i's strategy is one int bitmask over their grid positions, the
    first position in the highest bit, so profiles come in the order of
    ``product((0, 1), repeat=len(grid))`` per member. Each cell's pure vote
    mask is looked up in the protocol's winning table. For every profile that
    conceals with positive probability, yields ``(rows, W, S, concealed)``:
    the bitmasks, the concealed pmf mass W and the concealed value sums S_i
    in the integer units of :func:`_scaled` (so S_i / W is member i's
    posterior times scales[i]), and the number of concealed cells,
    zero-probability cells included.
    """
    space = dist.space
    sizes = [len(g) for g in space.grids]
    total = 1 << sum(sizes)
    if total > cap:
        raise SearchCapExceeded(
            f"{total} deterministic profiles exceed the cap of {cap}"
        )
    weights, _, grid_ints = _scaled(dist)
    positions = space.positions
    values = [
        tuple(grid_ints[i][p] * w for p, w in zip(positions[i], weights))
        for i in range(space.n)
    ]
    loses = [not protocol.wins(v) for v in range(1 << space.n)]
    # votes[i][r][c]: member i's bit in cell c's vote mask when their row is r
    votes = [
        [
            tuple((r >> (size - 1 - p) & 1) << i for p in positions[i])
            for r in range(1 << size)
        ]
        for i, size in enumerate(sizes)
    ]
    for rows in product(*(range(1 << size) for size in sizes)):
        masks = votes[0][rows[0]]
        for i in range(1, space.n):
            masks = map(or_, masks, votes[i][rows[i]])
        concealed = list(map(loses.__getitem__, masks))
        mass = sum(compress(weights, concealed))
        if mass:
            sums = [sum(compress(v, concealed)) for v in values]
            yield rows, mass, sums, concealed.count(True)


def _pure_profile(space: OutcomeSpace, rows: Sequence[int]) -> StrategyProfile:
    """The StrategyProfile of per-member bitmasks from :func:`_concealment_scan`."""
    return StrategyProfile(
        space,
        tuple(
            tuple(ONE if r >> (len(g) - 1 - p) & 1 else ZERO for p in range(len(g)))
            for g, r in zip(space.grids, rows)
        ),
    )


def consistent_with_deliberation(
    posteriors: Sequence[Rational],
    dist: JointDistribution,
    protocol: DeliberationProtocol,
    profile_cap: int = DEFAULT_PROFILE_CAP,
) -> bool:
    """Whether some deterministic own-outcome profile conceals with positive
    probability and Bayes-updates to exactly the given posteriors.

    Profiles are scanned in scaled integers; a witness is confirmed through
    the Fraction path (team rule, then Bayes posterior) before True is
    returned.
    """
    space = dist.space
    if protocol.n != space.n:
        raise EquilibriumError("protocol and distribution have different member counts")
    target = tuple(as_fraction(p) for p in posteriors)
    if len(target) != space.n:
        raise EquilibriumError("posterior vector has wrong length")
    _, scales, _ = _scaled(dist)
    goal = [t * s for t, s in zip(target, scales)]
    for rows, mass, sums, _ in _concealment_scan(dist, protocol, profile_cap):
        if all(s * g.denominator == g.numerator * mass for s, g in zip(sums, goal)):
            rule = team_rule(_pure_profile(space, rows), protocol)
            if posterior_no_disclosure(dist, rule) != target:
                raise AssertionError("integer scan disagrees with posterior_no_disclosure")
            return True
    return False


def full_disclosure_is_plausible(
    dist: JointDistribution, protocol: DeliberationProtocol
) -> bool:
    """Whether a full-disclosure equilibrium survives the deliberation refinement.

    Decided by the protocol alone: full disclosure is plausible exactly when
    reaching "disclose" does not require strictly broader support than
    reaching "conceal". The distribution argument is kept for interface parity
    with the brute-force search below.
    """
    del dist
    return not protocol.disclosure_requires_more_consensus()


def plausible_full_disclosure_by_search(
    dist: JointDistribution,
    protocol: DeliberationProtocol,
    profile_cap: int = DEFAULT_PROFILE_CAP,
) -> bool:
    """Brute-force twin of :func:`full_disclosure_is_plausible`.

    Searches for a full-disclosure equilibrium whose supporting posteriors are
    justified by some deterministic own-outcome profile with concealment:
    either beliefs that sustain the always-disclose profile, or an on-path
    equilibrium that conceals at most one outcome. Profiles are scanned in
    scaled integers; a witness is confirmed through the Fraction path (team
    rule, Bayes posterior and, for the on-path case, classification and
    verification) before True is returned.
    """
    space = dist.space
    if protocol.n != space.n:
        raise EquilibriumError("protocol and distribution have different member counts")
    n = space.n
    mins = space.min_vector
    full_mask = (1 << n) - 1
    # Coalitions that could block disclosure when everyone else votes yes.
    blocking = [
        [i for i in range(n) if mask >> i & 1]
        for mask in range(1, 1 << n)
        if not protocol.wins(full_mask ^ mask)
    ]
    _, _, grid_ints = _scaled(dist)
    floors = [g[0] for g in grid_ints]
    for rows, mass, sums, concealed in _concealment_scan(dist, protocol, profile_cap):
        # The deviation conditions of the always-disclose profile reduce to:
        # every coalition able to block disclosure must contain a member whose
        # belief already sits at their worst outcome (otherwise there is an
        # outcome where the whole coalition strictly prefers concealment).
        supported = all(
            any(sums[i] <= floors[i] * mass for i in grp) for grp in blocking
        )
        if not supported and concealed > 1:
            continue
        profile = _pure_profile(space, rows)
        rule = team_rule(profile, protocol)
        post = posterior_no_disclosure(dist, rule)
        if supported:
            if not all(any(post[i] <= mins[i] for i in grp) for grp in blocking):
                raise AssertionError("integer scan disagrees with posterior_no_disclosure")
            return True
        if classify_rule(rule) != FULL:
            raise AssertionError("integer scan disagrees with classify_rule")
        if verify_equilibrium(profile, post, dist, protocol).ok:
            return True
    return False
