"""Equilibrium computation for the team-disclosure game.

An equilibrium is a per-member disclosure strategy (a probability of voting
"disclose" for each own outcome), together with the observer's no-disclosure
posterior means, such that no single member or coalition that could flip the
team decision wants to, and posteriors are Bayes-consistent whenever
concealment happens with positive probability.

Every equilibrium is equivalent to one in threshold form: vote to disclose
above your own no-disclosure posterior, conceal below it, and mix only at an
exact tie. The search therefore runs over "cut configurations": per member
either a cut strictly between two adjacent grid values, or an indifference
atom sitting exactly on a grid value with a mixing weight. Atom weights
satisfy a multilinear system solved exactly by :class:`_AtomSolver` on the
integer algebra of :mod:`._poly`. Configurations are first screened by
corner sign masks (:class:`_SearchContext`): integer bitmasks over the pure
cut combinations. Under a pure combination the team conceals exactly the
cells whose vote mask loses, so a combination's concealed mass and value
sums are a sum of per-vote-mask tables over the protocol's losing masks
(:func:`_build_context`). The tables are broadword ints: one int per vote
mask holds every field of every combination in a slot of its own, each
member's grid shifted to start at 0 so that no slot is negative and no sum
carries into the next slot. Everything that does not depend on the
protocol is one search state per distribution (:class:`_SearchState`), a
fixed set of ints built the first time the distribution is searched: the
vote tables, the combinations' slab masks, and the verified
full-disclosure entry, which is the same under every protocol. So a
protocol adds up its losing masks' tables and signs every combination at
once, a few big-int operations per member and grid value
(:func:`_search_context`); a solver reads its box corners' entries back
from that sum (:meth:`_SearchContext.corners`), and a candidate's
posterior comes from the same corner entries (:func:`_corner_posterior`).

The masks reject, without solving, every configuration with no solution that
a sign test at the corners of its weight box can see (:func:`_cut_configs`).
Each constraint is a convex combination of its corner values, and an atom
equation that has one sign on a set of corners is 0 at a point carried by
those corners only if it is 0 at each of them. So a solution is carried by
the box's zero set: the concealing corners (W > 0) left once every atom
equation that is one-signed on the corners left has dropped the corners
where it is not 0 (:func:`_zero_set`). A configuration is rejected when that
set is empty or a gap bound fails on all of it. Under full support no cell
is concealed where W = 0, so every S_i and equation is 0 there and those
corners change nothing. The screen walks the members depth first and drops
a prefix as soon as its zero set fails, since adding members only shrinks
the zero set.

A configuration with no atom is one combination, where the screen has
already checked W > 0 and every gap bound, so it is taken without a solver.
So is a configuration whose atom equations are 0 at every corner of its
weight box and whose all-zero corner has W > 0 and both strict bounds of
every gap member: it is a family in every atom weight, taken at the
all-zero corner, which is the solver's first solution
(:func:`_zero_corner_family`). Each other configuration yields checked
weights, is proven infeasible, or is noted unresolved in the search notes;
nothing is approximated. The search is not yet exhaustive at four members:
a configuration is unresolved when its only solutions have irrational
weights, when its equations do not reduce to one free weight, or when it
has three or more free weights and a gap member and no combination of
``FREE_WEIGHT_CANDIDATES`` for all but the last two is feasible.

Where a configuration admits a continuum of equilibria (free mixing weights),
one canonical representative is returned: each free weight prefers 0, then
1, then the interior ``FREE_WEIGHT_CANDIDATES`` in order, then the simplest
rational in the first feasible one-dimensional cell; isolated solutions are
taken in increasing order of the weight that carries them.

The belief refinement (consistency with deliberation, and the brute-force
twin of the full-disclosure plausibility predicate) reads every
deterministic own-outcome profile from one block kernel (:func:`_blocks`).
A member's row is a bitmask over their grid positions, and its cells come
from a table built once per space (``OutcomeSpace._row_cells``). For each
prefix of rows of all members but the last, the kernel gives ``kept``, the
cells no coalition of those members discloses, and ``pivot``, the cells
where they complete a coalition with the last member; the profile with the
last member at a row conceals ``kept`` less ``pivot`` on that row's cells.
The kernel holds a block of prefixes in byte slots of one int, one slot per
prefix with a spare top bit (:class:`_ScanState`, one per distribution, on
a slot layout shared by every distribution on grids of the same lengths).
Each slotted member's row cells at every prefix of the block sit in one
int, so a protocol's ``kept`` and ``pivot`` for the whole block take one or
two big-int ANDs and one OR or AND-NOT per minimal winning coalition. The
plausibility scan decides every prefix of a block at once: a member's floor
condition and the concealed mass of a coalition's least row are slot-wise
nonzero tests, read off the carry into each slot's spare bit, and only the
first flagged prefix is read out of its slot. The consistency scan reads
the blocks slot by slot (:func:`_slot_prefixes`) and settles the last
member once per prefix: two packed sums per prefix, not one per profile,
from the subset-sum tables of :mod:`.outcomes`, with each member's
posterior condition packed per target into one int as a signed field
(:func:`.outcomes._pack`). Every positive refinement answer is confirmed by
an integer check of its first witness profile's concealed set, in
``product`` order, built from the witness's rows alone
(:func:`_witness_holds`), before it is returned.

One cap bounds the search and both refinement scans: at most 4 members and
at most 20 grid values in all (:func:`_check_caps`), so at most 2^20
deterministic profiles, 625 cells and 1296 pure cut combinations. It is not
a parameter: every space the search takes, the scans take too.

The team rule and the Bayes posterior are integer kernels too: a cell where
every member votes purely is one winning-table lookup, the multilinear sum
runs only over the members who mix, and the posterior is one Fraction of
concealment sums over the pmf and grids scaled to common denominators.
Candidates are told apart by their rule values as integer pairs.
Verification packs each cell's vote and gain flags into one int and checks
coalitions only at cells where some coalition could gain, and at no cell
when no member gains from a vote they do not cast (as at every threshold
profile).
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate, chain, combinations, compress, product
from math import prod
from operator import and_, attrgetter, mul, not_, or_
from typing import Iterator, NamedTuple, Sequence

from . import _poly
from .outcomes import (
    JointDistribution,
    OffPathPosterior,
    OutcomeSpace,
    _chunk_sum,
    _chunks,
    _pack,
    _slabs,
    _subset_sums,
    _subset_table,
    _unpack,
    posterior_no_disclosure,
)
from .protocols import DeliberationProtocol, _submasks
from .rationals import ONE, ZERO, Rational, as_fraction

# Preference order of a free mixing weight (most concealing first); with
# three or more free weights and a gap member, the only values tried for all
# but the last two (:meth:`_AtomSolver._free`).
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
    """Raised when a search is asked for a space beyond the cap
    (:func:`_check_caps`)."""


class EquilibriumError(ValueError):
    """Raised for dimension mismatches and malformed inputs."""


# ---------------------------------------------------------------------------
# Strategy profiles and team rules
# ---------------------------------------------------------------------------


def _outside_unit_interval(values):
    """The first of the values outside [0, 1], or None. ZERO and ONE pass by
    identity, any other Fraction on its numerator and denominator."""
    for v in values:
        if v is ZERO or v is ONE:
            continue
        if type(v) is Fraction:
            num, den = v.as_integer_ratio()
            if 0 <= num <= den:
                continue
        elif ZERO <= v <= ONE:
            continue
        return v
    return None


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
            bad = _outside_unit_interval(vals)
            if bad is not None:
                raise EquilibriumError(f"vote probability {bad} outside [0,1]")

    def vote_vector(self, cell: Sequence[Rational]) -> tuple[Fraction, ...]:
        c = self.space.index(cell)
        return tuple(row[at[c]] for row, at in zip(self.values, self.space.positions))

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
        bad = _outside_unit_interval(self.values)
        if bad is not None:
            raise EquilibriumError(f"disclosure probability {bad} outside [0,1]")

    def prob(self, cell: Sequence[Rational]) -> Fraction:
        return self.values[self.space.index(cell)]

    @staticmethod
    def constant(space: OutcomeSpace, value: Rational) -> "TeamRule":
        return TeamRule(space, (as_fraction(value),) * len(space.cells))


def team_rule(profile: StrategyProfile, protocol: DeliberationProtocol) -> TeamRule:
    """Aggregate a profile into the team rule via the multilinear extension."""
    if protocol.n != profile.space.n:
        raise EquilibriumError("protocol and profile have different member counts")
    return TeamRule(profile.space, _rule_values(profile, protocol))


def _rule_values(profile: StrategyProfile, protocol: DeliberationProtocol) -> tuple[Fraction, ...]:
    """``protocol.evaluate(profile.vote_vector(cell))`` for every cell, in integers.

    Each member's vote at each grid position becomes an int code: their bit
    in the low n bits when they vote 1, 0 when they vote 0, and when they mix
    the position + 1 in a slot of their own above the low n bits. A cell's
    code is the OR of its members' codes. A pure code is one lookup in the
    winning table; a mixed one is ``protocol._extension`` at its mixing
    members' votes, the kernel ``evaluate`` also uses, once per distinct code.
    """
    space = profile.space
    n = space.n
    width = max(map(len, space.grids)).bit_length()
    mixing = {}  # mixed code -> (member bit, vote numerator, vote denominator)
    codes = [0]
    for i, row in enumerate(profile.values):
        member = []
        for p, v in enumerate(row):
            num, den = (v if type(v) is Fraction else as_fraction(v)).as_integer_ratio()
            if num == 0:
                member.append(0)
            elif num == den:
                member.append(1 << i)
            else:
                code = (p + 1) << (n + i * width)
                mixing[code] = (1 << i, num, den)
                member.append(code)
        codes = [c | m for c in codes for m in member]
    table = protocol._winning_table
    pure = (1 << n) - 1
    slot = (1 << width) - 1
    values = {}
    for code in set(codes):
        if code <= pure:
            values[code] = ONE if table[code] else ZERO
            continue
        keys = (code & (slot << (n + i * width)) for i in range(n))
        values[code] = protocol._extension(code & pure, [mixing[key] for key in keys if key])
    return tuple(map(values.__getitem__, codes))


def classify_rule(rule: TeamRule) -> str:
    """full / partial / interior, from which outcomes are ever concealed."""
    concealed = [c for c, d in enumerate(rule.values) if d.numerator < d.denominator]
    if len(concealed) <= 1:
        return FULL
    for at in rule.space.positions:
        if len({at[c] for c in concealed}) < 2:
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
    for sub in _submasks(free):
        if wins(rest | sub | coalition) and not wins(rest | sub):
            return True
    return False


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
    try:
        bayes = posterior_no_disclosure(dist, team_rule(profile, protocol))
    except OffPathPosterior:
        bayes = None
    return _verify(profile, post, bayes, dist, protocol)


def _verify(
    profile: StrategyProfile,
    post: tuple[Fraction, ...],
    bayes: tuple[Fraction, ...] | None,
    dist: JointDistribution,
    protocol: DeliberationProtocol | None,
) -> VerificationReport:
    """:func:`verify_equilibrium` given the profile's Bayes posteriors
    (None when it never conceals), for callers that already hold them.

    A coalition can gain from a deviation at a cell only where one of its
    members gains from a vote they do not cast there. When no member does so
    at any grid position, as at a threshold profile, only the Bayes check
    is left, the cells are not visited and the protocol is not read.
    """
    space = dist.space
    n = space.n
    # per member, the scaled grid values, the votes and the posterior as
    # den and num * scale, compared in integers: x > num/den exactly when
    # (x * scale) * den > num * scale
    scaled = dist._scaled
    sides = []
    for xs, scale, row, p in zip(scaled.grid_ints, scaled.scales, profile.values, post):
        num, den = p.as_integer_ratio()
        sides.append((xs, row, den, num * scale))
    # A position is flagged when the member gains from disclosure but votes
    # below 1, or from concealment but votes above 0. Every coalition in
    # gain_up holds a member above not voting 1, and every one in gain_down a
    # member below voting above 0: a cell can hold a violation only where
    # some member's position is flagged. On the sorted grid the positions
    # above are a suffix and those below a prefix, found by bisection:
    # x * den > bar exactly when x > bar // den, and x * den < bar exactly
    # when x < ceil(bar / den).
    flagged = False
    for xs, row, den, bar in sides:
        below = bisect_left(xs, -(-bar // den))
        above = bisect_right(xs, bar // den)
        if row[:below].count(ZERO) < below or row[above:].count(ONE) < len(row) - above:
            flagged = True
            break
    # per member and grid position, four n-bit fields of one int holding the
    # member's bit when they vote 1, mix, gain from disclosure and gain from
    # concealment; a cell's code is the OR of its members' codes, built in
    # cell order, and only when some position is flagged
    full = (1 << n) - 1
    codes = []
    if flagged:
        wins = protocol.wins
        codes = [0]
        for i, (xs, row, den, bar) in enumerate(sides):
            bit = 1 << i
            member = []
            for x, v in zip(xs, row):
                vn, vd = v.as_integer_ratio()
                x *= den
                member.append(
                    (bit if vn == vd else 0)
                    | (bit if 0 < vn < vd else 0) << n
                    | (bit if x > bar else 0) << 2 * n
                    | (bit if x < bar else 0) << 3 * n
                )
            codes = [c | m for c in codes for m in member]
    violations: list[Violation] = []
    for cell, code in zip(space.cells, codes):
        ones, mixed, above, below = code & full, code >> n & full, code >> 2 * n & full, code >> 3 * n
        if not (above & ~ones or below & (ones | mixed)):
            continue
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
    if bayes is not None and bayes != post:
        violations.append(
            Violation(
                "bayes",
                f"stated posteriors {tuple(map(str, post))} differ from the "
                f"Bayes-consistent ones {tuple(map(str, bayes))}",
            )
        )
    return VerificationReport(not violations, bayes is None, tuple(violations), bayes)


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


def _first_row(step: int, size: int, stride: int, slots: int) -> int:
    """The int of ``slots`` slots, ``step`` bytes each, lowest slot first,
    read as periods of ``size`` rows of ``stride`` slots: all ones in the
    first row of every period and 0 elsewhere. Row r is this int shifted up
    by r rows."""
    period = b"\xff" * (step * stride) + bytes(step * stride * (size - 1))
    return int.from_bytes(period * (slots // (size * stride)), "little")


def _slot_masks(sizes: Sequence[int], strides: Sequence[int], step: int) -> tuple[int, list[list[int]]]:
    """``top``, the top bit of the slot of every pure cut combination, and
    ``slabs[i][c]``, that bit of the combinations with c_i = c, for cut
    ranges of ``sizes`` in ``product`` order and member strides ``strides``."""
    count = prod(sizes)
    top = int.from_bytes((bytes(step - 1) + b"\x80") * count, "little")
    slabs = []
    for size, stride in zip(sizes, strides):
        first = _first_row(step, size, stride, count) & top
        slabs.append([first << 8 * step * stride * c for c in range(size)])
    return top, slabs


def _vote_tables(
    columns: Sequence[Sequence[int]], cells: Sequence[int], sizes: Sequence[int], strides: Sequence[int], step: int
) -> list[int]:
    """The search state's vote tables (:class:`_SearchState`), one int per
    vote mask. ``columns`` holds one entry >= 0 per field and cell, and
    ``cells`` each cell's combination index, its positions taken as cuts
    (c_i = p_i). The cells are placed once, then summed one member axis at
    a time, last member first, into the rows before each cut (``below``)
    and from it on (``above``), so table m holds the sums over the cells
    where exactly the members in the vote mask m vote 1. ``below`` adds the
    table shifted up by s = 1..len(grid_i) rows, each under a mask of the
    rows that stay on the axis; its last row is the axis total, which
    ``above`` spreads over every row less ``below``. Every slot holds a sum
    of entries over a set of cells, so none overflows or borrows.
    """
    count = prod(sizes)
    slots = [bytes(step)] * (len(columns) * count)
    for f, column in enumerate(columns):
        at = f * count
        for b, entry in zip(cells, column):
            slots[at + b] = entry.to_bytes(step, "little")
    tables = [int.from_bytes(b"".join(slots), "little")]
    for size, stride in zip(reversed(sizes), reversed(strides)):
        shift = 8 * step * stride
        first = _first_row(step, size, stride, len(slots))
        rows = [first << r * shift for r in range(size)]
        keeps = list(accumulate(rows, or_))  # keeps[r]: rows 0..r
        split = []
        for table in tables:
            below = sum([(table & keeps[size - 1 - s]) << s * shift for s in range(1, size)])
            line = below & rows[-1]
            total = sum([line >> r * shift for r in range(size)])
            split += (below, total - below)
        tables = split
    return tables


class _SearchState:
    """The equilibrium search's state for one distribution, built the first
    time it is searched (``JointDistribution._search``) and shared by every
    protocol searched on it: a fixed set of ints, none of which depends on
    the protocol.

    The pure cut combinations (member i votes to disclose from grid position
    c_i on, c_i in 0..len(grid_i)) are taken in ``product`` order, ``count``
    of them, with ``strides[i]`` member i's stride. Each is a slot of
    ``step`` bytes in a broadword int, combination b's slot starting at bit
    8*step*b. ``tables[m]`` holds, per combination, the sums over the cells
    where exactly the members in the vote mask m (bit i for member i) vote
    1 (:func:`_vote_tables`): field 0 (slots 0..count-1) the scaled weight W,
    field i+1 member i's weighted scaled value S_i with their grid shifted
    by ``lows[i]``, its minimum, to start at 0. Every slot is then >= 0, and
    S_i - x*W is unchanged when x is shifted too. ``step`` is the fewest
    whole bytes with 2**(8*step - 1) above the largest grid spread (at least
    1) times the total weight, which bounds every slot and every
    S_i - x*W (:func:`_search_context`).

    ``top`` holds the top bit of every combination's slot and
    ``slabs[i][c]`` that bit of the combinations with c_i = c; the sign
    masks of a context are ints of the same slot bits. ``full_disclosure``
    is the verified full-disclosure entry (:func:`_full_disclosure`).
    """

    def __init__(self, dist: JointDistribution) -> None:
        scaled = dist._scaled
        self.grid_ints = scaled.grid_ints
        self.lows = [g[0] for g in self.grid_ints]
        sizes = [len(g) + 1 for g in self.grid_ints]
        self.strides = [prod(sizes[i + 1:]) for i in range(len(sizes))]
        self.count = prod(sizes)
        bound = max([1, *(g[-1] - g[0] for g in self.grid_ints)]) * scaled.den
        self.step = bound.bit_length() // 8 + 1  # the fewest bytes with 2**(8*step - 1) > bound
        self.top, self.slabs = _slot_masks(sizes, self.strides, self.step)
        columns = [scaled.weights]
        columns += [[v - lo * w for v, w in zip(vs, scaled.weights)] for vs, lo in zip(scaled.values, self.lows)]
        cells = [sum(map(mul, at, self.strides)) for at in zip(*dist.space.positions)]
        self.tables = _vote_tables(columns, cells, sizes, self.strides, self.step)
        self.full_disclosure = _full_disclosure(dist)


class _SearchContext(NamedTuple):
    """One protocol's sign masks of the pure cut combinations of a search
    state, and the (W, S) sums they were read from (:func:`_search_context`).

    ``sums`` is the protocol's sum of vote tables as bytes, in the state's
    slots. The masks are ints of the state's slot top bits, one per
    combination: ``w_pos`` holds those with W > 0, and ``above[i][p]``
    (``below[i][p]``) those with S_i - x_p*W > 0 (< 0) for member i's grid
    value x_p. Every W is >= 0, as concealed mass is, and a combination with
    W = 0 conceals no cell of a full-support distribution, so its sums are 0
    and ``above`` and ``below`` lie inside ``w_pos``.
    """

    state: _SearchState
    sums: bytes
    w_pos: int
    above: list[list[int]]
    below: list[list[int]]

    def corners(self, config: tuple[tuple[str, int], ...]) -> list[tuple[int, tuple[int, ...]]]:
        """The (W, S) entries at the corners of a configuration's atom box,
        in ``product((0, 1))`` order of the atom weights, read from
        ``sums`` with each S_i's grid shift undone. Weight 0 behaves like
        cutting above the atom, weight 1 like cutting at it, one grid
        position lower; each combination's index comes from the state's
        strides."""
        state = self.state
        step, strides, lows = state.step, state.strides, state.lows
        corners = [sum((pos + (kind == "atom")) * s for (kind, pos), s in zip(config, strides))]
        for (kind, _), stride in zip(config, strides):
            if kind == "atom":
                corners = [c for corner in corners for c in (corner, corner - stride)]
        field = state.count * step
        sums = self.sums
        box = []
        for c in corners:
            at = c * step
            w = int.from_bytes(sums[at:at + step], "little")
            s = []
            for lo in lows:
                at += field
                s.append(int.from_bytes(sums[at:at + step], "little") + lo * w)
            box.append((w, tuple(s)))
        return box


def _search_context(state: _SearchState, total: int) -> _SearchContext:
    """The sign masks of the combinations whose (W, S) sums ``total`` holds,
    in the state's slots.

    With L = 8*state.step, every slot of W and of each shifted S_i lies in
    [0, 2**(L-1)), and so does x*W for a shifted grid value x, so each
    D = S_i - x*W lies strictly inside +-2**(L-1). One small-int multiply
    and one subtraction give D + bias in every slot at once, with no borrow
    across slots: with bias 2**(L-1) - 1 the slot's top bit is set exactly
    when D > 0, that is ``above``; with bias 2**(L-1) it is clear exactly
    when D < 0, that is ``below``. ``w_pos`` is W's ``above``. Reads the
    state's ``grid_ints``, ``lows``, ``count``, ``step`` and ``top`` only.
    """
    step = state.step
    bits = 8 * step * state.count
    field = (1 << bits) - 1
    top = state.top
    edge = 1 << (8 * step - 1)
    bias = (edge - 1) * (top >> (8 * step - 1))  # 2**(L-1) - 1 in every slot; top holds 2**(L-1)
    w = total & field
    above, below = [], []
    for i, (xs, lo) in enumerate(zip(state.grid_ints, state.lows), 1):
        s = total >> (i * bits) & field
        up, down = s + bias, s + top
        member_above, member_below = [], []
        for x in xs:
            xw = (x - lo) * w
            member_above.append(up - xw & top)
            member_below.append(~(down - xw) & top)
        above.append(member_above)
        below.append(member_below)
    sums = total.to_bytes((len(state.lows) + 1) * state.count * step, "little")
    return _SearchContext(state, sums, w + bias & top, above, below)


def _build_context(dist: JointDistribution, protocol: DeliberationProtocol) -> _SearchContext:
    """The search context of a protocol on a distribution: under a pure cut
    combination the team conceals exactly the cells whose vote mask loses,
    so the protocol's (W, S) sums are the sum of the vote tables of the
    distribution's state (``dist._search``) over its losing masks. Mask 0
    always loses, so that sum is never empty."""
    state = dist._search
    return _search_context(state, sum(compress(state.tables, map(not_, protocol._winning_table))))


def _zero_set(z: int, equations: Sequence[tuple[int, int]]) -> int:
    """The corners of ``z`` where a solution's weights can put positive
    coefficient, given the (``above``, ``below``) masks of its atom
    equations.

    A multilinear table that has one sign on every corner of ``z``, and is 0
    at a point whose coefficients are positive only on corners of ``z``, is 0
    at each of those corners. So while some equation is one-signed on the
    corners left (it misses ``above`` or ``below``), only the corners where
    it is 0 are kept. The fixpoint is the largest subset of ``z`` on which
    every equation is either 0 throughout or takes both signs, whatever the
    order the equations are taken in.
    """
    last = None
    while z != last:
        last = z
        for above, below in equations:
            if not z & above or not z & below:
                z &= ~(above | below)
    return z


def _cut_configs(ctx: _SearchContext):
    """The cut configurations that survive a corner screen, in ``product``
    order of each member's gaps then atoms.

    A configuration's corner box is the AND of one slab mask per member: the
    cut c of a gap member, both ends p and p+1 of an atom member (weight 1
    and 0). Every constraint is multilinear in the atom weights, so anywhere
    in the box it is a convex combination of its corner values, and a
    solution puts positive coefficient only on corners of the box's zero set
    (:func:`_zero_set` over the atom members' equations). W > 0 and each gap
    member's two strict bounds must hold at one of those corners, so a
    configuration is skipped when its zero set misses ``w_pos``, or misses
    ``above[c - 1]`` or ``below[c]`` of a gap member with cut c. No need is
    met at a corner with W = 0, where no cell is concealed (the search
    requires full support) and every sum is 0, so the zero sets are taken
    inside ``w_pos``. Each atom equation takes both signs on the zero set or
    is 0 on all of it, so it has a concealing corner with h <= 0 and one
    with h >= 0 there.

    The walk goes depth first over the members, keeping the zero set of the
    members chosen so far and their gap needs. Adding a member shrinks the
    box and may add an equation, so a completion's zero set is the zero set
    of its prefix's zero set cut to the new slab, and a prefix whose zero
    set is empty or misses a need is not extended.
    """
    options = []
    for slabs, above, below in zip(ctx.state.slabs, ctx.above, ctx.below):
        size = len(above)
        opts = [(("gap", c), slabs[c], (above[c - 1], below[c]), ()) for c in range(1, size)]
        opts += [(("atom", p), slabs[p] | slabs[p + 1], (), ((above[p], below[p]),)) for p in range(size)]
        options.append(opts)
    last = len(options) - 1

    def walk(depth, prefix, z, needs, equations):
        for config, slab, need, equation in options[depth]:
            eqs = equations + equation
            narrowed = _zero_set(z & slab, eqs)
            kept = needs + need
            if not narrowed or not all(map(narrowed.__and__, kept)):
                continue
            if depth == last:
                yield prefix + (config,)
            else:
                yield from walk(depth + 1, prefix + (config,), narrowed, kept, eqs)

    return walk(0, (), ctx.w_pos, (), ())


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


# ---------------------------------------------------------------------------
# Atom solver
# ---------------------------------------------------------------------------


class _AtomSolver:
    """Atom weights that make one cut configuration a fixed point.

    Gap members need their posterior strictly inside the cut interval, atom
    members need it exactly on the atom's grid value, and concealment must
    happen with positive probability. Atom a's equation S_a - x_a*W, the
    concealed mass W and every gap bound are multilinear in the atom weights
    (a's equation never involves a's own weight), so on the weight box each
    is a convex combination of its values at the box's corners. The solver
    is exact throughout. :func:`_cut_configs` has already screened the
    configuration by the signs of these tables at the corners, so the solver
    only sees boxes whose zero set (:func:`_zero_set`, concealing corners
    only) is not empty, holds a corner where each gap bound is positive, and
    carries each atom equation with both signs or as 0 throughout:

    - propagation: an equation that actually depends on one unpinned weight
      pins it;
    - face branching: an equation whose nonzero corner values share one sign
      vanishes only where each factor of its first nonzero corner does, that
      is on faces of the box, so it branches on those faces;
    - free weights: a strict constraint <= 0 at every corner of the free box
      is a certificate of infeasibility; with no gap member only W > 0 is
      left, and every free weight is set to 0, since every protocol is
      monotone, so W, the concealed mass, never rises with a weight; with a
      gap member, one or two free weights are decided exactly along the
      first (:meth:`_along`), and three or more try only
      ``FREE_WEIGHT_CANDIDATES`` for all but the last two;
    - what is left reduces to one weight t (:meth:`_along`).

    The solver is built from the concealment aggregates (W, S) at the
    corners of the atom box alone (:meth:`_SearchContext.corners`), in
    ``product((0, 1))`` order of the atom weights; its tables are
    :mod:`._poly` corner tables over the atoms. A full weight assignment is
    checked with one :func:`._poly.point` vector of corner coefficients, one
    integer dot product per table. The walk is one generator: :meth:`_solve`
    and each branch yield every solution they reach, in preference order,
    and :meth:`solve` takes the first. It returns weights that
    :meth:`feasible` accepts, or None with a proof of infeasibility, or None
    with ``unresolved`` set in the cases that the module docstring lists. A
    bail-out marks the solver unresolved only when the walk gets past it,
    so never once a solution has been taken.

    The search builds no solver for a configuration whose atom equations
    are 0 at every corner and whose corner 0 meets every need
    (:func:`_zero_corner_family`): the walk's first solution there is every
    weight at 0, which the search takes straight away.
    """

    def __init__(self, grid_ints: Sequence[Sequence[int]], config: tuple[tuple[str, int], ...], box: list):
        self.config = config
        self.atoms = tuple(i for i, (kind, _) in enumerate(config) if kind == "atom")
        self.gaps = [i for i, (kind, _) in enumerate(config) if kind == "gap"]
        self.unresolved = False
        # atom a's equation S_a - x_a*W: ``h[a]`` as a table over the other
        # atoms, and in ``equations`` over the whole box, constant along a's
        # own weight (its face at weight 0 on both sides), so that one
        # :func:`_poly.point` vector evaluates every table in :meth:`feasible`
        self.h = {}
        self.equations = []
        for j, a in enumerate(self.atoms):
            x = grid_ints[a][config[a][1]]
            vals = [s[a] - x * w for w, s in box]
            self.h[a] = _poly.restrict(self.atoms, vals, {a: 0})
            own = 1 << (len(self.atoms) - 1 - j)  # a's bit in a corner's index
            self.equations.append([vals[c & ~own] for c in range(len(vals))])
        # strict constraints, each > 0: W, then S_g - lo*W and hi*W - S_g per gap member
        self.strict = [[w for w, _ in box]]
        for g in self.gaps:
            lo, hi = grid_ints[g][config[g][1] - 1], grid_ints[g][config[g][1]]
            self.strict.append([s[g] - lo * w for w, s in box])
            self.strict.append([hi * w - s[g] for w, s in box])

    # -- exact evaluation ---------------------------------------------------

    def feasible(self, weights: dict[int, Fraction]) -> bool:
        """Whether a full weight assignment solves every equation and strict
        constraint."""
        if _outside_unit_interval(weights.values()) is not None:
            return False
        at = _poly.point(self.atoms, weights)
        return all(_poly.dot(at, h) == 0 for h in self.equations) and all(
            _poly.dot(at, t) > 0 for t in self.strict
        )

    # -- solving -------------------------------------------------------------

    def solve(self) -> dict[int, Fraction] | None:
        return next(self._solve({}), None)

    def _solve(self, pinned: dict[int, Fraction]) -> Iterator[dict[int, Fraction]]:
        """Propagate, then branch on faces, reduce to one weight, or settle
        the free weights."""
        pinned = dict(pinned)
        todo = self.atoms
        coupled: dict[int, tuple[tuple, list]] = {}
        while todo:
            coupled = {}
            changed = False
            for a in todo:
                # atom a's equation over the unpinned weights it actually depends on
                others, vals = _poly.active(*_poly.restrict(*self.h[a], pinned))
                if len(others) == 1:
                    _, (alpha,), (beta,) = _poly.split(others, vals, others[0])
                    if beta < 0:
                        alpha, beta = -alpha, -beta
                    # the weight -alpha/beta must lie in [0, 1]
                    if not 0 <= -alpha <= beta:
                        return
                    pinned[others[0]] = Fraction(-alpha, beta)
                    changed = True
                elif min(vals) > 0 or max(vals) < 0:
                    return
                elif others:
                    coupled[a] = (others, vals)
            todo = tuple(coupled) if changed else ()
        if not coupled:
            yield from self._free(pinned, [v for v in self.atoms if v not in pinned])
            return
        for others, vals in coupled.values():
            if min(vals) >= 0 or max(vals) <= 0:
                first = next(i for i, v in enumerate(vals) if v)
                # the faces where a factor of that corner's term vanishes
                corner = _poly.corners(others)[first]
                yield from self._first(pinned, ((v, (ONE, ZERO)[bit]) for v, bit in corner.items()))
                return
        yield from self._reduce(pinned, coupled)

    def _first(self, pinned: dict[int, Fraction], trials) -> Iterator[dict[int, Fraction]]:
        """The solutions with one more weight pinned, trying each
        (weight, value) of ``trials`` once, in order."""
        seen = set()  # (weight, value as an int pair): no Fraction is hashed
        for weight, value in trials:
            key = weight, value.as_integer_ratio()
            if key not in seen:
                seen.add(key)
                yield from self._solve(pinned | {weight: value})

    def _free(self, pinned: dict[int, Fraction], unpinned: list[int]) -> Iterator[dict[int, Fraction]]:
        """Every equation holds whatever the unpinned weights are."""
        if unpinned and any(max(_poly.restrict(self.atoms, t, pinned)[1]) <= 0 for t in self.strict):
            return
        if not (unpinned and self.gaps):
            # every weight pinned, or only W > 0 left: every protocol is
            # monotone, so W, the concealed mass, is largest where every free
            # weight is 0, the first point in preference order
            weights = pinned | dict.fromkeys(unpinned, ZERO)
            if self.feasible(weights):
                yield weights
            return
        if len(unpinned) <= 2:
            yield from self._along(pinned, unpinned[0], {unpinned[0]: _poly.T}, [], [])
            return
        # up to two free weights are decided exactly, the first of more only
        # at the candidates
        yield from self._first(pinned, ((unpinned[0], m) for m in FREE_WEIGHT_CANDIDATES))
        self.unresolved = True

    def _reduce(self, pinned: dict[int, Fraction], coupled: dict) -> Iterator[dict[int, Fraction]]:
        """Write a mixed-sign coupled residue along one shared weight t.

        From t, each equation with one weight not yet written becomes a
        Möbius step for that weight (every equation is linear in each
        weight); an equation with every weight written becomes a polynomial
        equation in t.
        """
        shared = [v for v in self.atoms if any(v in others for others, _ in coupled.values())]
        for t in shared:
            subst = {t: _poly.T}
            defs: list[int] = []
            equalities: list[list] = []
            pending = list(coupled.values())
            while pending:
                step = next(
                    (eq for eq in pending if sum(v not in subst for v in eq[0]) <= 1), None
                )
                if step is None:
                    break
                pending.remove(step)
                others, vals = step
                unknown = [v for v in others if v not in subst]
                if not unknown:
                    equalities.append(_poly.numerator(others, vals, subst))
                    continue
                rest, low, slope = _poly.split(others, vals, unknown[0])
                num = _poly.numerator(rest, low, subst)
                den = _poly.numerator(rest, slope, subst)
                if den:
                    subst[unknown[0]] = ([-c for c in num], den)
                    defs.append(unknown[0])
                else:
                    equalities.append(num)  # the weight drops out along t
            if not pending:
                yield from self._along(pinned, t, subst, defs, equalities)
                return
        # no single weight carries the residue: only its faces are exact
        yield from self._first(pinned, ((v, face) for v in shared for face in (ZERO, ONE)))
        self.unresolved = True

    def _along(
        self,
        pinned: dict[int, Fraction],
        t: int,
        subst: dict[int, tuple[list, list]],
        defs: list[int],
        equalities: list[list],
    ) -> Iterator[dict[int, Fraction]]:
        """Decide the residue along the weight t.

        Each weight y in ``defs`` is N_y(t)/D_y(t), and at most one other
        unpinned weight x may be left free. Where every D_y is nonzero, every
        condition (a leftover equation, 0 <= y <= 1, a strict constraint,
        and, with x, how the ends of x's feasible interval compare) is a sign
        condition on a polynomial in t, so feasibility is constant on each
        open cell between their roots. With a leftover equation the
        solutions sit on the roots of its gcd; otherwise they fill cells,
        or touch a face y = 0 or 1 of the box. Each test point is solved
        exactly with t pinned, and each face with y pinned. Irrational
        points are settled by exact sign computation; a solution there can
        only be noted as unresolved.
        """
        free = [v for v in self.atoms if v not in pinned and v not in subst]
        strict = [_poly.restrict(self.atoms, table, pinned) for table in self.strict]
        degenerate = [(y, r) for y in defs for r in _poly.real_roots(subst[y][1])]
        equalities = [e for e in equalities if e]
        sections = _poly.real_roots(reduce(_poly.pgcd, equalities)) if equalities else []
        if equalities:
            points = sorted({r[0] for r in sections + [r for _, r in degenerate] if r[0] == r[1]})
        elif len(free) > 1:
            self.unresolved = True
            return
        else:
            points = self._test_points(subst, strict, free, degenerate)
        faces = ((y, face) for y in defs for face in (ZERO, ONE))
        yield from self._first(pinned, chain(((t, t0) for t0 in points), faces))
        for y, r in degenerate:
            if r[0] != r[1] and _poly.sign_at(subst[y][0], r) == 0:
                self.unresolved = True  # y's equation vanishes at an irrational t
        for r in sections:
            if r[0] != r[1] and self._holds_at(r, t, subst, defs, strict, free):
                self.unresolved = True  # a solution with irrational weights

    def _test_points(self, subst, strict, free, degenerate):
        """Preferred weights, then one sample per cell, then the rational
        roots where some D_y vanishes."""
        yield from FREE_WEIGHT_CANDIDATES
        crit = [p for num, den in subst.values() for p in (den, num, _poly.psub(den, num))]
        ends = []
        for variables, vals in strict:
            if not free:
                crit.append(_poly.numerator(variables, vals, subst))
                continue
            rest, low, slope = _poly.split(variables, vals, free[0])
            alpha = _poly.numerator(rest, low, subst)
            beta = _poly.numerator(rest, slope, subst)
            crit += [alpha, beta, _poly.padd(alpha, beta)]
            ends.append((alpha, beta))
        for (a1, b1), (a2, b2) in combinations(ends, 2):
            crit.append(_poly.psub(_poly.pmul(a1, b2), _poly.pmul(a2, b1)))
        yield from _poly.cell_samples(crit)
        yield from sorted(r[0] for _, r in degenerate if r[0] == r[1])

    @staticmethod
    def _holds_at(root, t, subst, defs, strict, free) -> bool:
        """Whether every condition holds strictly at an irrational root
        (conservatively True when a weight is left free)."""
        signs = {t: 1}
        for y in defs:
            num, den = subst[y]
            sign = signs[y] = _poly.sign_at(den, root)
            if sign == 0 or any(_poly.sign_at(p, root) != sign for p in (num, _poly.psub(den, num))):
                return False
        return bool(free) or all(
            _poly.sign_at(_poly.numerator(variables, vals, subst), root) == prod(signs[v] for v in variables)
            for variables, vals in strict
        )


def _zero_corner_family(
    grid_ints: Sequence[Sequence[int]], config: tuple[tuple[str, int], ...], box: list
) -> bool:
    """Whether a configuration is a family in every atom weight that holds
    the all-zero point, read from its atom box's corner entries
    (:meth:`_SearchContext.corners`): every atom member a's equation
    S_a - x_a*W is 0 at every corner of the box, and at corner 0 (``box[0]``,
    every weight 0, each atom member cutting at p+1) W > 0 and both strict
    bounds of every gap member hold.

    The search then takes every atom weight at 0 without an
    :class:`_AtomSolver`. That is the solver's first solution, so the output
    keeps its bytes:

    - every ``h[a]`` is identically 0, so :meth:`_AtomSolver._solve` pins
      nothing, leaves nothing coupled and hands every weight to ``_free``;
    - ``_free``'s certificate cannot fire: pinning weights at 0 keeps
      corner 0, where every strict table is positive;
    - with no gap member ``_free`` returns all zeros, which ``feasible``
      accepts: every equation is 0 and every strict table is its corner-0
      value there;
    - otherwise :meth:`_AtomSolver._along` (its test points start with
      ``FREE_WEIGHT_CANDIDATES``) and :meth:`_AtomSolver._first` (over
      those candidates) try ZERO first at every level, and each level's
      ZERO leads to the all-zero point.
    """
    w0, s0 = box[0]
    if w0 <= 0:
        return False
    for i, (kind, pos) in enumerate(config):
        grid = grid_ints[i]
        if kind == "gap":
            if not grid[pos - 1] * w0 < s0[i] < grid[pos] * w0:
                return False
        elif any(s[i] != grid[pos] * w for w, s in box):
            return False
    return True


def _corner_posterior(
    box: list[tuple[int, tuple[int, ...]]], weights: dict[int, Fraction], scales: Sequence[int]
) -> tuple[Fraction, ...]:
    """The no-disclosure posterior of a solved configuration, from its atom
    box's corner entries (:meth:`_SearchContext.corners`): W and each S_i
    are multilinear in the atom weights, so each is one :func:`._poly.dot`
    of its corner values with the weights' :func:`._poly.point`, both scaled
    alike, and member i's posterior is S_i / (W * scales[i]). W > 0 there:
    :meth:`_AtomSolver.feasible` requires it, :func:`_zero_corner_family`
    requires it at corner 0, the point taken, and a configuration with no
    atom is one combination the screen took from ``w_pos``."""
    at = _poly.point(tuple(sorted(weights)), weights)
    mass = _poly.dot(at, [w for w, _ in box])
    return tuple(Fraction(_poly.dot(at, [s[i] for _, s in box]), mass * k) for i, k in enumerate(scales))


def _full_disclosure(dist: JointDistribution) -> Equilibrium:
    """The search's full-disclosure entry: the always-disclose profile,
    supported by skeptical off-path beliefs (every member's posterior at
    their grid minimum), with its verification.

    It is the same under every protocol, so it is built and verified once
    per distribution, with the distribution's search state
    (:class:`_SearchState`). The profile never conceals, so it has no Bayes
    posteriors, and its team rule is 1 at every cell under any protocol. At
    their minimum a member is indifferent and above it they gain from
    disclosure, voting 1 everywhere: no position is flagged, so
    :func:`_verify` never reads the protocol and is given none.
    """
    space = dist.space
    all_ones = StrategyProfile.constant(space, ONE)
    skeptical = space.min_vector
    return Equilibrium(
        profile=all_ones,
        rule=TeamRule.constant(space, ONE),
        posteriors=skeptical,
        classification=FULL,
        off_path=True,
        cuts=tuple(MemberCut(cut=0) for _ in range(space.n)),
        verification=_verify(all_ones, skeptical, None, dist, None),
    )


def _check_caps(space: OutcomeSpace) -> None:
    """Raise SearchCapExceeded unless the space has at most 4 members and at
    most 20 grid values in all, the one cap of the equilibrium search and the
    refinement scans. Within it there are at most 2^20 deterministic
    own-outcome profiles, 625 cells and 1296 pure cut combinations. Reads the
    grid lengths only."""
    values = sum(map(len, space.grids))
    if space.n > 4 or values > 20:
        raise SearchCapExceeded(
            f"{space.n} members with {values} grid values in all exceed the cap "
            "of 4 members and 20 values"
        )


def find_equilibria_report(
    dist: JointDistribution,
    protocol: DeliberationProtocol,
) -> tuple[tuple[Equilibrium, ...], tuple[str, ...]]:
    """Exhaustive equilibrium search plus notes on any unresolved configurations.

    Returns the full-disclosure equilibrium (skeptical off-path beliefs) and
    every threshold fixed point over cut configurations, one per
    configuration and no two with the same team rule, canonically ordered.
    The full-disclosure entry is the same under every protocol, so it is
    built and verified once per distribution and every search on it returns
    that one object (:class:`_SearchState`).
    Raises EquilibriumError when the protocol and the distribution differ in
    member count or the distribution lacks full support, then
    SearchCapExceeded beyond the cap (:func:`_check_caps`).
    """
    space = dist.space
    if protocol.n != space.n:
        raise EquilibriumError("protocol and distribution have different member counts")
    if not dist.full_support:
        raise EquilibriumError("equilibrium search requires a full-support distribution")
    _check_caps(space)

    ctx = _build_context(dist, protocol)
    notes = []
    # no two entries share a rule: a candidate conceals somewhere (W > 0),
    # and its rule fixes its Bayes posterior, which fixes its configuration
    # (an atom at p exactly where the posterior is x_p, a gap at c exactly
    # where it lies strictly between x_{c-1} and x_c)
    results = [ctx.state.full_disclosure]

    scales = dist._scaled.scales
    grid_ints = ctx.state.grid_ints
    for config in _cut_configs(ctx):
        box = ctx.corners(config)
        if len(box) == 1:
            # no atom: the screen has proven W > 0 and both bounds of every
            # gap member at the configuration's one combination
            weights = {}
        elif _zero_corner_family(grid_ints, config, box):
            # the solver's first solution, with no solver built
            weights = {i: ZERO for i, (kind, _) in enumerate(config) if kind == "atom"}
        else:
            solver = _AtomSolver(grid_ints, config, box)
            weights = solver.solve()
            if weights is None:
                if solver.unresolved:
                    notes.append(f"a {len(solver.atoms)}-atom configuration was left unresolved")
                continue
        profile, cuts = _profile_from_config(space, config, weights)
        rule = team_rule(profile, protocol)
        post = _corner_posterior(box, weights, scales)
        ver = _verify(profile, post, post, dist, protocol)
        if not ver.ok:
            notes.append(f"candidate configuration {config} failed verification")
            continue
        results.append(
            Equilibrium(
                profile=profile,
                rule=rule,
                posteriors=post,
                classification=classify_rule(rule),
                off_path=False,
                cuts=cuts,
                verification=ver,
            )
        )

    ordered = tuple(sorted(results, key=attrgetter("rule.values"), reverse=True))
    return ordered, tuple(dict.fromkeys(notes))


def find_equilibria(
    dist: JointDistribution, protocol: DeliberationProtocol
) -> tuple[Equilibrium, ...]:
    eqs, _ = find_equilibria_report(dist, protocol)
    return eqs


# ---------------------------------------------------------------------------
# Block kernel over pure profiles; the belief refinement scans
# ---------------------------------------------------------------------------

# Most prefixes in one block of the refinement scans (:class:`_ScanState`).
# Every scan of a 2- or 3-member binary space, as in the audit and the
# benchmark, is one block, and so is every 3-member space of up to 4 values
# per grid. One block for every shape costs time and memory at the cap: the
# plausibility scan under k_majority:4,1..4 on a uniform pmf took 0.61 s and
# 175 MB at grids (5,5,5,5), 1.24 s and 468 MB at (2,8,8,2) and 0.60 s and
# 224 MB at (14,2,2,2), against 0.05, 0.14 and 0.18 s within 19 MB with
# 2^8-prefix blocks. 2^10 took 0.09 s and 22 MB at (5,5,5,5), where a
# witness in the first block pays for the whole block (Python 3.11, 2 vCPU).
BLOCK_PREFIXES = 1 << 8


class _SlotLayout(NamedTuple):
    """The slot layout of the refinement scans on grids of given lengths
    (:func:`_slot_layout`), as :class:`_ScanState` describes it."""

    cells: int
    step: int
    split: int
    outer: list[range]
    slotted: list[range]
    count: int
    repunit: int
    every: int
    top: int
    ands: list[int]
    floors: list[int]
    slabs: list[int]


@lru_cache(maxsize=16)
def _slot_layout(sizes: tuple[int, ...], bound: int) -> _SlotLayout:
    """The slot layout of the refinement scans (:class:`_ScanState`) on
    grids of these lengths, with at most ``bound`` prefixes in a block.
    Cells and rows are numbered by the lengths alone, so every distribution
    on grids of these lengths shares one layout, built the first time one
    of them is scanned; the layouts of the last 16 shapes scanned are
    kept."""
    slabs = _slabs(sizes)
    cells = prod(sizes)
    step = cells // 8 + 1
    ranges = [range(1 << size) for size in sizes[:-1]]
    split = len(ranges) - 1
    while split and prod(map(len, ranges[split - 1:])) <= bound:
        split -= 1
    slotted = ranges[split:]
    count = prod(map(len, slotted))
    repunit = int.from_bytes((b"\x01" + bytes(step - 1)) * count, "little")
    every = ((1 << cells) - 1) * repunit
    ands = [every]
    stride = count
    for member_slabs, rows in zip(slabs[split:], slotted):
        stride //= len(rows)
        table = b"".join([c.to_bytes(step, "little") * stride for c in _subset_table(member_slabs[::-1])])
        lane = int.from_bytes(table * (count // (stride * len(rows))), "little")
        ands += [a & lane for a in ands]
    floors = [every]
    for member_slabs in slabs:
        lowest = member_slabs[0] * repunit
        floors += [f & lowest for f in floors]
    return _SlotLayout(
        cells, step, split, ranges[:split], slotted, count, repunit, every, repunit << cells, ands, floors,
        [s * repunit for s in slabs[-1]],
    )


class _ScanState:
    """The refinement scans' state for one distribution, built the first
    time it is scanned (``JointDistribution._scan``) and shared by every
    protocol scanned on it: a fixed set of ints, none of which depends on
    the protocol.

    A member's strategies are their rows: one bitmask over their grid
    positions each, the first position in the highest bit, with cells
    ``tables[i][r]`` (``space._row_cells``). A prefix is a row of each head
    member, members 0..n-2. The slotted members, ``split`` to n-2, are the
    longest suffix of head members whose rows make at most
    ``BLOCK_PREFIXES`` prefixes, and at least the last head member; the
    head members before them are walked, each over its range in ``outer``.
    A block holds the ``count`` prefixes of one row of each walked member,
    in ``product`` order, each in a slot of ``step`` bytes, slot s from bit
    8*step*s: room for a cell set of ``cells`` bits and a spare top bit.
    ``slotted`` holds the slotted members' row ranges, and ``ands[k]``, in
    each slot, the AND of the row cells at that prefix of the slotted
    members ``split + j`` for the set bits j of k (every cell for k = 0).

    ``every`` holds every cell in each slot and ``top`` the spare bit. For
    x whose slots hold cell sets, ``x + every & top`` holds the spare bit
    of exactly the slots where x is not empty: no slot carries into the
    next. The plausibility scan reads, in each slot: ``floors[k]``, the
    cells where every member of the coalition mask k sits at their minimum
    (bit i for member i); ``slabs``, the last member's slabs; and
    ``support``, the cells of positive mass. All but ``support`` depend on
    the grid lengths alone, one layout for every distribution on grids of
    those lengths (:func:`_slot_layout`).
    """

    def __init__(self, dist: JointDistribution) -> None:
        space = dist.space
        self.tables = space._row_cells
        (
            self.cells, self.step, self.split, self.outer, self.slotted, self.count,
            repunit, self.every, self.top, self.ands, self.floors, self.slabs,
        ) = _slot_layout(tuple(map(len, space.grids)), BLOCK_PREFIXES)
        self.support = dist.support * repunit

    def repeat(self, cells: int) -> int:
        """The cell set ``cells`` in every slot."""
        return int.from_bytes(cells.to_bytes(self.step, "little") * self.count, "little")

    def heads(self, walked: tuple[int, ...], slot: int) -> tuple[int, ...]:
        """The rows of the prefix at a slot of the block of ``walked``."""
        rows = []
        for size in reversed(self.slotted):
            slot, row = divmod(slot, len(size))
            rows.append(row)
        return walked + tuple(rows[::-1])


def _scan_state(dist: JointDistribution, protocol: DeliberationProtocol) -> _ScanState:
    """The distribution's scan state (``dist._scan``), once the member count
    and the cap (:func:`_check_caps`) are checked."""
    space = dist.space
    if protocol.n != space.n:
        raise EquilibriumError("protocol and distribution have different member counts")
    _check_caps(space)
    return dist._scan


def _blocks(state: _ScanState, protocol: DeliberationProtocol):
    """Every prefix's ``kept`` and ``pivot`` under a protocol, a block at a
    time, in ``product`` order: ``(walked, kept, pivot)`` for each row
    combination ``walked`` of the walked head members (:class:`_ScanState`).

    In a prefix's slot, ``kept`` holds the cells that no coalition of head
    members alone discloses and ``pivot`` those where they complete a
    coalition with the last member. With the last member at row m, the
    profile conceals K = kept & ~(pivot & tail[m]), zero-probability cells
    included, where ``tail`` is the last member's row cells. The disclosed
    cells are the OR, over the minimal winning coalitions, of the AND of
    their members' row cells: the state's ``ands`` entry of the slotted
    members, ANDed with the walked members' rows, one cell set repeated in
    every slot. So a block takes one or two ANDs and one OR or AND-NOT per
    coalition.
    """
    last = len(state.tables) - 1
    head = (1 << last) - 1
    coalitions = [
        (mask >> last, [i for i in range(state.split) if mask >> i & 1], state.ands[(mask & head) >> state.split])
        for mask in protocol._minimal_masks
    ]
    every, tables = state.every, state.tables
    for walked in product(*state.outer):
        kept, pivot = every, 0
        for needs_last, members, cells in coalitions:
            if members:
                cells &= state.repeat(reduce(and_, [tables[i][walked[i]] for i in members]))
            if needs_last:
                pivot |= cells
            else:
                kept &= ~cells
        yield walked, kept, pivot


def _slot_prefixes(state: _ScanState, protocol: DeliberationProtocol):
    """The blocks of :func:`_blocks` read slot by slot: ``(heads, kept,
    pivot)`` for every prefix in ``product`` order, ``heads`` its rows."""
    step = state.step
    size = step * state.count
    for walked, kept, pivot in _blocks(state, protocol):
        kept, pivot = kept.to_bytes(size, "little"), pivot.to_bytes(size, "little")
        for at, rows in zip(range(0, size, step), product(*state.slotted)):
            yield (
                walked + rows,
                int.from_bytes(kept[at:at + step], "little"),
                int.from_bytes(pivot[at:at + step], "little"),
            )


def _pure_profile(space: OutcomeSpace, rows: Sequence[int]) -> StrategyProfile:
    """The StrategyProfile of per-member row bitmasks, first position in the
    highest bit, as the refinement scans read them (:class:`_ScanState`)."""
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
) -> bool:
    """Whether some deterministic own-outcome profile conceals with positive
    probability and Bayes-updates to exactly the given posteriors.

    Each member's condition is one signed integer sum over the concealed
    cells, and the members' sums are packed into one (:func:`.outcomes._pack`),
    so a profile is a witness exactly when its packed sum is 0. Profiles are
    read by prefix of head members, slot by slot from the block kernel
    (:func:`_slot_prefixes`): the sum over K = kept & ~(pivot & tail[m]) is
    that over ``kept`` less that over ``kept & pivot`` on the last member's
    positions in m. So each prefix makes two reads: ``kept``, and
    ``kept & pivot`` from tables that keep each last-member position's part
    in a block of its own. A subset-sum table of those position sums gives
    every row m's side, and m is a witness when its side equals the
    ``kept`` sum and K carries mass. The first witness, in ``product``
    order, is confirmed by an integer check of the witness's concealed set
    (:func:`_witness_holds`) before True is returned.
    """
    return _consistency_witness(posteriors, dist, protocol) is not None


def _consistency_witness(
    posteriors: Sequence[Rational], dist: JointDistribution, protocol: DeliberationProtocol
) -> tuple[int, ...] | None:
    """The rows of the first profile :func:`consistent_with_deliberation`
    accepts, confirmed by an integer check of the witness's concealed set
    (:func:`_witness_holds`), or None."""
    target = tuple(as_fraction(p) for p in posteriors)
    if len(target) != dist.space.n:
        raise EquilibriumError("posterior vector has wrong length")
    state = _scan_state(dist, protocol)
    columns = _posterior_columns(dist, target)
    entries, width = _pack(columns)
    tables = _subset_sums(entries)
    # Each cell's entry again, shifted into the block of its last-member
    # position p (n fields each): one read of a set gives the packed sum of
    # each position's part. Every block lies strictly inside +-2**(step-1),
    # as its fields lie strictly inside +-2**(width-1), so _unpack reads the
    # blocks back as balanced digits of width ``step``.
    step = width * len(columns)
    space = dist.space
    by_position = _subset_sums([e << (step * p) for e, p in zip(entries, space.positions[-1])])
    size = len(space.grids[-1])
    support = dist.support
    tail = space._row_cells[-1]
    for heads, kept, pivot in _slot_prefixes(state, protocol):
        if not kept & support:
            continue
        total = _chunk_sum(tables, _chunks(kept))
        # reversed, so that bit b of a row stands for its position, as in _row_cells
        parts = _unpack(_chunk_sum(by_position, _chunks(kept & pivot)), size, step)[::-1]
        sides = _subset_table(parts)
        for m in compress(range(len(sides)), map(total.__eq__, sides)):
            if kept & ~(pivot & tail[m]) & support:
                bits = heads + (m,)
                if not _witness_holds(dist, protocol, bits, target):
                    raise AssertionError("integer scan disagrees with the witness's concealed set")
                return bits
    return None


def _posterior_columns(dist: JointDistribution, target: Sequence[Fraction]) -> list[list[int]]:
    """Member i's column ``w_c*(x_ic*den - num)`` per cell c, with num/den
    the target posterior in scaled units: their posterior hits it exactly
    when their column sums to 0 over the concealed cells."""
    scaled = dist._scaled
    columns = []
    for t, scale, values in zip(target, scaled.scales, scaled.values):
        num, den = (t * scale).as_integer_ratio()
        columns.append([v * den - num * w for v, w in zip(values, scaled.weights)])
    return columns


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
) -> bool:
    """Brute-force twin of :func:`full_disclosure_is_plausible`.

    Searches for a full-disclosure equilibrium whose supporting posteriors are
    justified by some deterministic own-outcome profile with concealment:
    beliefs that sustain the always-disclose profile. Each block of prefixes
    from the block kernel (:func:`_blocks`) is decided at once, with no sums,
    only slot-wise set tests; the first witness, in ``product`` order, is
    confirmed by an integer check of the witness's concealed set
    (:func:`_witness_holds`) before True is returned.

    An on-path equilibrium that conceals a single cell c never justifies full
    disclosure when those beliefs do not: with F the members whose value at c
    is their minimum, such a profile's beliefs fail to sustain always-disclose
    exactly when F loses. The cell m where every member sits at their
    minimum is then not c, so it is disclosed; every member outside F has
    posterior (their value at c) above their value at m and strictly prefers
    concealment there, and as F loses some of them vote 1 at m. Together
    they are pivotal against F's votes, so the profile fails verification.
    """
    return _plausibility_witness(dist, protocol) is not None


def _plausibility_witness(
    dist: JointDistribution, protocol: DeliberationProtocol
) -> tuple[int, ...] | None:
    """The rows of the first profile :func:`plausible_full_disclosure_by_search`
    accepts, confirmed by an integer check of the witness's concealed set
    (:func:`_witness_holds`), or None.

    The deviation conditions of the always-disclose profile reduce to: every
    coalition able to block disclosure (one whose complement loses) must
    contain a member whose belief already sits at their worst outcome
    (otherwise there is an outcome where the whole coalition strictly
    prefers concealment). Blocking coalitions are closed under supersets, so
    that holds exactly when the members at their floor form a winning
    coalition. A member's belief sits at their floor exactly when no
    concealed cell of positive mass lies above it (``upper``): grids are
    strictly increasing.

    Per prefix, with ``outside = kept & ~pivot`` and ``inside = kept &
    pivot``, member i is at their floor under the last member's row m
    exactly when ``kept & upper_i`` lies in ``pivot & tail[m]``: never when
    ``outside`` meets ``upper_i``, else when m holds every position whose
    slab ``inside & upper_i`` meets. So a minimal winning coalition G is at
    its floor exactly from the OR of its members' position sets on, and
    that least row is the only one to test for concealed mass, as K only
    shrinks as m grows. It conceals mass exactly when ``outside`` holds
    mass, or some last-member slab meets ``inside`` with mass while no
    member of G meets ``inside & upper_i`` on it. Each of these is a
    slot-wise nonzero test (:class:`_ScanState`), a few big-int operations
    per coalition and slab for a whole block; the first flagged slot is the
    first prefix with a witness. Only that prefix is read out of its slot,
    and its witness is the least row that passes.
    """
    state = _scan_state(dist, protocol)
    every, top, support = state.every, state.top, state.support
    uppers = [support & ~state.floors[mask] for mask in protocol._minimal_masks]
    for walked, kept, pivot in _blocks(state, protocol):
        outside = kept & ~pivot
        inside = kept & pivot & support
        somewhere = (outside & support) + every
        fills = [((inside & slab) + every, inside & slab) for slab in state.slabs]
        verdict = 0
        for upper in uppers:
            at_floor = top & ~((outside & upper) + every)
            if at_floor:
                conceals = somewhere
                for fill, part in fills:
                    conceals |= fill & ~((part & upper) + every)
                verdict |= at_floor & conceals
        if verdict:
            slot = ((verdict & -verdict).bit_length() - 1) // (8 * state.step)
            shift = 8 * state.step * slot
            cells = (1 << state.cells) - 1
            heads = state.heads(walked, slot)
            m = _least_row(dist, protocol, kept >> shift & cells, pivot >> shift & cells)
            if m is None:
                raise AssertionError("block verdict disagrees with its prefix's least row")
            bits = heads + (m,)
            if not _witness_holds(dist, protocol, bits):
                raise AssertionError("integer scan disagrees with the witness's concealed set")
            return bits
    return None


def _least_row(dist: JointDistribution, protocol: DeliberationProtocol, kept: int, pivot: int) -> int | None:
    """The least row of the last member that makes one prefix's profile a
    witness of :func:`_plausibility_witness`, or None: per minimal winning
    coalition none of whose members meets ``outside`` above their minimum,
    the OR of its members' position sets, tried in increasing order."""
    space = dist.space
    support = dist.support
    uppers = [support & ~slabs[0] for slabs in space.slabs]
    # bit b of a row stands for the slab at position len - 1 - b
    positions = [(1 << b, s) for b, s in enumerate(space.slabs[-1][::-1])]
    outside = kept & ~pivot
    never = sum([1 << i for i, upper in enumerate(uppers) if outside & upper])
    needs = [sum([b for b, s in positions if kept & upper & s]) for upper in uppers]
    live = [mask for mask in protocol._minimal_masks if not mask & never]
    rows = {reduce(or_, [need for i, need in enumerate(needs) if mask >> i & 1]) for mask in live}
    tail = space._row_cells[-1]
    for m in sorted(rows):
        if kept & ~(pivot & tail[m]) & support:
            return m
    return None


def _witness_holds(
    dist: JointDistribution,
    protocol: DeliberationProtocol,
    rows: Sequence[int],
    target: Sequence[Fraction] | None = None,
) -> bool:
    """Whether the pure profile ``rows`` (one row bitmask per member, as
    the scans read them, :class:`_ScanState`) is a witness of a refinement scan, checked
    in integers on its concealed cells alone, independently of the scan.

    K is built from the rows directly: the cells of positive mass outside the
    OR, over the minimal winning coalitions, of the AND of their members' row
    cells; a witness conceals with positive probability, so K is not empty.
    With a ``target``, a witness of :func:`consistent_with_deliberation`
    Bayes-updates to it: every member's column (:func:`_posterior_columns`)
    sums to 0 over K, read cell by cell. Without, a witness of
    :func:`plausible_full_disclosure_by_search` sustains always-disclose:
    every blocking coalition (one whose complement loses) holds a member at
    their floor, with no cell of K above their minimum.
    """
    space = dist.space
    n = space.n
    cells = list(map(list.__getitem__, space._row_cells, rows))
    disclosed = 0
    for mask in protocol._minimal_masks:
        disclosed |= reduce(and_, [c for i, c in enumerate(cells) if mask >> i & 1])
    concealed = dist.support & ~disclosed
    if not concealed:
        return False
    if target is not None:
        hidden = [c for c in range(concealed.bit_length()) if concealed >> c & 1]
        columns = _posterior_columns(dist, target)
        return all(sum([column[c] for c in hidden]) == 0 for column in columns)
    floor = 0
    for i, slabs in enumerate(space.slabs):
        if not concealed & ~slabs[0]:
            floor |= 1 << i
    full = (1 << n) - 1
    table = protocol._winning_table
    return all(mask & floor for mask in range(1, full + 1) if not table[full ^ mask])
