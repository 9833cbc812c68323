"""Finite product outcome spaces and exact joint distributions.

Outcome grids are strictly increasing lists of rationals, one per member, and
a joint distribution is an explicit pmf over the product grid. Everything is
kept in exact rational arithmetic: marginals, conditionals, mixtures and
posteriors all sum to one exactly, which the equilibrium search relies on.

Multivariate first-order stochastic dominance, weak, strict or on every
nonempty proper upper set, is decided by one exact integer minimum closure over
the upper sets of the product grid. The no-disclosure posterior is read off
integer concealment sums over the pmf and grids scaled to common
denominators.

Two integer kernels serve the belief refinement: the packed sum, where
:func:`_pack` writes several signed columns into one int per cell, a field
each, and :func:`_unpack` reads the fields back from any sum of those ints;
and the subset sum, where :func:`_subset_sums` tables of ``CHUNK_CELLS``
cells each give the sum over any cell set. Each member's row-to-cells table
(``OutcomeSpace._row_cells``) is a subset-sum table too.
The equilibrium search keeps its state for a distribution behind one lazy
hook, ``JointDistribution._search``, and the refinement scans theirs behind
another, ``JointDistribution._scan``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import lcm, prod
from operator import getitem, mul
from typing import Mapping, NamedTuple, Sequence

from .rationals import ONE, ZERO, Rational, as_fraction, frac_str


class OutcomeError(ValueError):
    """Raised for malformed spaces, distributions or queries."""


class OffPathPosterior(OutcomeError):
    """Raised when a posterior is conditioned on a zero-probability event."""


@dataclass(frozen=True)
class OutcomeSpace:
    """Product grid of per-member outcome values."""

    grids: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if not self.grids:
            raise OutcomeError("need at least one member grid")
        for g in self.grids:
            if len(g) < 2:
                raise OutcomeError("each member grid needs at least 2 outcomes")
            if any(a >= b for a, b in zip(g, g[1:])):
                raise OutcomeError(f"grid {','.join(map(frac_str, g))} is not strictly increasing")

    @property
    def n(self) -> int:
        return len(self.grids)

    @cached_property
    def cells(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(product(*self.grids))

    @cached_property
    def cell_index(self) -> dict[tuple[Fraction, ...], int]:
        return {c: i for i, c in enumerate(self.cells)}

    def index(self, cell: Sequence[Rational]) -> int:
        """The index of the cell with the given member values; OutcomeError
        when it is not on the grid."""
        key = tuple(as_fraction(v) for v in cell)
        try:
            return self.cell_index[key]
        except KeyError:
            raise OutcomeError(f"outcome {','.join(map(frac_str, key))} is not on the grid") from None

    @cached_property
    def positions(self) -> tuple[tuple[int, ...], ...]:
        """positions[i][c] = index of cell c's member-(i+1) value in grid i.
        The cells are in ``product`` order, so these are the coordinates of
        the ``product`` of the grids' index ranges."""
        return tuple(zip(*product(*(range(len(g)) for g in self.grids))))

    @cached_property
    def slabs(self) -> tuple[tuple[int, ...], ...]:
        """slabs[i][p] = the cells whose member-(i+1) value is grid position
        p, as one cell set: an int with cell c at bit c (:func:`_slabs`)."""
        return _slabs([len(g) for g in self.grids])

    @cached_property
    def _row_cells(self) -> tuple[list[int], ...]:
        """_row_cells[i][r] = the cells where member i's row r votes 1, as one
        cell set. A row is a bitmask over member i's grid positions, the
        first position in the highest bit; the slabs are disjoint, so a row's
        cells are the sum of its slabs, a subset-sum table."""
        return tuple(_subset_table(member_slabs[::-1]) for member_slabs in self.slabs)

    @property
    def min_vector(self) -> tuple[Fraction, ...]:
        return tuple(g[0] for g in self.grids)

    def is_binary(self) -> bool:
        return all(len(g) == 2 for g in self.grids)


def _slabs(sizes: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The slabs of the product grid of grids of these lengths
    (:attr:`OutcomeSpace.slabs`), read off the lengths alone.

    In ``product`` order member i's position steps every ``stride`` cells,
    the product of the later grids' lengths, and comes back every
    ``period = len(grid_i) * stride``. So slab p is one run of ``stride``
    bits repeated once per period, that run times the repunit of the period
    over the cells, shifted up by ``p * stride``."""
    count = prod(sizes)
    every = (1 << count) - 1
    slabs = []
    period = count
    for size in sizes:
        stride = period // size
        run = ((1 << stride) - 1) * (every // ((1 << period) - 1))
        slabs.append(tuple([run << p * stride for p in range(size)]))
        period = stride
    return tuple(slabs)


def make_space(grids: Sequence[Sequence[Rational]]) -> OutcomeSpace:
    return OutcomeSpace(tuple(tuple(as_fraction(v) for v in g) for g in grids))


def binary_space(n: int) -> OutcomeSpace:
    return make_space([[0, 1]] * n)


class ScaledDistribution(NamedTuple):
    """A pmf and its grids as exact integers.

    ``weights`` are the pmf scaled by ``den``, the lcm of its denominators (so
    they sum to ``den``); grid i is scaled by ``scales[i]``, the lcm of grid
    i's denominators, into ``grid_ints[i]``; ``values[i][c]`` is cell c's
    scaled member-(i+1) value times its weight.
    """

    den: int
    weights: tuple[int, ...]
    scales: tuple[int, ...]
    grid_ints: tuple[tuple[int, ...], ...]
    values: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class JointDistribution:
    """Exact pmf over the cells of an OutcomeSpace (lexicographic order)."""

    space: OutcomeSpace
    probs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        # in integers: each sign from its numerator, the sum over the lcm
        # of the denominators
        probs = self.probs
        if len(probs) != prod(map(len, self.space.grids)):
            raise OutcomeError("pmf length does not match the cell count")
        if any(p.numerator < 0 for p in probs):
            raise OutcomeError("probabilities must be nonnegative")
        den = lcm(*(p.denominator for p in probs))
        if sum([p.numerator * (den // p.denominator) for p in probs]) != den:
            raise OutcomeError("probabilities must sum to exactly 1")

    @cached_property
    def full_support(self) -> bool:
        return all(p.numerator > 0 for p in self.probs)

    @cached_property
    def support(self) -> int:
        """The cells of positive probability, as a cell set (see
        :attr:`OutcomeSpace.slabs`)."""
        return sum([1 << c for c, p in enumerate(self.probs) if p.numerator])

    def prob(self, cell: Sequence[Rational]) -> Fraction:
        return self.probs[self.space.index(cell)]

    @cached_property
    def _scaled(self) -> ScaledDistribution:
        den = lcm(*(p.denominator for p in self.probs))
        weights = tuple(p.numerator * (den // p.denominator) for p in self.probs)
        scales = tuple(lcm(*(v.denominator for v in g)) for g in self.space.grids)
        grid_ints = tuple(
            tuple(v.numerator * (s // v.denominator) for v in g)
            for g, s in zip(self.space.grids, scales)
        )
        values = tuple(
            tuple(g[p] * w for p, w in zip(pos, weights))
            for g, pos in zip(grid_ints, self.space.positions)
        )
        return ScaledDistribution(den, weights, scales, grid_ints, values)

    @cached_property
    def _search(self):
        """The equilibrium search's state for this distribution
        (``equilibrium._SearchState``), built the first time it is searched
        and shared by every protocol searched on it."""
        from .equilibrium import _SearchState

        return _SearchState(self)

    @cached_property
    def _scan(self):
        """The refinement scans' state for this distribution
        (``equilibrium._ScanState``), built the first time it is scanned and
        shared by every protocol scanned on it."""
        from .equilibrium import _ScanState

        return _ScanState(self)

    @cached_property
    def mean_vector(self) -> tuple[Fraction, ...]:
        means = [ZERO] * self.space.n
        for cell, p in zip(self.space.cells, self.probs):
            for i, v in enumerate(cell):
                means[i] += v * p
        return tuple(means)


def from_pmf(
    space: OutcomeSpace, pmf: Mapping[tuple[Rational, ...], Rational]
) -> JointDistribution:
    probs = [ZERO] * len(space.cells)
    for cell, p in pmf.items():
        probs[space.index(cell)] += as_fraction(p)
    return JointDistribution(space, tuple(probs))


def independent(marginals: Sequence[Mapping[Rational, Rational]]) -> JointDistribution:
    """Product distribution from per-member value->probability maps."""
    grids = []
    tables = []
    for m in marginals:
        items = sorted((as_fraction(v), as_fraction(p)) for v, p in m.items())
        grids.append([v for v, _ in items])
        tables.append(dict(items))
    space = make_space(grids)
    probs = tuple(
        prod(tables[i][v] for i, v in enumerate(cell)) for cell in space.cells
    )
    return JointDistribution(space, probs)


def binary_independent(qs: Sequence[Rational]) -> JointDistribution:
    """Independent binary outcomes; qs[i] is member i+1's high probability."""
    return independent([{0: ONE - as_fraction(q), 1: as_fraction(q)} for q in qs])


def comonotone(values: Sequence[Rational], weights: Sequence[Rational], n: int) -> JointDistribution:
    """Distribution supported on the diagonal: all members share one outcome."""
    space = make_space([list(values)] * n)
    pmf = {
        tuple([v] * n): w for v, w in zip(values, weights)
    }
    return from_pmf(space, pmf)


def common_outcome_mixture(
    p: Rational, q_team: Rational, qs: Sequence[Rational]
) -> JointDistribution:
    """Binary mixture: with probability p all members share one high/low draw,
    otherwise each member i draws high independently with probability qs[i]."""
    p = as_fraction(p)
    q_team = as_fraction(q_team)
    qf = [as_fraction(q) for q in qs]
    n = len(qf)
    space = binary_space(n)
    probs = []
    for cell in space.cells:
        common = ZERO
        if all(v == ONE for v in cell):
            common = q_team
        elif all(v == ZERO for v in cell):
            common = ONE - q_team
        indep = prod(qf[i] if v == ONE else ONE - qf[i] for i, v in enumerate(cell))
        probs.append(p * common + (ONE - p) * indep)
    return JointDistribution(space, tuple(probs))


def common_mixture(n: int, p: Rational, q_team: Rational, q: Rational) -> JointDistribution:
    """Symmetric common-outcome mixture: every member has the same independent q."""
    return common_outcome_mixture(p, q_team, [q] * n)


def marginal(dist: JointDistribution, members: Sequence[int]) -> JointDistribution:
    """Exact marginal over a nonempty subset of members (1-based, kept in order)."""
    members = list(members)
    if not members:
        raise OutcomeError("marginal needs a nonempty member subset")
    n = dist.space.n
    for i in members:
        if not 1 <= i <= n:
            raise OutcomeError(f"member {i} out of range 1..{n}")
    if len(set(members)) != len(members):
        raise OutcomeError("duplicate members in marginal subset")
    idx = [i - 1 for i in members]
    sub = make_space([dist.space.grids[i] for i in idx])
    probs = [ZERO] * len(sub.cells)
    for cell, p in zip(dist.space.cells, dist.probs):
        probs[sub.cell_index[tuple(cell[i] for i in idx)]] += p
    return JointDistribution(sub, tuple(probs))


def conditional(
    dist: JointDistribution, given: Mapping[int, Rational]
) -> JointDistribution:
    """Bayes-exact conditional over the members not pinned down by ``given``."""
    if not given:
        raise OutcomeError("conditional needs a nonempty assignment")
    n = dist.space.n
    fixed: dict[int, Fraction] = {}
    for i, v in given.items():
        if not 1 <= i <= n:
            raise OutcomeError(f"member {i} out of range 1..{n}")
        val = as_fraction(v)
        if val not in dist.space.grids[i - 1]:
            raise OutcomeError(f"value {val} is off member {i}'s grid")
        fixed[i - 1] = val
    rest = [i for i in range(n) if i not in fixed]
    if not rest:
        raise OutcomeError("conditional must leave at least one member free")
    sub = make_space([dist.space.grids[i] for i in rest])
    probs = [ZERO] * len(sub.cells)
    total = ZERO
    for cell, p in zip(dist.space.cells, dist.probs):
        if all(cell[i] == v for i, v in fixed.items()):
            probs[sub.cell_index[tuple(cell[i] for i in rest)]] += p
            total += p
    if total == 0:
        raise OffPathPosterior("conditioning event has zero probability")
    return JointDistribution(sub, tuple(p / total for p in probs))


# ---------------------------------------------------------------------------
# Stochastic orders
# ---------------------------------------------------------------------------


def _check_same_space(f: JointDistribution, g: JointDistribution) -> None:
    if f.space != g.space:
        raise OutcomeError("distributions live on different outcome spaces")


def _scaled_masses(f: JointDistribution, g: JointDistribution) -> tuple[list[int], list[int]]:
    denom = lcm(*(p.denominator for p in f.probs + g.probs))
    return (
        [int(p * denom) for p in f.probs],
        [int(p * denom) for p in g.probs],
    )


def _cover_edges(space: OutcomeSpace) -> list[list[int]]:
    """Immediate successors of each cell (one grid step up in one member)."""
    sizes = [len(g) for g in space.grids]
    strides = [prod(sizes[m + 1:]) for m in range(space.n)]
    return [
        [x + strides[m] for m in range(space.n) if space.positions[m][x] + 1 < sizes[m]]
        for x in range(len(space.cells))
    ]


def _min_upper_gap(f: JointDistribution, g: JointDistribution) -> int:
    """Least gap f(U) - g(U), in scaled integer masses, over nonempty proper upper sets U.

    Every nonempty upper set of the product grid holds the top cell and every
    proper one misses the bottom cell, so one minimum closure with the top
    forced in and the bottom forced out ranges over exactly these sets. The
    empty and the full set both have gap 0.
    """
    from ._flow import min_upper_set_sum

    fm, gm = _scaled_masses(f, g)
    delta = [a - b for a, b in zip(fm, gm)]
    top, bottom = len(delta) - 1, 0  # cells are in lexicographic order
    return min_upper_set_sum(delta, _cover_edges(f.space), top, bottom)


def fosd_dominates(f: JointDistribution, g: JointDistribution, strict: bool = False) -> bool:
    """Multivariate first-order stochastic dominance of f over g.

    Weak: f assigns at least as much mass as g to every upper set of the
    product order. With ``strict`` set, additionally requires the two pmfs to
    differ (equivalently, some upper set gets strictly more mass).
    """
    _check_same_space(f, g)
    if strict and f.probs == g.probs:
        return False
    return _min_upper_gap(f, g) >= 0


def fosd_dominates_everywhere(f: JointDistribution, g: JointDistribution) -> bool:
    """Strict dominance on every nonempty proper upper set.

    Stronger than ``fosd_dominates(..., strict=True)``: the mass gap must be
    strictly positive for each upper set other than the whole space and the
    empty set.
    """
    _check_same_space(f, g)
    return _min_upper_gap(f, g) > 0


def more_correlated(f_prime: JointDistribution, f: JointDistribution) -> bool:
    """Pairwise-conditional correlation order for binary spaces with equal marginals."""
    _check_same_space(f_prime, f)
    space = f.space
    if not space.is_binary():
        raise OutcomeError("the correlation order is defined for binary outcomes only")
    for i in range(1, space.n + 1):
        if marginal(f_prime, [i]).probs != marginal(f, [i]).probs:
            raise OutcomeError("the correlation order requires equal marginals")
    for i in range(1, space.n + 1):
        for j in range(1, space.n + 1):
            if i == j:
                continue
            lo_j, hi_j = space.grids[j - 1][0], space.grids[j - 1][1]
            lo_i, hi_i = space.grids[i - 1][0], space.grids[i - 1][1]
            for val_j, val_i in ((lo_j, lo_i), (hi_j, hi_i)):
                cp = conditional(f_prime, {j: val_j})
                c = conditional(f, {j: val_j})
                pos = i if i < j else i - 1  # member i's index inside the conditional
                if marginal(cp, [pos]).prob([val_i]) < marginal(c, [pos]).prob([val_i]):
                    return False
    return True


def mix(f: JointDistribution, g: JointDistribution, eps: Rational) -> JointDistribution:
    """Cellwise convex combination (1-eps) f + eps g; result must keep full support."""
    _check_same_space(f, g)
    e = as_fraction(eps)
    if not ZERO <= e <= ONE:
        raise OutcomeError(f"mixing weight {e} outside [0,1]")
    probs = tuple((ONE - e) * pf + e * pg for pf, pg in zip(f.probs, g.probs))
    out = JointDistribution(f.space, probs)
    if not out.full_support:
        raise OutcomeError("mixture loses full support")
    return out


def _concealment(dist: JointDistribution, rule) -> tuple[int, list[int], int]:
    """Concealment aggregates of a rule, in exact integers.

    ``rule`` is a disclosure probability d_c per cell (a TeamRule on the
    distribution's space or any aligned sequence of values in [0,1]). With L
    the lcm of the d_c's denominators and w_c, x_ic the weights and grid
    values of ``dist._scaled``, returns (W, S, L): W = sum_c L(1 - d_c) w_c
    and S_i = sum_c L(1 - d_c) w_c x_ic. So P(conceal) = W / (L * den) and
    member i's posterior is S_i / (W * scales[i]).
    """
    space = getattr(rule, "space", dist.space)
    if space is not dist.space and space != dist.space:
        raise OutcomeError("rule and distribution have different spaces")
    values = getattr(rule, "values", rule)
    if len(values) != len(dist.space.cells):
        raise OutcomeError("rule length does not match the cell count")
    ratios = []
    for d in values:
        # ZERO and ONE, most of a rule's values, are read by identity
        if d is ZERO:
            ratio = (0, 1)
        elif d is ONE:
            ratio = (1, 1)
        else:
            if type(d) is not Fraction:
                d = as_fraction(d)
            num, den = ratio = d.as_integer_ratio()
            if not 0 <= num <= den:
                raise OutcomeError(f"disclosure probability {d} outside [0,1]")
        ratios.append(ratio)
    scale = lcm(*(den for _, den in ratios))
    conceal = [(den - num) * (scale // den) for num, den in ratios]
    scaled = dist._scaled
    mass = sum(map(mul, conceal, scaled.weights))
    sums = [sum(map(mul, conceal, v)) for v in scaled.values]
    return mass, sums, scale


def posterior_no_disclosure(dist: JointDistribution, rule) -> tuple[Fraction, ...]:
    """Componentwise mean outcome conditional on the team concealing.

    ``rule`` is a disclosure probability per cell (a TeamRule on the
    distribution's space or any aligned sequence of values in [0,1]). Raises
    OutcomeError for a TeamRule on another space, and OffPathPosterior when
    concealment has zero probability.
    """
    mass, sums, _ = _concealment(dist, rule)
    if mass == 0:
        raise OffPathPosterior("off-path posterior undefined: concealment never happens")
    return tuple(Fraction(s, mass * k) for s, k in zip(sums, dist._scaled.scales))


# ---------------------------------------------------------------------------
# Packed sums over cell sets
# ---------------------------------------------------------------------------

# Cells per subset-sum table: one hexadecimal digit of a cell set, so
# ``format(k, "x")`` reads every chunk index of k in one call.
CHUNK_CELLS = 4
_HEX_DIGITS = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))


def _subset_table(entries: Sequence[int]) -> list[int]:
    """table[s] = the sum of ``entries[b]`` over the set bits b of s."""
    table = [0]
    for e in entries:
        table += [t + e for t in table]
    return table


def _subset_sums(entries: Sequence[int]) -> list[list[int]]:
    """The :func:`_subset_table` of every ``CHUNK_CELLS`` consecutive cells'
    entries, lowest cells first."""
    return [
        _subset_table(entries[j:j + CHUNK_CELLS]) for j in range(0, len(entries), CHUNK_CELLS)
    ]


def _chunks(k: int) -> bytes:
    """The chunk indices of the cell set k, lowest cells first; chunks above
    k's highest set bit are left out (they index the empty subset)."""
    return format(k, "x")[::-1].encode().translate(_HEX_DIGITS)


def _chunk_sum(tables: Sequence[Sequence[int]], chunks: bytes) -> int:
    """The sum, over a cell set given by its :func:`_chunks`, of the entries
    that ``tables`` (from :func:`_subset_sums`) were built from."""
    return sum(map(getitem, tables, chunks))


def _pack(columns: Sequence[Sequence[int]]) -> tuple[list[int], int]:
    """Each cell's signed entries packed into one int, and the field width.

    Column j's entry sits in field j as a signed base-2**width digit, the sum
    over columns j of entry << (width * j), built column by column from the
    last, one list pass per column. ``width`` is one more than the bit length
    of the largest column's sum of absolute values, so every field of a sum
    of packed entries over any set of cells lies strictly inside
    +-2**(width-1). Such balanced digits are unique: :func:`_unpack` reads
    them back, and a packed sum is 0 exactly when each field is.
    """
    width = max(sum(map(abs, column)) for column in columns).bit_length() + 1
    packed = list(columns[-1])
    for column in reversed(columns[:-1]):
        packed = [(p << width) + e for p, e in zip(packed, column)]
    return packed, width


def _unpack(total: int, count: int, width: int) -> list[int]:
    """The ``count`` signed fields of a sum of :func:`_pack` entries, field 0
    first."""
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    fields = []
    for _ in range(count):
        digit = ((total + half) & mask) - half
        fields.append(digit)
        total = (total - digit) >> width
    return fields
