"""The integer team-rule and concealment kernels against their Fraction twins,
the cut search's vote tables and concealment tables against the per-vote-mask
loop, and the refinement's concealed-cell bitmask walk and its subset-sum
tables, plain and packed several fields to an int, against
``protocol.evaluate`` and plain sums.

``team_rule`` reads votes as integer codes and runs the multilinear sum only
over mixing members; ``posterior_no_disclosure`` and the effort module's
``_nd_stats`` read integer concealment sums. Each is compared here with the
cell-by-cell Fraction loop it replaced, on seeded draws: arbitrary (not only
threshold) profiles with several mixed positions per member, grids and pmfs
with mixed denominators, and pmfs with zero-probability cells.
"""
import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from team_disclosure.equilibrium import (
    BLOCK_PREFIXES,
    EquilibriumError,
    StrategyProfile,
    TeamRule,
    _build_context,
    _slot_layout,
    _slot_prefixes,
    consistent_with_deliberation,
    team_rule,
)
from team_disclosure.incentives import _nd_stats
from team_disclosure.outcomes import (
    JointDistribution,
    OffPathPosterior,
    OutcomeError,
    _chunk_sum,
    _chunks,
    _pack,
    _subset_sums,
    _unpack,
    make_space,
    posterior_no_disclosure,
)
from team_disclosure.protocols import all_protocols, make_consensus, make_k_majority

from oracles import (
    assert_masks_match,
    concealed_sets,
    context_entries,
    consistent_with_deliberation_by_fractions,
    cut_tables_by_vote_mask,
    nd_stats_by_fractions,
    pack_by_cells,
    posterior_no_disclosure_by_fractions,
    search_conceal_by_cells,
    slot_entry,
    team_rule_by_evaluate,
)

F = Fraction

PROTOCOLS = [
    *all_protocols(2),
    *all_protocols(3),
    *(make_k_majority(4, k) for k in range(1, 5)),
]


def fractional_space(rng, n, sizes=None):
    """Grids of distinct values with denominators 1, 2, 3, 7 and 10, some
    negative; each grid's size is drawn from ``sizes``."""
    sizes = sizes or ((2, 3) if n == 4 else (2, 3, 4))
    grids = []
    for _ in range(n):
        values = set()
        while len(values) < rng.choice(sizes):
            values.add(F(rng.randint(-6, 20), rng.choice((1, 2, 3, 7, 10))))
        grids.append(sorted(values))
    return make_space(grids)


def sparse_dist(rng, space):
    """A pmf with mixed-denominator masses and roughly a third of its cells at zero."""
    masses = [
        F(rng.randint(1, 9), rng.choice((1, 2, 3, 5))) if rng.random() < 0.65 else F(0)
        for _ in space.cells
    ]
    if not any(masses):
        masses[rng.randrange(len(masses))] = F(1)
    total = sum(masses)
    return JointDistribution(space, tuple(m / total for m in masses))


def random_profile(rng, space):
    """Arbitrary votes: 0, 1 or a strict mix with denominators 2, 3, 5, 7 or 8,
    so most members mix at several positions."""

    def vote():
        kind = rng.random()
        if kind < 0.25:
            return F(0)
        if kind < 0.5:
            return F(1)
        den = rng.choice((2, 3, 5, 7, 8))
        return F(rng.randint(1, den - 1), den)

    return StrategyProfile(space, tuple(tuple(vote() for _ in g) for g in space.grids))


def plain(rng, values):
    """The same rule as a plain list mixing ints, strings and Fractions."""
    out = []
    for v in values:
        form = rng.randrange(3)
        if form == 0 and v.denominator == 1:
            out.append(int(v))
        elif form == 1:
            out.append(str(v))
        else:
            out.append(v)
    return out


def outcome(fn, *args):
    """A call's value, or its exception type and message."""
    try:
        return fn(*args)
    except (OutcomeError, EquilibriumError, TypeError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("protocol", PROTOCOLS, ids=lambda p: p.describe())
def test_kernels_match_fraction_loops(protocol):
    rng = random.Random(f"kernels {protocol.describe()}")
    off_path = mixed_positions = 0
    for _ in range(6):
        space = fractional_space(rng, protocol.n)
        dist = sparse_dist(rng, space)
        profile = random_profile(rng, space)
        mixed_positions += sum(0 < v < 1 for row in profile.values for v in row)
        rule = team_rule(profile, protocol)
        assert rule == team_rule_by_evaluate(profile, protocol)
        rules = [rule, plain(rng, rule.values)]
        # a rule concealing only zero-probability cells is off path
        rules.append([F(0) if p == 0 else F(1) for p in dist.probs])
        for r in rules:
            got = outcome(posterior_no_disclosure, dist, r)
            assert got == outcome(posterior_no_disclosure_by_fractions, dist, r)
            off_path += got == (OffPathPosterior, "off-path posterior undefined: concealment never happens")
        for i in range(1, space.n + 1):
            assert _nd_stats(dist, rule, i) == nd_stats_by_fractions(dist, rule, i)
    assert off_path >= 6
    assert mixed_positions >= 6 * protocol.n


@pytest.mark.parametrize(
    "bad",
    [F(3, 2), F(-1, 3), 2, -1, "5/4", "-0.5"],
)
def test_out_of_range_rules_raise_the_same_errors(bad):
    rng = random.Random(5)
    space = fractional_space(rng, 2)
    dist = sparse_dist(rng, space)
    for cell in range(len(space.cells)):  # zero-probability cells included
        values = [F(1, 2)] * len(space.cells)
        values[cell] = bad
        got = outcome(posterior_no_disclosure, dist, values)
        assert got == outcome(posterior_no_disclosure_by_fractions, dist, values)
        assert got[0] is OutcomeError and got[1].endswith("outside [0,1]")
    for values in ([F(1)] * (len(space.cells) - 1), [True] * len(space.cells)):
        got = outcome(posterior_no_disclosure, dist, values)
        assert got == outcome(posterior_no_disclosure_by_fractions, dist, values)
        assert isinstance(got, tuple) and got[0] in (OutcomeError, TypeError)


@pytest.mark.parametrize("bad", [F(3, 2), F(-1, 3), 2, -1])
def test_out_of_range_votes_and_rules_keep_their_messages(bad):
    space = make_space([[0, 1, 2], [F(1, 3), F(1, 2)]])
    rows = [[F(0), F(1, 2), F(1)], [F(1, 7), F(1)]]
    rows[0][1] = bad
    with pytest.raises(EquilibriumError) as err:
        StrategyProfile(space, tuple(map(tuple, rows)))
    assert str(err.value) == f"vote probability {bad} outside [0,1]"
    values = [F(1, 2)] * len(space.cells)
    values[4] = bad
    with pytest.raises(EquilibriumError) as err:
        TeamRule(space, tuple(values))
    assert str(err.value) == f"disclosure probability {bad} outside [0,1]"


def assert_search_tables_match(dist, protocol):
    entries = context_entries(_build_context(dist, protocol))
    expected = search_conceal_by_cells(dist, protocol)
    combos = product(*(range(len(g) + 1) for g in dist.space.grids))
    assert list(zip(combos, entries, strict=True)) == list(expected.items())
    return sum(w == 0 for w, _ in entries)


def assert_vote_tables_match(dist):
    """The vote tables of the search state (``dist._search``), read slot by
    slot, against the per-cell loop over every combination and vote mask.
    The slots are the fewest whole bytes whose half range exceeds the grid
    spread times the total weight, and at every combination the masks'
    tables sum to the totals over every cell."""
    state = dist._search
    scaled = dist._scaled
    bound = max([1, *(g[-1] - g[0] for g in scaled.grid_ints)]) * scaled.den
    assert 2 ** (8 * state.step - 9) <= bound < 2 ** (8 * state.step - 1)
    n = dist.space.n
    expected = cut_tables_by_vote_mask(dist)
    assert len(state.tables) == 1 << n and state.count == len(expected)
    totals = (scaled.den, tuple(map(sum, scaled.values)))
    whole = sum(state.tables)
    for b, (agg_w, agg_s) in enumerate(expected.values()):
        for m, table in enumerate(state.tables):
            assert slot_entry(table, b, state) == (agg_w[m], tuple(s[m] for s in agg_s))
        assert slot_entry(whole, b, state) == totals


@pytest.mark.parametrize("protocol", PROTOCOLS, ids=lambda p: p.describe())
def test_search_tables_match_vote_mask_loop(protocol):
    rng = random.Random(f"search tables {protocol.describe()}")
    for _ in range(3):
        assert_search_tables_match(sparse_dist(rng, fractional_space(rng, protocol.n)), protocol)


@pytest.mark.parametrize("size", [4, 5])
def test_search_tables_at_the_grid_cap(size):
    rng = random.Random(f"search tables on {size}-value grids")
    dist = sparse_dist(rng, fractional_space(rng, 4, (size,)))
    assert 0 in dist.probs
    zero_mass = sum(assert_search_tables_match(dist, make_k_majority(4, k)) for k in range(1, 5))
    assert zero_mass > 0


# Spaces of 16, 27 and 256 cells: concealed sets span several 4-cell chunks.
KERNEL_SIZES = [(4, 4), (2, 2, 2, 2), (3, 3, 3), (4, 4, 4, 4)]


def kernel_protocols(rng, n):
    """Every protocol up to three members; at four, consensus, 2-of-4
    majority and two seeded others."""
    if n == 4:
        return [make_consensus(4), make_k_majority(4, 2), *rng.sample(all_protocols(4), 2)]
    return all_protocols(n)


def row_votes(space, rows):
    """The 0/1 StrategyProfile of one row bitmask per member, the first grid
    position in the highest bit."""
    return StrategyProfile(
        space,
        tuple(
            tuple(F(r >> (len(g) - 1 - p) & 1) for p in range(len(g)))
            for g, r in zip(space.grids, rows)
        ),
    )


@pytest.mark.parametrize("sizes", [*KERNEL_SIZES, (5, 5, 5, 5)], ids=str)
def test_vote_tables_match_vote_mask_loop(sizes):
    """The search's vote tables on a sparse pmf over grids with negative and
    rational values, against the per-cell loop."""
    rng = random.Random(f"vote tables {sizes}")
    dist = sparse_dist(rng, fractional_space(rng, len(sizes), sizes[:1]))
    assert 0 in dist.probs
    assert any(x < 0 for g in dist.space.grids for x in g)
    assert any(x.denominator > 1 for g in dist.space.grids for x in g)
    assert_vote_tables_match(dist)


@pytest.mark.parametrize("sizes", KERNEL_SIZES, ids=str)
def test_concealed_sets_match_evaluate(sizes):
    """The refinement's block kernel, read slot by slot, visits every pure
    profile in ``product`` order of each member's rows (in 16 blocks on the
    256-cell space), and each profile's concealed set is the set of cells
    where the team rule from ``protocol.evaluate`` is 0, whatever their
    probability, on a seeded sample of profiles (16 on the 256-cell space)."""
    rng = random.Random(f"concealed sets {sizes}")
    space = fractional_space(rng, len(sizes), sizes[:1])
    state = sparse_dist(rng, space)._scan
    every = list(product(*(range(1 << len(g)) for g in space.grids)))
    checked = 16 if len(space.cells) > 27 else 40
    tail = space._row_cells[-1]
    for protocol in kernel_protocols(rng, space.n):
        walked = [
            (heads + (m,), kept & ~(pivot & cells))
            for heads, kept, pivot in _slot_prefixes(state, protocol)
            for m, cells in enumerate(tail)
        ]
        assert [bits for bits, _ in walked] == every
        for bits, k in rng.sample(walked, checked):
            rule = team_rule_by_evaluate(row_votes(space, bits), protocol)
            assert k == sum(1 << c for c, v in enumerate(rule.values) if v == 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_slabs_match_the_per_cell_definition(n):
    """``OutcomeSpace.slabs``, read off the grid lengths, against its
    definition cell by cell: slab p of member i holds the cells whose
    member-i value is grid position p, on seeded ragged spaces."""
    rng = random.Random(f"slabs {n}")
    for _ in range(8):
        space = fractional_space(rng, n, (2, 3, 4, 5))
        expected = tuple(
            tuple(sum(1 << c for c, cell in enumerate(space.cells) if cell[i] == v) for v in g)
            for i, g in enumerate(space.grids)
        )
        assert space.slabs == expected


# grid lengths -> (walked head members, prefixes per block) at BLOCK_PREFIXES
BLOCK_LAYOUTS = {
    (2, 2): (0, 4),
    (2, 2, 2): (0, 16),
    (3, 3, 3): (0, 64),
    (9, 2): (0, 512),  # the last head member is slotted, past the bound
    (2, 10, 2): (1, 1024),
    (4, 4, 4, 4): (1, 256),  # exactly at the bound
    (3, 3, 3, 3): (1, 64),
    (5, 5, 5, 5): (2, 32),
    (14, 2, 2, 2): (1, 16),
    (2, 8, 8, 2): (2, 256),
    (2, 2, 2, 14): (0, 64),
}


@pytest.mark.parametrize("sizes", BLOCK_LAYOUTS, ids=str)
def test_block_layout(sizes):
    """The slotted head members are the longest suffix whose rows make at
    most BLOCK_PREFIXES prefixes, and at least the last head member; each
    slot has room for every cell and a spare bit."""
    assert BLOCK_PREFIXES == 1 << 8
    layout = _slot_layout(sizes, BLOCK_PREFIXES)
    assert (layout.split, layout.count) == BLOCK_LAYOUTS[sizes]
    assert [len(r) for r in layout.outer + layout.slotted] == [1 << g for g in sizes[:-1]]
    assert 8 * (layout.step - 1) <= layout.cells < 8 * layout.step


@pytest.mark.parametrize("sizes", [(3, 5), (3, 3, 7), (2, 2, 2), (2, 3), (14, 2, 2, 2)], ids=str)
def test_nonzero_slot_test(sizes):
    """``x + every & top`` holds the spare bit of exactly the slots where x
    is not empty, when the cells fill a slot up to its spare bit (15 cells
    in 2 bytes, 63 in 8) and when they do not, on slot contents that
    include the empty set, cell 0 alone, the last cell alone and every
    cell."""
    rng = random.Random(f"slot test {sizes}")
    layout = _slot_layout(sizes, BLOCK_PREFIXES)
    cells, width = layout.cells, 8 * layout.step
    assert layout.every == sum(((1 << cells) - 1) << width * s for s in range(layout.count))
    assert layout.top == sum(1 << width * s + cells for s in range(layout.count))
    choices = (0, 1, 1 << (cells - 1), (1 << cells) - 1)
    for _ in range(20):
        slots = [rng.choice(choices) if rng.random() < 0.7 else rng.getrandbits(cells) for _ in range(layout.count)]
        x = sum(v << width * s for s, v in enumerate(slots))
        flags = x + layout.every & layout.top
        assert flags == sum(1 << width * s + cells for s, v in enumerate(slots) if v)


@pytest.mark.parametrize("sizes", KERNEL_SIZES, ids=str)
def test_chunk_sums_match_plain_sums(sizes):
    """Sums over a cell set read from the 4-cell subset-sum tables equal the
    plain sum, on signed entries that are 0 at zero-probability cells."""
    rng = random.Random(f"chunk sums {sizes}")
    space = fractional_space(rng, len(sizes), sizes[:1])
    dist = sparse_dist(rng, space)
    assert 0 in dist.probs
    scaled = dist._scaled
    # the raw sums, and the consistency scan's entries w_c * (x_ic * den - num)
    # for a posterior num/den halfway along each scaled grid
    vectors = [scaled.weights, *scaled.values]
    for g, values in zip(scaled.grid_ints, scaled.values):
        num, den = g[0] + g[-1], 2
        vectors.append([v * den - num * w for v, w in zip(values, scaled.weights)])
    assert min(vectors[-1]) < 0 < max(vectors[-1])
    every = (1 << len(space.cells)) - 1
    sets = [0, every, 1, 1 << (len(space.cells) - 1)]
    sets += [rng.getrandbits(len(space.cells)) for _ in range(40)]
    for entries in vectors:
        tables = _subset_sums(entries)
        assert all(len(t) <= 16 for t in tables)
        for k in sets:
            assert _chunk_sum(tables, _chunks(k)) == sum(e for c, e in enumerate(entries) if k >> c & 1)


def test_packed_fields_match_plain_sums():
    """Each signed field of a packed subset sum is the plain sum of its
    column, also where a column's sum over the full set reaches the bound
    that sets the field width, at either sign."""
    rng = random.Random("packed fields")
    cells = 27
    bound = 10**6
    columns = [
        [bound] * cells,
        [-bound] * cells,
        [rng.randint(-bound, bound) for _ in range(cells)],
        [rng.choice((0, 1, -1)) for _ in range(cells)],
        [0] * cells,
    ]
    entries, width = _pack(columns)
    tables = _subset_sums(entries)
    assert width == (cells * bound).bit_length() + 1
    every = (1 << cells) - 1
    sets = [0, every, 1, 1 << (cells - 1)] + [rng.getrandbits(cells) for _ in range(60)]
    for k in sets:
        got = _unpack(_chunk_sum(tables, _chunks(k)), len(columns), width)
        assert got == [sum(e for c, e in enumerate(col) if k >> c & 1) for col in columns]
        assert (_chunk_sum(tables, _chunks(k)) == 0) == (not any(got))


def test_column_packing_matches_per_cell_packing():
    """``_pack`` builds its ints column by column; each equals the per-cell
    sum of shifted entries, for one to five columns of mixed signs, on the
    search's tables and on plain seeded columns."""
    rng = random.Random("column packing")
    for count in range(1, 6):
        for cells in (1, 4, 27, 81):
            bound = rng.choice((1, 7, 10**6, 10**30))
            columns = [[rng.randint(-bound, bound) for _ in range(cells)] for _ in range(count)]
            columns[rng.randrange(count)][rng.randrange(cells)] = 0
            assert _pack(columns) == pack_by_cells(columns)
    for n in (2, 3, 4):
        scaled = sparse_dist(rng, fractional_space(rng, n))._scaled
        columns = [scaled.weights, *scaled.values]
        assert _pack(columns) == pack_by_cells(columns)


def extreme_dist(rng):
    """Four members on 5-value grids of values within 50 of +-10**6, one with
    each denominator 1, 2, 3, 7 and 11; members 1 and 2 all positive, member
    3 all negative, member 4 both. Full support, masses with mixed
    denominators, and most of the mass on the cells where every member sits
    at an extreme of their grid."""
    big = 10**6
    signs = [(1,) * 5, (1,) * 5, (-1,) * 5, (-1, -1, 1, 1, 1)]
    grids = []
    for member_signs in signs:
        # one value per denominator, so every grid scales by 462
        values = set()
        while len(values) < 5:
            values = {
                F(sign * big * den - 1 - den * rng.randint(0, 50), den)
                for sign, den in zip(member_signs, (1, 2, 3, 7, 11))
            }
        grids.append(sorted(values))
    space = make_space(grids)
    masses = [F(rng.randint(1, 9), rng.choice((1, 3, 7, 11))) for _ in space.cells]
    for c, at in enumerate(zip(*space.positions)):
        if all(p in (0, 4) for p in at):
            masses[c] += 10**4
    total = sum(masses)
    return JointDistribution(space, tuple(m / total for m in masses))


def test_packed_search_tables_at_the_field_width_edge():
    """The search's vote tables, (W, S) sums and sign masks, where S_i - x*W
    comes near the bound that sets the slot width at either sign, against
    the per-vote-mask loop and the per-combination sign loop."""
    rng = random.Random("packed search tables")
    dist = extreme_dist(rng)
    assert_vote_tables_match(dist)
    state = dist._search
    edge = 1 << (8 * state.step - 3)  # every S_i - x*W lies inside +-2**(8*step - 1)
    reached = set()
    for k in range(1, 5):
        protocol = make_k_majority(4, k)
        assert_search_tables_match(dist, protocol)
        assert_masks_match(_build_context(dist, protocol))
        conceal = search_conceal_by_cells(dist, protocol)
        reached |= {
            (i, d > 0)
            for w, s in conceal.values()
            for i, xs in enumerate(state.grid_ints)
            for d in (s[i] - x * w for x in xs)
            if abs(d) >= edge
        }
    # member 4's grid has the largest spread, which sets the bound
    assert reached == {(3, False), (3, True)}


def slot_edge_dist(n):
    """Every member on the grid -1/2, 0, 1/2 (scaled to -1, 0, 1, spread 2),
    total weight 2**14 - 1, so the slot bound 2*(2**14 - 1) sits just below
    2**15 and a slot is 2 bytes. Every cell weighs 1 but the one where
    member 1 sits low and every other member high, which takes the rest."""
    space = make_space([[F(-1, 2), F(0), F(1, 2)]] * n)
    den = 2**14 - 1
    big = (0,) + (2,) * (n - 1)
    weights = [den - (len(space.cells) - 1) if at == big else 1 for at in zip(*space.positions)]
    return JointDistribution(space, tuple(F(w, den) for w in weights))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sign_masks_at_the_slot_edge(n):
    """The sign masks where S_i - x*W is +1 and -1, next to the top bit of a
    biased slot, and where it comes within a factor 2 of +-2**(8*step - 1)
    at either sign, against the per-combination sign loop."""
    dist = slot_edge_dist(n)
    state = dist._search
    assert state.step == 2 and state.lows == [-1] * n
    assert_vote_tables_match(dist)
    differences = set()
    for protocol in all_protocols(n) if n < 4 else [make_k_majority(4, k) for k in range(1, 5)]:
        ctx = _build_context(dist, protocol)
        assert_masks_match(ctx)
        differences |= {s[i] - x * w for w, s in context_entries(ctx) for i in range(n) for x in (-1, 0, 1)}
    assert {1, -1} <= differences
    assert max(differences) > 2**14 and min(differences) < -(2**14)


def test_cached_search_tables_match_fresh_packing():
    """The search's vote tables, built once per distribution with its search
    state, equal the per-vote-mask loop, and every protocol searched on the
    distribution reads that one state and its tables."""
    rng = random.Random("cached search tables")
    for n in (2, 3, 4):
        dist = sparse_dist(rng, fractional_space(rng, n))
        state = dist._search
        tables = state.tables
        assert_vote_tables_match(dist)
        for protocol in kernel_protocols(rng, n):
            assert_search_tables_match(dist, protocol)
            assert _build_context(dist, protocol).state is state
        assert dist._search is state and state.tables is tables


def residue_target(scaled, k, i, residue):
    """Member i's posterior target num/(den * scale) at which the concealed
    set k's condition den * S - num * W equals ``residue`` (0 or +-1)."""
    w = sum(e for c, e in enumerate(scaled.weights) if k >> c & 1)
    s = sum(e for c, e in enumerate(scaled.values[i]) if k >> c & 1)
    if residue == 0:
        return F(s, w * scaled.scales[i])
    den = pow(s * residue, -1, w) + w  # den * s = residue (mod w), den > 0
    num = (den * s - residue) // w
    assert den * s - num * w == residue
    return F(num, den * scaled.scales[i])


@pytest.mark.parametrize("protocol", [make_k_majority(3, 2), make_consensus(3)], ids=lambda p: p.describe())
def test_consistency_packed_residues(protocol):
    """A target at which one member's residue is 0 and another's is +-1 is
    not reached (the packed sum is +-2**(width*j), not 0); the reached
    posterior of the same profile is. Both agree with the Fraction loop."""
    rng = random.Random(f"packed residues {protocol.describe()}")
    space = make_space([[0, F(1, 3), 2], [F(-1, 2), 1], [F(1, 7), F(5, 2)]])
    nums = [rng.randint(1, 30) for _ in space.cells]
    dist = JointDistribution(space, tuple(F(x, sum(nums)) for x in nums))
    scaled = dist._scaled
    for _, k in concealed_sets(space, protocol):
        w = sum(e for c, e in enumerate(scaled.weights) if k >> c & 1)
        if w and all(
            gcd(sum(e for c, e in enumerate(v) if k >> c & 1), w) == 1 for v in scaled.values
        ):
            break
    else:
        raise AssertionError("no concealed set with coprime sums")
    reached = [residue_target(scaled, k, i, 0) for i in range(3)]
    assert consistent_with_deliberation(reached, dist, protocol)
    assert consistent_with_deliberation_by_fractions(reached, dist, protocol)
    for j in range(3):
        for residue in (1, -1):
            target = list(reached)
            target[j] = residue_target(scaled, k, j, residue)
            assert not consistent_with_deliberation(target, dist, protocol)
            assert not consistent_with_deliberation_by_fractions(target, dist, protocol)


def test_consistency_targets_on_one_distribution():
    """Two reached targets and a missed one, asked in turn of one
    distribution object, each agree with the Fraction loop: the scan packs
    its target-dependent columns on every call."""
    rng = random.Random("consistency targets")
    space = make_space([[0, F(1, 3), 2], [F(-1, 2), 1, F(7, 3)]])
    dist = sparse_dist(rng, space)
    protocol = make_k_majority(2, 1)
    scaled = dist._scaled
    reached = []
    for _, k in concealed_sets(space, protocol):
        if k & dist.support:
            target = tuple(residue_target(scaled, k, i, 0) for i in range(2))
            if target not in reached:
                reached.append(target)
    assert len(reached) >= 2
    miss = tuple(g[0] + (g[-1] - g[0]) * F(rng.randint(1, 1008), 1009) for g in space.grids)
    for target in (reached[0], reached[-1], miss, reached[0]):
        expected = target is not miss
        assert consistent_with_deliberation(target, dist, protocol) is expected
        assert consistent_with_deliberation_by_fractions(target, dist, protocol) is expected
