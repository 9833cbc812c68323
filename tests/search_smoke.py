"""Standard-library smoke check of the exhaustive equilibrium search.

Runs ``find_equilibria_report`` on the seeded instances of
:func:`pinned_searches` and compares one SHA-256 over their solve documents
with ``DIGEST``. The search reads its concealment sums and sign masks from
broadword ints, one slot per pure cut combination and field, built through
``int.to_bytes`` and ``int.from_bytes``, so this checks them on every
supported Python. It then searches each shared distribution's protocols
again in reverse order, on a fresh copy of the distribution, and requires
every solve document to equal its forward-order one. It checks that every
configuration with an atom that the screen yields and the zero-corner rule
takes, every weight at 0 without the atom solver, gets those weights from a
fresh solver too. Last, it compares the search's per-vote-mask tables with
a plain per-cell loop on the cap's extreme grid shapes. Needs no
third-party package:

    PYTHONPATH=src python tests/search_smoke.py

Exits 0 when the digest matches, the orders agree, the rule and the solver
agree and the tables match, 1 otherwise.
"""
import hashlib
import json
import random
import sys
from fractions import Fraction
from itertools import product

from team_disclosure.audit import random_distribution
from team_disclosure.configio import equilibrium_to_config
from team_disclosure.equilibrium import (
    ZERO,
    _AtomSolver,
    _build_context,
    _cut_configs,
    _zero_corner_family,
    find_equilibria_report,
)
from team_disclosure.outcomes import JointDistribution, independent, make_space
from team_disclosure.protocols import all_protocols, make_k_majority, make_protocol

F = Fraction

# Only a documented correctness fix may change this, such as settling
# multi-weight residues or returning irrational weights (ROADMAP items 1 and
# 8); CHANGES.md then records the new value.
DIGEST = "b2d9b9e0df5004d8709d6c141a557b749e81834bd920b12f7c9198f273751617"

# iid 4-member k_majority:4,2 instances whose symmetric equilibrium, every
# member at an atom on grid position 1, the search misses today: (marginal,
# atom weight, posterior of every member)
HIDDEN = [
    ({v: F(1, 5) for v in range(5)}, F(1, 8), F(1)),
    ({1: F(1, 12), 4: F(5, 12), 7: F(6, 12)}, F(3, 10), F(4)),
    ({0: F(1, 6), 1: F(2, 6), 5: F(2, 6), 6: F(1, 6)}, F(9, 10), F(1)),
]

ITEM_8 = (  # an irrational-only 3-atom residue next to a 4-atom one
    {3: F(1, 6), 5: F(1, 6), 7: F(3, 6), 8: F(1, 6)},
    [[1, 2], [1, 3], [2, 4], [3, 4]],
)


def pinned_searches():
    """Every 2- and 3-member protocol on seeded draws, iid 4-member draws on
    3- and 4-value grids under k-majority, the hidden symmetric instances and
    an instance with an irrational-only residue."""
    rng = random.Random(16)
    for n in (2, 3):
        for _ in range(3):
            dist = random_distribution(rng, n)
            for proto in all_protocols(n):
                yield dist, proto
    for size in (3, 3, 4, 4):
        grid = sorted(rng.sample(range(9), size))
        nums = [rng.randint(1, 6) for _ in grid]
        dist = independent([{x: F(c, sum(nums)) for x, c in zip(grid, nums)}] * 4)
        for k in range(1, 5):
            yield dist, make_k_majority(4, k)
    for marginal, _, _ in HIDDEN:
        yield independent([marginal] * 4), make_k_majority(4, 2)
    marginal, winning = ITEM_8
    yield independent([marginal] * 4), make_protocol(4, winning)


def solve_document(dist, proto) -> str:
    """One search's equilibria, as ``equilibrium_to_config`` writes them,
    and its notes, as one JSON line."""
    eqs, notes = find_equilibria_report(dist, proto)
    doc = {"equilibria": [equilibrium_to_config(e) for e in eqs], "notes": list(notes)}
    return json.dumps(doc, sort_keys=True)


def search_digest(documents=None) -> str:
    """SHA-256 over the solve document of each pinned search, one JSON line
    per search; ``documents`` are those lines if already computed."""
    if documents is None:
        documents = [solve_document(dist, proto) for dist, proto in pinned_searches()]
    digest = hashlib.sha256()
    for doc in documents:
        digest.update(doc.encode() + b"\n")
    return digest.hexdigest()


def reverse_order_mismatches(searched) -> list[str]:
    """The instances of ``searched``, (distribution, protocol, forward-order
    solve document) triples, whose document changes when each distribution's
    protocols are searched in reverse order on a fresh copy of it. Every
    protocol searched on a distribution object shares its search state, so
    this checks that the order of the searches does not reach the output."""
    shared = {}  # id(distribution) -> (distribution, [(protocol, document)])
    for dist, proto, doc in searched:
        shared.setdefault(id(dist), (dist, []))[1].append((proto, doc))
    bad = []
    for dist, runs in shared.values():
        copy = JointDistribution(make_space(dist.space.grids), dist.probs)
        for proto, doc in reversed(runs):
            if solve_document(copy, proto) != doc:
                bad.append(f"{proto.describe()} on grids {[len(g) for g in dist.space.grids]}")
    return bad


def zero_corner_mismatches(searched) -> list[str]:
    """The configurations of the searches in ``searched``, (distribution,
    protocol, ...) tuples, that the screen yields with an atom and the
    zero-corner rule takes, but on which a fresh atom solver's first
    solution is not every weight at 0."""
    bad = []
    for dist, proto, *_ in searched:
        ctx = _build_context(dist, proto)
        grid_ints = ctx.state.grid_ints
        for config in _cut_configs(ctx):
            box = ctx.corners(config)
            if len(box) > 1 and _zero_corner_family(grid_ints, config, box):
                zeros = {i: ZERO for i, (kind, _) in enumerate(config) if kind == "atom"}
                if _AtomSolver(grid_ints, config, box).solve() != zeros:
                    bad.append(f"{config} under {proto.describe()}")
    return bad


def vote_table_mismatches() -> list[str]:
    """The grid shapes, of the cap's extremes (14,2,2,2), (2,2,2,14) and
    (5,5,5,5), on which the search state's vote tables differ from a
    plain loop over every cell per cut combination. Grid values are
    rationals, some negative; the pmf has full support. Each table's slots
    are read back one by one: field f of combination b in slot
    f*count + b, ``step`` bytes wide, each member's values shifted by their
    grid minimum."""
    rng = random.Random(30)
    bad = []
    for sizes in ((14, 2, 2, 2), (2, 2, 2, 14), (5, 5, 5, 5)):
        values = sorted({F(v, den) for v in range(-30, 31) for den in (1, 2, 3, 7)})
        space = make_space([sorted(rng.sample(values, size)) for size in sizes])
        nums = [rng.randint(1, 9) for _ in space.cells]
        dist = JointDistribution(space, tuple(F(x, sum(nums)) for x in nums))
        state = dist._search
        bits = 8 * state.step
        scaled = dist._scaled
        n = space.n
        cells = list(zip(scaled.weights, zip(*space.positions)))
        for b, combo in enumerate(product(*(range(size + 1) for size in sizes))):
            sums = [[0] * (n + 1) for _ in range(1 << n)]
            for w, at in cells:
                row = sums[sum(1 << i for i in range(n) if at[i] >= combo[i])]
                row[0] += w
                for i in range(n):
                    row[i + 1] += scaled.grid_ints[i][at[i]] * w
            read = []
            for table in state.tables:
                w, *s = (table >> bits * (f * state.count + b) & (1 << bits) - 1 for f in range(n + 1))
                read.append([w, *(v + lo * w for v, lo in zip(s, state.lows))])
            if read != sums:
                bad.append(f"grids {sizes} at cuts {combo}")
                break
    return bad


def main() -> int:
    searched = [(dist, proto, solve_document(dist, proto)) for dist, proto in pinned_searches()]
    got = search_digest([doc for _, _, doc in searched])
    print(f"pinned searches: {'ok' if got == DIGEST else f'sha256 {got}'}")
    bad = reverse_order_mismatches(searched)
    print(f"reverse order: {'ok' if not bad else 'differs for ' + '; '.join(bad)}")
    zeros = zero_corner_mismatches(searched)
    print(f"zero corners: {'ok' if not zeros else 'the solver differs on ' + '; '.join(zeros)}")
    tables = vote_table_mismatches()
    print(f"vote tables: {'ok' if not tables else 'differ on ' + '; '.join(tables)}")
    return 0 if got == DIGEST and not bad and not zeros and not tables else 1


if __name__ == "__main__":
    sys.exit(main())
