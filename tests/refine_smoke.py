"""Standard-library smoke check of the belief refinement's block kernel.

The refinement scans keep a block of prefixes' cell sets in byte slots of
one int each, built and read through ``int.to_bytes`` and ``int.from_bytes``,
and decide a whole block's plausibility verdict from carries into a spare
bit per slot (``equilibrium._ScanState``), so this checks that layout on
every supported Python. It compares both scans with the profile-by-profile
twins of ``tests/oracles.py`` on seeded sparse pmfs, (4,4,4,4) and
(3,3,4,4) among them, which the scans cross in 16 and 8 blocks. It then
pins both scans' answers and witnesses on uniform pmfs at the cap's extreme
grid shapes (14,2,2,2), (2,8,8,2), (5,5,5,5) and (2,2,2,14). Needs no
third-party package:

    PYTHONPATH=src python tests/refine_smoke.py

Exits 0 when every scan agrees with its twin and every pinned witness and
target holds, 1 otherwise.
"""
import random
import sys
from fractions import Fraction

from team_disclosure.equilibrium import (
    _consistency_witness,
    _plausibility_witness,
    _pure_profile,
    team_rule,
)
from team_disclosure.outcomes import JointDistribution, OffPathPosterior, make_space, posterior_no_disclosure
from team_disclosure.protocols import all_protocols, make_consensus, make_k_majority

from oracles import consistency_witness_by_profiles, plausibility_witness_by_profiles

F = Fraction

# grid sizes -> protocols drawn; (4,4,4,4) and (3,3,4,4) span several blocks
TWIN_SHAPES = [((2, 2, 2), 6), ((3, 3, 3), 4), ((2, 3, 2, 2), 4), ((3, 3, 4, 4), 2), ((4, 4, 4, 4), 2)]

# grids range(g) with a uniform pmf, under k_majority:4,k: plausibility
# witnesses for k = 1..4, and the consistency target and witness of the
# pure profile with every row 1 (vote 1 at the top value only) under
# k_majority:4,2
CAP_PINS = {
    (14, 2, 2, 2): (
        [(0, 0, 0, 1), (0, 1, 1, 3), None, None],
        ("325/53", "13/53", "13/53", "13/53"),
    ),
    (2, 8, 8, 2): (
        [(0, 0, 0, 1), (0, 127, 127, 3), None, None],
        ("7/23", "73/23", "73/23", "7/23"),
    ),
    (5, 5, 5, 5): (
        [(0, 0, 0, 15), (0, 15, 15, 31), None, None],
        ("29/16", "29/16", "29/16", "29/16"),
    ),
    (2, 2, 2, 14): (
        [(0, 0, 0, 8191), (0, 1, 1, 16383), None, None],
        ("13/53", "13/53", "13/53", "325/53"),
    ),
}


def sparse_dist(rng, sizes):
    """A pmf on grids of small rationals with about a third of its cells at
    zero, its masses below 1009 in pmf units."""
    values = sorted({F(v, den) for v in range(-4, 9) for den in (1, 2, 3)})
    space = make_space([sorted(rng.sample(values, size)) for size in sizes])
    nums = [rng.choice((0, 0, 1, 2, 3)) for _ in space.cells]
    nums[rng.randrange(len(nums))] += 1
    return JointDistribution(space, tuple(F(x, sum(nums)) for x in nums))


def reached_target(rng, dist, proto):
    """The no-disclosure posterior of a random pure profile that conceals."""
    while True:
        rows = [rng.randrange(1 << len(g)) for g in dist.space.grids]
        try:
            return posterior_no_disclosure(dist, team_rule(_pure_profile(dist.space, rows), proto))
        except OffPathPosterior:
            continue


def twin_mismatches() -> list[str]:
    """The seeded instances where a scan's first witness, or None, differs
    from its profile-by-profile twin's: the plausibility scan, the
    consistency scan on a reached target and on one that no profile reaches
    (denominator 1009)."""
    rng = random.Random(39)
    bad = []
    plausible = set()
    for sizes, draws in TWIN_SHAPES:
        dist = sparse_dist(rng, sizes)
        assert dist._scaled.den < 1009
        n = len(sizes)
        protos = list(all_protocols(n))
        if n == 4:
            protos = [make_k_majority(4, 2), make_consensus(4), *protos]
        for proto in protos[:2] + rng.sample(protos[2:], draws - 2):
            miss = [g[0] + (g[-1] - g[0]) * F(rng.randint(1, 1008), 1009) for g in dist.space.grids]
            checks = [
                ("plausibility", _plausibility_witness(dist, proto), plausibility_witness_by_profiles(dist, proto)),
            ]
            for name, target in (("reached", reached_target(rng, dist, proto)), ("unreached", miss)):
                fast = _consistency_witness(target, dist, proto)
                checks.append((f"consistency ({name})", fast, consistency_witness_by_profiles(target, dist, proto)))
            for name, fast, twin in checks:
                if fast != twin:
                    bad.append(f"{name} on {sizes} under {proto.describe()}: {fast} != {twin}")
            if checks[2][1] is not None:
                bad.append(f"unreached target consistent on {sizes} under {proto.describe()}")
            plausible.add(checks[0][1] is not None)
    if plausible != {True, False}:
        bad.append(f"every plausibility scan answered {plausible.pop()}")
    return bad


def pin_mismatches() -> list[str]:
    """The cap shapes where a scan's answer or witness, or a pinned target,
    differs from ``CAP_PINS``."""
    bad = []
    for sizes, (plausible, target) in CAP_PINS.items():
        space = make_space([range(g) for g in sizes])
        dist = JointDistribution(space, (F(1, len(space.cells)),) * len(space.cells))
        got = [_plausibility_witness(dist, make_k_majority(4, k)) for k in range(1, 5)]
        if got != plausible:
            bad.append(f"plausibility on {sizes}: {got}")
        proto = make_k_majority(4, 2)
        rows = (1, 1, 1, 1)
        post = posterior_no_disclosure(dist, team_rule(_pure_profile(space, rows), proto))
        if tuple(map(str, post)) != target:
            bad.append(f"target on {sizes}: {tuple(map(str, post))}")
        witness = _consistency_witness(post, dist, proto)
        if witness != rows:
            bad.append(f"consistency on {sizes}: {witness}")
    return bad


def main() -> int:
    twins = twin_mismatches()
    print(f"scans against their twins: {'ok' if not twins else '; '.join(twins)}")
    pins = pin_mismatches()
    print(f"pinned cap witnesses: {'ok' if not pins else '; '.join(pins)}")
    return 0 if not twins and not pins else 1


if __name__ == "__main__":
    sys.exit(main())
