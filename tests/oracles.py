"""Independent brute-force oracles used by the tests.

These re-derive expected values from first principles (subset loops, explicit
branch enumeration, direct payoff accounting) without reusing the library's
own formulas, so each checked quantity has two separate routes to the answer.
"""
from decimal import Context, Decimal
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import product
from math import comb
from operator import and_

ZERO = Fraction(0)
ONE = Fraction(1)


def subsets(members):
    members = list(members)
    for mask in range(1 << len(members)):
        yield [members[i] for i in range(len(members)) if mask >> i & 1]


def wins(minimal_winning, coalition):
    s = set(coalition)
    return any(set(c) <= s for c in minimal_winning)


def requires_more_consensus_bruteforce(n, minimal_winning):
    """Direct subset-loop version of the consensus comparison."""
    members = list(range(1, n + 1))
    for group in subsets(members):
        if not group:
            continue
        complement = [m for m in members if m not in group]
        if not wins(minimal_winning, group):
            continue
        if wins(minimal_winning, complement):
            continue
        # group is pivotal: need a strict subgroup that can block on its own
        blocked = False
        for sub in subsets(group):
            if len(sub) == len(group):
                continue
            rest = [m for m in members if m not in sub]
            if not wins(minimal_winning, rest):
                blocked = True
                break
        if not blocked:
            return False
    return True


def all_protocols_bruteforce(n):
    """Every protocol on n members, by filtering all 2^(2^n - 1) sets of
    nonempty coalitions down to the antichains: the slow twin of
    ``protocols.all_protocols``."""
    from team_disclosure.protocols import DeliberationProtocol, _members

    subsets = [m for m in range(1, 1 << n)]
    out = []
    for choice in range(1, 1 << len(subsets)):
        picked = [subsets[j] for j in range(len(subsets)) if choice >> j & 1]
        if any(a != b and a & b == a for a in picked for b in picked):
            continue
        coals = tuple(sorted((_members(m) for m in picked), key=lambda c: (len(c), c)))
        out.append(DeliberationProtocol(n, coals))
    return tuple(sorted(out, key=lambda p: (len(p.minimal_winning), p.minimal_winning)))


def posterior_by_enumeration(cells, probs, disclose, member_index):
    """E[member value | concealed], summing cell by cell."""
    num = ZERO
    den = ZERO
    for cell, p, d in zip(cells, probs, disclose):
        num += cell[member_index] * (ONE - d) * p
        den += (ONE - d) * p
    assert den > 0, "oracle conditioned on a null event"
    return num / den


@lru_cache(maxsize=16)
def upper_set_masks_bruteforce(cells):
    """All upper sets of the componentwise order, as index bitmasks.

    Filters every subset, so only usable up to ~16 cells. ``cells`` must be
    hashable (a tuple); the answer is cached per space.
    """
    n = len(cells)
    above = []
    for i, c in enumerate(cells):
        m = 0
        for j, d in enumerate(cells):
            if all(a >= b for a, b in zip(d, c)):
                m |= 1 << j
        above.append(m)
    out = []
    for mask in range(1 << n):
        rest = mask
        ok = True
        while rest:
            i = (rest & -rest).bit_length() - 1
            if above[i] & ~mask:
                ok = False
                break
            rest &= rest - 1
        if ok:
            out.append(mask)
    return tuple(out)


def fosd_bruteforce(cells, probs_f, probs_g, strict=False):
    weak = True
    some_strict = False
    for mask in upper_set_masks_bruteforce(cells):
        pf = pg = ZERO
        rest = mask
        while rest:
            i = (rest & -rest).bit_length() - 1
            pf += probs_f[i]
            pg += probs_g[i]
            rest &= rest - 1
        if pf < pg:
            weak = False
            break
        if pf > pg:
            some_strict = True
    if strict:
        return weak and some_strict
    return weak


def fosd_everywhere_bruteforce(cells, probs_f, probs_g):
    full = (1 << len(cells)) - 1
    for mask in upper_set_masks_bruteforce(cells):
        if mask in (0, full):
            continue
        gap = ZERO
        rest = mask
        while rest:
            i = (rest & -rest).bit_length() - 1
            gap += probs_f[i] - probs_g[i]
            rest &= rest - 1
        if gap <= 0:
            return False
    return True


def binary_branch_enumeration(n, p, q_team, q_own, q_other, k):
    """(P(ND), P(own high and ND), E[own|ND]) by enumerating both branches.

    Walks the common branch's two outcomes and the independent branch's 2^n
    outcome vectors explicitly; concealment means fewer than k high draws.
    """
    p = Fraction(p)
    q_team = Fraction(q_team)
    q_own = Fraction(q_own)
    q_other = Fraction(q_other)
    pnd = ZERO
    hi_nd = ZERO

    # common branch: everyone shares one draw
    for value, weight in ((1, q_team), (0, ONE - q_team)):
        if n * value < k:  # highs are n*value
            pnd += p * weight
            if value == 1:
                hi_nd += p * weight

    # independent branch
    for outcome in product((0, 1), repeat=n):
        w = q_own if outcome[0] == 1 else ONE - q_own
        for v in outcome[1:]:
            w *= q_other if v == 1 else ONE - q_other
        if sum(outcome) < k:
            pnd += (ONE - p) * w
            if outcome[0] == 1:
                hi_nd += (ONE - p) * w
    mean = hi_nd / pnd if pnd > 0 else ZERO
    return pnd, hi_nd, mean


def binary_closed_forms_by_k(params, k):
    """(P(ND), P(own high and ND), E[own|ND]) from the per-k closed forms.

    The tail is a pmf sum over the other members' low count, and the mean is
    also taken through the inverted sum-of-three-terms form, whose partner sum
    is a loop of powers of (1-q_other)/q_other; the two means must agree.
    """
    n, p, qt, qi, qo = params.n, params.p, params.q_team, params.q_own, params.q_other
    s1 = ZERO
    for m in range(n - k + 1, n):
        s1 += comb(n - 1, m) * (ONE - qo) ** m * qo ** (n - 1 - m)
    pivotal = comb(n - 1, n - k) * (ONE - qo) ** (n - k) * qo ** (k - 1)
    pnd = p * (ONE - qt) + (ONE - p) * s1 + (ONE - p) * (ONE - qi) * pivotal
    joint = (ONE - p) * qi * s1
    mean = joint / pnd
    if k >= 2:
        s2 = ZERO
        for m in range(n - k + 1, n):
            s2 += comb(n - 1, m) * ((ONE - qo) / qo) ** (m - (n - k))
        inverted = (
            p * (ONE - qt) / ((ONE - p) * qi * s1)
            + ONE / qi
            + (ONE - qi) * comb(n - 1, n - k) / (qi * s2)
        )
        assert ONE / inverted == mean, "per-k closed forms disagree"
    return pnd, joint, mean


def binary_gains_by_k(full, dev, ks=None):
    """The effort gain at every k = 1..n (or at each of ``ks``), one per-k
    evaluation after another: the mean shift less the deviation's conceal
    probability times the change in the conceal mean."""
    base = full.p * full.q_team + (ONE - full.p) * full.q_own
    base -= dev.p * dev.q_team + (ONE - dev.p) * dev.q_own
    gains = []
    for k in ks or range(1, full.n + 1):
        pnd_dev, _, mean_dev = binary_closed_forms_by_k(dev, k)
        mean_full = binary_closed_forms_by_k(full, k)[2]
        gains.append(base - pnd_dev * (mean_full - mean_dev))
    return tuple(gains)


@lru_cache(maxsize=4)
def binary_terms_by_fractions(params):
    """(P(ND), P(own high and ND), E[own|ND]) for every k = 1..n as Fractions.

    The one-pass Fraction loop the integer kernel replaced: binomial weights of
    the others' low count and their suffix sums over the scale den**(n-1),
    every k >= 2 checked against the inverted sum-of-three-terms form with its
    partner sum carried as s2(k) = r * (C(n-1, n-k+1) + s2(k-1)),
    r = (1-q_other)/q_other.
    """
    n, p, qt, qi, qo = params.n, params.p, params.q_team, params.q_own, params.q_other
    num, den = qo.numerator, qo.denominator
    low = den - num
    weights = [comb(n - 1, m) * low**m * num ** (n - 1 - m) for m in range(n)]
    scale = den ** (n - 1)
    suffix = [0] * (n + 1)
    for m in range(n - 1, -1, -1):
        suffix[m] = suffix[m + 1] + weights[m]

    common = p * (ONE - qt)
    indep = (ONE - p) / scale
    indep_high, indep_low = indep * qi, indep * (ONE - qi)
    inv_qi, odds_low = ONE / qi, (ONE - qi) / qi
    r = (ONE - qo) / qo
    pnds, joints, means = [], [], []
    s2 = ZERO
    for k in range(1, n + 1):
        s1 = suffix[n - k + 1]
        pnd = common + indep * s1 + indep_low * weights[n - k]
        joint = indep_high * s1
        mean = joint / pnd
        if k >= 2:
            s2 = r * (comb(n - 1, n - k + 1) + s2)
            inverted = common / joint + inv_qi + odds_low * comb(n - 1, n - k) / s2
            assert ONE / inverted == mean, "Fraction pass disagrees with its inverted form"
        pnds.append(pnd)
        joints.append(joint)
        means.append(mean)
    return tuple(pnds), tuple(joints), tuple(means)


def binary_gains_by_fractions(full, dev):
    """The effort gain at every k from two Fraction passes: the mean shift
    less the deviation's conceal probability times the change in the conceal
    mean."""
    base = full.p * full.q_team + (ONE - full.p) * full.q_own
    base -= dev.p * dev.q_team + (ONE - dev.p) * dev.q_own
    means_full = binary_terms_by_fractions(full)[2]
    pnds_dev, _, means_dev = binary_terms_by_fractions(dev)
    return tuple(
        base - pnd * (mf - md) for pnd, mf, md in zip(pnds_dev, means_full, means_dev)
    )


def first_argmax(values):
    """1-based position of the first largest value, by Fraction comparison."""
    best = 0
    for i in range(1, len(values)):
        if values[i] > values[best]:
            best = i
    return best + 1


def sweep_by_fractions(full, dev, axis, grid):
    """The sweep loop the integer curve kernel replaced, as ``SweepRow``s:
    per grid point a new deviation profile, its gains from the two Fraction
    passes, and the first Fraction argmax."""
    from dataclasses import replace

    from team_disclosure.binary_env import SweepRow

    field = {"q_other_dev": "q_other", "p_dev": "p", "q_own_dev": "q_own", "q_T_dev": "q_team"}
    rows = []
    for value in grid:
        gains = binary_gains_by_fractions(full, replace(dev, **{field[axis]: value}))
        k_star = first_argmax(gains)
        rows.extend(SweepRow(value, k, g, k == k_star) for k, g in enumerate(gains, 1))
    return tuple(rows)


def grid_by_fractions(spec):
    """The points of a 'start:stop:step' grid spec by the Fraction loop
    ``start + i*step``, i = 0, 1, ... while the point stays at most stop."""
    start, stop, step = (Fraction(part) for part in spec.split(":"))
    points, i = [], 0
    while start + i * step <= stop:
        points.append(start + i * step)
        i += 1
    return tuple(points)


def decimal_by_objects(value):
    """value (a Fraction or int) to 12 significant digits by two ``Decimal``
    objects divided in a context of its own, sharing no code with
    ``rationals``."""
    num, den = value.as_integer_ratio()
    return str(Context(prec=12).divide(Decimal(num), Decimal(den)))


def csv_by_decimal_str(rows):
    """A sweep's CSV from every ``SweepRow``, the reference for
    ``SweepTable.csv_lines``: the axis value and the gain rendered by
    ``decimal_by_objects``, the exact gain by ``str``."""
    lines = ["axis_value,K,gain,is_optimal,gain_exact"]
    for row in rows:
        flag = "true" if row.is_optimal else "false"
        lines.append(
            f"{decimal_by_objects(row.axis_value)},{row.k},{decimal_by_objects(row.gain)},{flag},{row.gain}"
        )
    return "\n".join(lines) + "\n"


def effort_payoff_difference(full_dist, dev_dist, rule_values, member_index):
    """Gain from effort by direct payoff accounting.

    Disclosed outcomes pay their own value; concealed ones pay the observer's
    posterior, frozen at its everyone-works value (the observer never sees
    effort). Returns the payoff at full effort minus at the deviation.
    """
    cells = full_dist.space.cells
    if all(d == ONE for d in rule_values):
        post = full_dist.space.grids[member_index][0]  # skeptical: never used on path
    else:
        post = posterior_by_enumeration(cells, full_dist.probs, rule_values, member_index)

    def payoff(dist):
        total = ZERO
        for cell, p, d in zip(cells, dist.probs, rule_values):
            total += p * (d * cell[member_index] + (ONE - d) * post)
        return total

    return payoff(full_dist) - payoff(dev_dist)


def mixing_indicator_by_public_calls(model, top, protocol):
    """The dominance indicator that ``find_epsilon_bar`` thresholds, as a
    function of the mixing weight, rebuilt from public calls only (``mix``,
    ``posterior_no_disclosure``, ``verify_equilibrium``): the profile that
    conceals only each member's worst outcome is an equilibrium of the mixed
    full-effort distribution at its Bayes posterior, no member's posterior
    exceeds their posterior after shirking, and some member's is below it."""
    from team_disclosure.equilibrium import StrategyProfile, verify_equilibrium
    from team_disclosure.outcomes import OffPathPosterior, mix, posterior_no_disclosure

    full = model.dist_of(model.full_effort)
    profile = StrategyProfile.from_votes(
        full.space, [[0] + [1] * (len(g) - 1) for g in full.space.grids]
    )
    rule = team_rule_by_evaluate(profile, protocol)
    shirking = []
    for i in range(1, model.n + 1):
        try:
            shirking.append(posterior_no_disclosure(model.dist_of(model.without(i)), rule)[i - 1])
        except OffPathPosterior:
            shirking.append(None)

    def holds(eps):
        mixed = mix(full, top, eps)
        post = posterior_no_disclosure(mixed, rule)
        if not verify_equilibrium(profile, post, mixed, protocol).ok:
            return False
        diffs = [p - s for p, s in zip(post, shirking) if s is not None]
        return all(d <= 0 for d in diffs) and any(d < 0 for d in diffs)

    return holds


# ---------------------------------------------------------------------------
# Fraction twins of the equilibrium module's integer kernels
# ---------------------------------------------------------------------------
# These walk every profile through Fraction loops: the team rule from
# protocol.evaluate at each cell's vote vector, the Bayes posterior and the
# concealment statistics cell by cell. None of them calls team_rule,
# posterior_no_disclosure or the integer concealment sums they are checked
# against.


def team_rule_by_evaluate(profile, protocol):
    """The team rule from one multilinear ``protocol.evaluate`` per cell."""
    from team_disclosure.equilibrium import TeamRule

    space = profile.space
    return TeamRule(
        space, tuple(protocol.evaluate(profile.vote_vector(cell)) for cell in space.cells)
    )


def posterior_no_disclosure_by_fractions(dist, rule):
    """The no-disclosure posterior by one Fraction loop over the cells, with
    the library's errors for a bad rule and for an off-path posterior."""
    from team_disclosure.outcomes import OffPathPosterior, OutcomeError
    from team_disclosure.rationals import as_fraction

    values = getattr(rule, "values", rule)
    if len(values) != len(dist.space.cells):
        raise OutcomeError("rule length does not match the cell count")
    nd = ZERO
    sums = [ZERO] * dist.space.n
    for cell, p, d in zip(dist.space.cells, dist.probs, values):
        d = as_fraction(d)
        if not ZERO <= d <= ONE:
            raise OutcomeError(f"disclosure probability {d} outside [0,1]")
        w = (ONE - d) * p
        if w == 0:
            continue
        nd += w
        for i, v in enumerate(cell):
            sums[i] += v * w
    if nd == 0:
        raise OffPathPosterior("off-path posterior undefined: concealment never happens")
    return tuple(s / nd for s in sums)


def nd_stats_by_fractions(dist, rule, i):
    """(P(conceal), E[member-i value on the concealed event], unnormalized),
    summed cell by cell."""
    pnd = ZERO
    mass = ZERO
    for cell, p, d in zip(dist.space.cells, dist.probs, rule.values):
        w = (ONE - d) * p
        pnd += w
        mass += cell[i - 1] * w
    return pnd, mass


def pack_by_cells(columns):
    """Each cell's entries packed into one int, one cell at a time, and the
    field width: the slow twin of ``outcomes._pack``, which packs column by
    column."""
    width = max(sum(map(abs, column)) for column in columns).bit_length() + 1
    return [sum(e << (width * j) for j, e in enumerate(entries)) for entries in zip(*columns)], width


@lru_cache(maxsize=4)
def cut_tables_by_vote_mask(dist):
    """For every pure cut combination c (member i votes to disclose from grid
    position c_i on, c_i in 0..len(grid_i)) and every pure vote mask v, the
    pmf weight and the scaled member values of the cells whose votes under c
    equal v, in the integer units of ``dist._scaled``."""
    space = dist.space
    n = space.n
    weights, grid_ints = dist._scaled.weights, dist._scaled.grid_ints
    positions = space.positions
    tables = {}
    for combo in product(*(range(len(g) + 1) for g in space.grids)):
        agg_w = [0] * (1 << n)
        agg_s = [[0] * (1 << n) for _ in range(n)]
        for c, w in enumerate(weights):
            v = 0
            for i in range(n):
                if positions[i][c] >= combo[i]:
                    v |= 1 << i
            agg_w[v] += w
            for i in range(n):
                agg_s[i][v] += grid_ints[i][positions[i][c]] * w
        tables[combo] = (agg_w, agg_s)
    return tables


def search_conceal_by_cells(dist, protocol):
    """The cut search's concealment table: per pure cut combination, the
    concealed mass W and value sums S_i, summed over the per-vote-mask
    aggregates of the protocol's losing masks."""
    lose = [v for v in range(1 << protocol.n) if not protocol.wins(v)]
    return {
        combo: (sum(agg_w[v] for v in lose), tuple(sum(s[v] for v in lose) for s in agg_s))
        for combo, (agg_w, agg_s) in cut_tables_by_vote_mask(dist).items()
    }


def verify_equilibrium_by_evaluate(profile, posteriors, dist, protocol):
    """Equilibrium verification with pivotality decided by two multilinear
    evaluations per (cell, coalition): the coalition voting 1 against it
    voting 0, everyone else keeping their mixed votes."""
    from team_disclosure.equilibrium import VerificationReport, Violation
    from team_disclosure.outcomes import OffPathPosterior

    space = dist.space
    post = tuple(Fraction(p) for p in posteriors)
    n = space.n
    violations = []
    for cell in space.cells:
        votes = profile.vote_vector(cell)
        for mask in range(1, 1 << n):
            members = [i for i in range(n) if mask >> i & 1]
            hi = list(votes)
            lo = list(votes)
            for i in members:
                hi[i] = ONE
                lo[i] = ZERO
            if protocol.evaluate(hi) <= protocol.evaluate(lo):
                continue
            if all(cell[i] > post[i] for i in members):
                if any(votes[i] != ONE for i in members):
                    violations.append(
                        Violation(
                            "deviation",
                            f"at outcome {tuple(map(str, cell))} coalition "
                            f"{tuple(i + 1 for i in members)} all gain from disclosure "
                            "but someone votes below 1",
                        )
                    )
            if all(cell[i] < post[i] for i in members):
                if any(votes[i] != ZERO for i in members):
                    violations.append(
                        Violation(
                            "deviation",
                            f"at outcome {tuple(map(str, cell))} coalition "
                            f"{tuple(i + 1 for i in members)} all gain from concealment "
                            "but someone votes above 0",
                        )
                    )
    rule = team_rule_by_evaluate(profile, protocol)
    try:
        bayes = posterior_no_disclosure_by_fractions(dist, rule)
    except OffPathPosterior:
        bayes = None
    if bayes is not None and bayes != post:
        violations.append(
            Violation(
                "bayes",
                f"stated posteriors {tuple(map(str, post))} differ from the "
                f"Bayes-consistent ones {tuple(map(str, bayes))}",
            )
        )
    return VerificationReport(not violations, bayes is None, tuple(violations), bayes)


def deterministic_profiles(space):
    """Every deterministic own-outcome profile, as StrategyProfiles of 0/1 Fractions."""
    from team_disclosure.equilibrium import StrategyProfile

    per_member = [
        [tuple(map(Fraction, bits)) for bits in product((0, 1), repeat=len(g))]
        for g in space.grids
    ]
    for rows in product(*per_member):
        yield StrategyProfile(space, rows)


def consistent_with_deliberation_by_fractions(posteriors, dist, protocol):
    """Profile-by-profile Fraction search: team rule, then Bayes posterior."""
    from team_disclosure.outcomes import OffPathPosterior

    target = tuple(Fraction(p) for p in posteriors)
    for profile in deterministic_profiles(dist.space):
        try:
            post = posterior_no_disclosure_by_fractions(
                dist, team_rule_by_evaluate(profile, protocol)
            )
        except OffPathPosterior:
            continue
        if post == target:
            return True
    return False


def plausible_full_disclosure_by_fractions(dist, protocol):
    """Profile-by-profile Fraction search for a justified full-disclosure
    equilibrium: posteriors sustaining always-disclose, or an on-path
    equilibrium concealing at most one outcome."""
    from team_disclosure.equilibrium import FULL, classify_rule
    from team_disclosure.outcomes import OffPathPosterior

    space = dist.space
    n = space.n
    mins = space.min_vector
    members = list(range(1, n + 1))
    blocking = [
        [i - 1 for i in grp]
        for grp in subsets(members)
        if grp and not wins(protocol.minimal_winning, [m for m in members if m not in grp])
    ]
    for profile in deterministic_profiles(space):
        rule = team_rule_by_evaluate(profile, protocol)
        try:
            post = posterior_no_disclosure_by_fractions(dist, rule)
        except OffPathPosterior:
            continue
        if all(any(post[i] <= mins[i] for i in grp) for grp in blocking):
            return True
        if classify_rule(rule) == FULL and verify_equilibrium_by_evaluate(
            profile, post, dist, protocol
        ).ok:
            return True
    return False


def concealed_sets(space, protocol):
    """(rows, K) for every deterministic own-outcome profile, in ``product``
    order of each member's rows: K = the cells outside the OR, over the
    minimal winning coalitions, of the AND of their members' row cells
    (``space._row_cells``), zero-probability cells included. Built from
    each profile's rows alone, as ``equilibrium._witness_holds`` builds a
    witness's, sharing nothing with the scans' block kernel."""
    every = (1 << len(space.cells)) - 1
    tables = space._row_cells
    coalitions = [[i for i in range(space.n) if mask >> i & 1] for mask in protocol._minimal_masks]
    for rows in product(*(range(len(table)) for table in tables)):
        cells = [table[r] for table, r in zip(tables, rows)]
        disclosed = 0
        for members in coalitions:
            disclosed |= reduce(and_, [cells[i] for i in members])
        yield rows, every & ~disclosed


def _profiles_with_mass(dist, protocol):
    """(rows, K) for every deterministic own-outcome profile whose concealed
    cells K carry mass, in ``product`` order, one concealed set per profile."""
    for bits, k in concealed_sets(dist.space, protocol):
        if k & dist.support:
            yield bits, k


def consistency_witness_by_profiles(posteriors, dist, protocol):
    """The rows of the first profile whose concealed set's packed posterior
    conditions read 0, one packed read per profile, or None: the mid-size
    twin of the prefix scan behind ``consistent_with_deliberation``."""
    from team_disclosure.outcomes import _chunk_sum, _chunks, _pack, _subset_sums

    scaled = dist._scaled
    columns = []
    for t, scale, values in zip(posteriors, scaled.scales, scaled.values):
        num, den = (Fraction(t) * scale).as_integer_ratio()
        columns.append([v * den - num * w for v, w in zip(values, scaled.weights)])
    tables = _subset_sums(_pack(columns)[0])
    for bits, k in _profiles_with_mass(dist, protocol):
        if not _chunk_sum(tables, _chunks(k)):
            return bits
    return None


def _posterior_of_rows(dist, protocol, rows):
    """The Bayes no-disclosure posterior of the pure profile ``rows`` (one
    row bitmask per member, first position in the highest bit), rebuilt as a
    StrategyProfile of 0/1 Fractions and read through the Fraction loops
    above; None when the profile never conceals."""
    from team_disclosure.equilibrium import StrategyProfile
    from team_disclosure.outcomes import OffPathPosterior

    profile = StrategyProfile(
        dist.space,
        tuple(
            tuple(Fraction(r >> (len(g) - 1 - p) & 1) for p in range(len(g)))
            for g, r in zip(dist.space.grids, rows)
        ),
    )
    try:
        return posterior_no_disclosure_by_fractions(dist, team_rule_by_evaluate(profile, protocol))
    except OffPathPosterior:
        return None


def consistency_confirmed_by_fractions(posteriors, dist, protocol, rows):
    """Whether the pure profile ``rows`` conceals with positive probability
    and Bayes-updates to exactly ``posteriors``, in Fractions: the Fraction
    twin of ``equilibrium._witness_holds`` with a target."""
    post = _posterior_of_rows(dist, protocol, rows)
    return post is not None and post == tuple(Fraction(p) for p in posteriors)


def plausibility_confirmed_by_fractions(dist, protocol, rows):
    """Whether the pure profile ``rows`` conceals with positive probability
    and its Bayes posteriors sustain always-disclose (every blocking
    coalition holds a member whose posterior sits at their minimum), in
    Fractions: the Fraction twin of ``equilibrium._witness_holds`` without a
    target."""
    post = _posterior_of_rows(dist, protocol, rows)
    if post is None:
        return False
    n = dist.space.n
    mins = dist.space.min_vector
    blocking = [
        [i for i in range(n) if mask >> i & 1]
        for mask in range(1, 1 << n)
        if not protocol.wins(((1 << n) - 1) ^ mask)
    ]
    return all(any(post[i] <= mins[i] for i in grp) for grp in blocking)


def plausibility_witness_by_profiles(dist, protocol):
    """The rows of the first profile whose members at their floor (no
    concealed cell of mass above their minimum) win, one floor test per
    profile, or None: the mid-size twin of the prefix scan behind
    ``plausible_full_disclosure_by_search``."""
    uppers = [(1 << i, dist.support & ~slabs[0]) for i, slabs in enumerate(dist.space.slabs)]
    for bits, k in _profiles_with_mass(dist, protocol):
        if protocol.wins(sum(bit for bit, upper in uppers if not k & upper)):
            return bits
    return None


# ---------------------------------------------------------------------------
# Dense rational scan of atom weights
# ---------------------------------------------------------------------------


def atom_grid_scan(corners, grids, config, steps=12):
    """First atom-weight assignment on the grid {j/steps}, in product order,
    at which a cut configuration is a fixed point; None if there is none.

    ``corners`` holds (W, S) at every 0/1 corner of the atom weights, in
    ``product((0, 1))`` order: the concealed mass and each member's concealed
    value sum. At a grid point both are the multilinear interpolation of the
    corners, evaluated in integers scaled by steps**atoms. The point is a
    fixed point when W > 0, every atom member's posterior S_i/W equals their
    atom value and every gap member's lies strictly inside their cut
    interval.
    """
    from operator import mul

    atoms = [i for i, (kind, _) in enumerate(config) if kind == "atom"]
    masses = [w for w, _ in corners]
    sums = [[s[i] for _, s in corners] for i in range(len(config))]
    for js in product(range(steps + 1), repeat=len(atoms)):
        coeff = []
        for bits in product((0, 1), repeat=len(atoms)):
            c = 1
            for j, b in zip(js, bits):
                c *= j if b else steps - j
            coeff.append(c)
        w = sum(map(mul, coeff, masses))
        if w <= 0:
            continue
        for i, (kind, pos) in enumerate(config):
            s = sum(map(mul, coeff, sums[i]))
            g = grids[i]
            if not (s == g[pos] * w if kind == "atom" else g[pos - 1] * w < s < g[pos] * w):
                break
        else:
            return {a: Fraction(j, steps) for a, j in zip(atoms, js)}
    return None


# ---------------------------------------------------------------------------
# Unscreened equilibrium search
# ---------------------------------------------------------------------------


def slot_entry(table, b, state):
    """The (W, S) entry of combination b of a broadword int in a search
    state's slots (``equilibrium._SearchState``), read slot by slot: field f
    of combination b in slot f*count + b, each S_i's grid shift undone."""
    bits = 8 * state.step
    slot = (1 << bits) - 1
    w, *s = (table >> bits * (f * state.count + b) & slot for f in range(len(state.lows) + 1))
    return w, tuple(v + lo * w for v, lo in zip(s, state.lows))


def context_entries(ctx):
    """The (W, S) entry of every combination of a search context, in
    ``product`` order of the cut ranges, read from its sums as
    ``_SearchContext.corners`` reads them for the solver."""
    total = int.from_bytes(ctx.sums, "little")
    return [slot_entry(total, b, ctx.state) for b in range(ctx.state.count)]


def dense_mask(mask, state):
    """A mask of a search state's slot top bits as a plain combination mask,
    bit b for the combination in slot b; it must hold no other bit."""
    assert mask & ~state.top == 0
    bits = 8 * state.step
    return sum(1 << b for b in range(state.count) if mask >> (bits * b + bits - 1) & 1)


def search_masks_by_combo(ctx):
    """``(w_pos, above, below, slabs)`` of a search context as plain
    combination masks, one combination at a time: the slow twin of
    ``_search_context``, which signs every combination at once in its slots,
    and of the search state's slabs. Bit b stands for the b-th combination
    in ``product`` order of the cut ranges, whose entry is
    ``context_entries(ctx)[b]``."""
    grid_ints = ctx.state.grid_ints
    w_pos = 0
    above = [[0] * len(g) for g in grid_ints]
    below = [[0] * len(g) for g in grid_ints]
    slabs = [[0] * (len(g) + 1) for g in grid_ints]
    combos = product(*(range(len(g) + 1) for g in grid_ints))
    for b, (combo, (w, s)) in enumerate(zip(combos, context_entries(ctx), strict=True)):
        bit = 1 << b
        if w > 0:
            w_pos |= bit
        for i, c in enumerate(combo):
            slabs[i][c] |= bit
            for p, x in enumerate(grid_ints[i]):
                d = s[i] - x * w
                if d > 0:
                    above[i][p] |= bit
                elif d < 0:
                    below[i][p] |= bit
    return w_pos, above, below, slabs


def assert_masks_match(ctx):
    """A search context's masks, through the slot-to-dense map, equal
    :func:`search_masks_by_combo`."""
    state = ctx.state

    def dense(masks):
        return [[dense_mask(m, state) for m in row] for row in masks]

    got = (dense_mask(ctx.w_pos, state), dense(ctx.above), dense(ctx.below), dense(state.slabs))
    assert got == search_masks_by_combo(ctx)


def unscreened_configs(ctx):
    """Every cut configuration of a search context, per member each gap then
    each atom, in ``product`` order: the slow twin of ``_cut_configs``."""
    member_options = []
    for g in ctx.state.grid_ints:
        opts = [("gap", c) for c in range(1, len(g))]
        opts += [("atom", p) for p in range(len(g))]
        member_options.append(opts)
    return list(product(*member_options))


def unscreened_search_configs(ctx):
    """:func:`unscreened_configs` as a stand-in for ``_cut_configs`` when a
    test runs the search with no screen: every configuration with an atom,
    and those with none where the atom solver finds its one combination
    feasible. The search takes a configuration with no atom without the
    solver, because the screen has proven it; with the screen swapped out,
    the solver proves it instead."""
    from team_disclosure.equilibrium import _AtomSolver

    return [
        config
        for config in unscreened_configs(ctx)
        if any(kind == "atom" for kind, _ in config)
        or _AtomSolver(ctx.state.grid_ints, config, ctx.corners(config)).solve() is not None
    ]


def screened_configs_by_product(ctx, zero_set=True):
    """The corner screen of ``_cut_configs`` as a filter over the whole
    ``product`` of the members' options, with no pruning of prefixes.

    A configuration's box is the AND of its members' slab masks. Its zero
    set starts as the whole box; while some atom member's equation is
    nonzero somewhere on it but one-signed on all of it, the corners where
    that equation is nonzero are dropped. The configuration survives when
    its zero set meets ``w_pos`` and every member's needs: a gap member's two
    strict bounds, and an atom member's concealing corner (W > 0) with
    h <= 0 and one with h >= 0. With ``zero_set=False`` the needs are tested
    on the whole box: a weaker screen that judges each constraint on its own
    corner signs.
    """
    options = []
    w_pos = ctx.w_pos
    for slabs, above, below in zip(ctx.state.slabs, ctx.above, ctx.below):
        size = len(above)
        opts = [(("gap", c), slabs[c], (above[c - 1], below[c]), None) for c in range(1, size)]
        opts += [
            (
                ("atom", p),
                slabs[p] | slabs[p + 1],
                ((w_pos & ~above[p]) | below[p], (w_pos & ~below[p]) | above[p]),
                (above[p], below[p]),
            )
            for p in range(size)
        ]
        options.append(opts)
    survivors = []
    for choice in product(*options):
        z = reduce(and_, [slab for _, slab, _, _ in choice])
        signs = [signed for _, _, _, signed in choice if signed is not None]
        while zero_set:
            one_signed = [
                above | below
                for above, below in signs
                if z & (above | below) and not (z & above and z & below)
            ]
            if not one_signed:
                break
            z &= ~one_signed[0]
        if z & w_pos and all(z & need for _, _, needs, _ in choice for need in needs):
            survivors.append(tuple(config for config, _, _, _ in choice))
    return survivors


def find_equilibria_report_unscreened(dist, protocol):
    """The exhaustive search with no corner sign screen: every configuration
    goes to the atom solver, and every candidate's rule, posterior and
    verification come from the Fraction twins above, which rebuild the rule
    and posterior again."""
    from team_disclosure.equilibrium import (
        FULL,
        Equilibrium,
        MemberCut,
        StrategyProfile,
        TeamRule,
        _AtomSolver,
        _build_context,
        _profile_from_config,
        classify_rule,
    )
    from team_disclosure.outcomes import OffPathPosterior

    space = dist.space
    ctx = _build_context(dist, protocol)
    all_ones = StrategyProfile.constant(space, ONE)
    fd_rule = TeamRule.constant(space, ONE)
    results = {
        fd_rule.values: Equilibrium(
            profile=all_ones,
            rule=fd_rule,
            posteriors=space.min_vector,
            classification=FULL,
            off_path=True,
            cuts=tuple(MemberCut(cut=0) for _ in range(space.n)),
            verification=verify_equilibrium_by_evaluate(all_ones, space.min_vector, dist, protocol),
        )
    }
    notes = []
    for config in unscreened_configs(ctx):
        solver = _AtomSolver(ctx.state.grid_ints, config, ctx.corners(config))
        weights = solver.solve()
        if weights is None:
            if solver.unresolved:
                notes.append(f"a {len(solver.atoms)}-atom configuration was left unresolved")
            continue
        profile, cuts = _profile_from_config(space, config, weights)
        rule = team_rule_by_evaluate(profile, protocol)
        if rule.values in results:
            continue
        try:
            post = posterior_no_disclosure_by_fractions(dist, rule)
        except OffPathPosterior:
            continue
        ver = verify_equilibrium_by_evaluate(profile, post, dist, protocol)
        if not ver.ok:
            notes.append(f"candidate configuration {config} failed verification")
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
    ordered = tuple(results[k] for k in sorted(results, reverse=True))
    return ordered, tuple(dict.fromkeys(notes))
