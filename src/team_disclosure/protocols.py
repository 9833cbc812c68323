"""Deliberation protocols: monotone rules aggregating member votes into a team decision.

A protocol over members ``1..n`` is stored as its antichain of minimal winning
coalitions. The induced vote-aggregation function is monotone by construction,
never discloses against a unanimous "no", and always discloses on a unanimous
"yes". Mixed votes are aggregated by the multilinear extension: the probability
that independently realized pure votes form a winning coalition.

Members are numbered 1..n. Vote vectors are positional: entry 0 is member 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, compress
from typing import Callable, Iterable, Sequence

from .rationals import ONE, ZERO, Rational, as_fraction

MAX_MEMBERS = 12


class ProtocolError(ValueError):
    """Raised for inputs that violate the protocol axioms."""


def _mask(members: Iterable[int], n: int) -> int:
    m = 0
    for i in members:
        if not 1 <= i <= n:
            raise ProtocolError(f"member {i} out of range 1..{n}")
        m |= 1 << (i - 1)
    return m


def _members(mask: int) -> tuple[int, ...]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def _submasks(mask: int):
    """Every submask of ``mask`` (a coalition's subgroups), from ``mask``
    itself down to the empty one."""
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


@dataclass(frozen=True)
class DeliberationProtocol:
    """Monotone winning-coalition structure with a multilinear mixed-vote extension."""

    n: int
    minimal_winning: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not 2 <= self.n <= MAX_MEMBERS:
            raise ProtocolError(f"need 2 <= n <= {MAX_MEMBERS}, got {self.n}")
        if not self.minimal_winning:
            raise ProtocolError("no winning coalition: the full team must be able to disclose")
        masks = []
        for coal in self.minimal_winning:
            if not coal:
                raise ProtocolError("the empty coalition must not be winning")
            if tuple(sorted(set(coal))) != tuple(coal):
                raise ProtocolError(f"coalition {coal} is not sorted and duplicate-free")
            masks.append(_mask(coal, self.n))
        for a, b in combinations(masks, 2):
            if a & b == a or a & b == b:
                raise ProtocolError("minimal_winning is not an antichain")
        canon = tuple(sorted(self.minimal_winning, key=lambda c: (len(c), c)))
        if canon != self.minimal_winning:
            raise ProtocolError("minimal_winning is not in canonical order")

    @cached_property
    def _minimal_masks(self) -> tuple[int, ...]:
        return tuple(_mask(c, self.n) for c in self.minimal_winning)

    @cached_property
    def _winning_table(self) -> tuple[bool, ...]:
        """Truth table over all 2^n pure vote vectors, indexed by bitmask."""
        mins = self._minimal_masks
        return tuple(
            any(m & s == m for m in mins) for s in range(1 << self.n)
        )

    def wins(self, mask: int) -> bool:
        """Whether the coalition given as a bitmask carries disclosure."""
        return self._winning_table[mask]

    def is_winning(self, members: Iterable[int]) -> bool:
        return self.wins(_mask(members, self.n))

    def evaluate(self, votes: Sequence[Rational]) -> Fraction:
        """Multilinear extension of the protocol at a vector of vote probabilities.

        Equals the pure aggregation rule on 0/1 vectors and is linear in each
        coordinate: the probability that members, voting yes independently with
        the given probabilities, form a winning coalition.
        """
        if len(votes) != self.n:
            raise ProtocolError(f"expected {self.n} votes, got {len(votes)}")
        x = [as_fraction(v) for v in votes]
        for v in x:
            if not ZERO <= v <= ONE:
                raise ProtocolError(f"vote probability {v} outside [0,1]")
        ones = 0
        mixers = []
        for i, v in enumerate(x):
            if v == ONE:
                ones |= 1 << i
            elif v != ZERO:
                mixers.append((1 << i, v.numerator, v.denominator))
        return self._extension(ones, mixers)

    def _extension(self, ones: int, mixers: Sequence[tuple[int, int, int]]) -> Fraction:
        """The multilinear extension in integers, over one common denominator.

        ``ones`` is the bitmask of the members voting 1; each mixer is
        ``(bit, num, den)``, a member voting 1 with probability num/den; every
        other member votes 0. Sums the winning completions of the mixers'
        votes, each weighted by the product of their vote numerators.
        """
        table = self._winning_table
        if not mixers:
            return ONE if table[ones] else ZERO
        masks, weights, den = [ones], [1], 1
        for bit, num, mixer_den in mixers:
            masks += [m | bit for m in masks]
            weights = [w * (mixer_den - num) for w in weights] + [w * num for w in weights]
            den *= mixer_den
        return Fraction(sum(compress(weights, map(table.__getitem__, masks))), den)

    def can_unilaterally_disclose(self, i: int) -> bool:
        """Whether member i alone forms a winning coalition."""
        if not 1 <= i <= self.n:
            raise ProtocolError(f"member {i} out of range 1..{self.n}")
        return self.wins(1 << (i - 1))

    @cached_property
    def all_unilateral(self) -> bool:
        return all(self.can_unilaterally_disclose(i) for i in range(1, self.n + 1))

    @cached_property
    def any_unilateral(self) -> bool:
        return any(self.can_unilaterally_disclose(i) for i in range(1, self.n + 1))

    def disclosure_requires_more_consensus(self) -> bool:
        """Whether reaching "disclose" needs strictly broader support than "conceal".

        True iff every pivotal subgroup I (unanimous I carries disclosure
        against the rest, and loses it when unanimously opposed by the rest)
        contains a strict subgroup J that can already block disclosure on its
        own. Decided by exhaustive enumeration over coalitions.
        """
        full = (1 << self.n) - 1
        return all(
            any(not self.wins(full ^ j_mask) for j_mask in _submasks(i_mask) if j_mask != i_mask)
            for i_mask in range(1, full + 1)
            # I carries disclosure and is pivotal: the rest alone does not
            if self.wins(i_mask) and not self.wins(full ^ i_mask)
        )

    def describe(self) -> str:
        coals = ",".join("{" + ",".join(map(str, c)) + "}" for c in self.minimal_winning)
        return f"protocol(n={self.n}, minimal_winning=[{coals}])"


def make_protocol(n: int, winning: Iterable[Iterable[int]]) -> DeliberationProtocol:
    """Build a protocol from winning-coalition generators.

    Any superset of a listed coalition is winning. The list is normalized to
    the antichain of minimal winning coalitions; an empty coalition or an
    empty list is rejected.
    """
    coals = [tuple(sorted(set(c))) for c in winning]
    if not coals:
        raise ProtocolError("at least one winning coalition is required")
    masks = sorted({_mask(c, n) for c in coals})
    if 0 in masks:
        raise ProtocolError("the empty coalition must not be winning")
    minimal = []
    for m in masks:
        if not any(o != m and o & m == o for o in masks):
            minimal.append(m)
    canon = tuple(sorted((_members(m) for m in minimal), key=lambda c: (len(c), c)))
    return DeliberationProtocol(n, canon)


def make_k_majority(n: int, k: int) -> DeliberationProtocol:
    """Disclose iff at least k of the n members vote for disclosure."""
    if not 2 <= n <= MAX_MEMBERS:
        raise ProtocolError(f"need 2 <= n <= {MAX_MEMBERS}, got {n}")
    if not 1 <= k <= n:
        raise ProtocolError(f"need 1 <= k <= n, got k={k}, n={n}")
    return make_protocol(n, combinations(range(1, n + 1), k))


def make_consensus(n: int) -> DeliberationProtocol:
    """Disclosure requires every member's vote (n-majority)."""
    return make_k_majority(n, n)


def make_leader(n: int, leader: int) -> DeliberationProtocol:
    """The team's decision is the leader's own vote."""
    if not 2 <= n <= MAX_MEMBERS:
        raise ProtocolError(f"need 2 <= n <= {MAX_MEMBERS}, got {n}")
    if not 1 <= leader <= n:
        raise ProtocolError(f"leader {leader} out of range 1..{n}")
    return make_protocol(n, [(leader,)])


def from_boolean(n: int, fn: Callable[[tuple[int, ...]], int]) -> DeliberationProtocol:
    """Build a protocol from a pure aggregation function on 0/1 vote vectors.

    Rejects functions that are non-monotone or that disagree with unanimous
    votes.
    """
    if not 2 <= n <= MAX_MEMBERS:
        raise ProtocolError(f"need 2 <= n <= {MAX_MEMBERS}, got {n}")
    table = []
    for mask in range(1 << n):
        votes = tuple((mask >> i) & 1 for i in range(n))
        val = fn(votes)
        if val not in (0, 1):
            raise ProtocolError(f"aggregation value {val!r} is not 0/1")
        table.append(val)
    if table[0] != 0:
        raise ProtocolError("a unanimous 'conceal' vote must conceal")
    if table[-1] != 1:
        raise ProtocolError("a unanimous 'disclose' vote must disclose")
    for mask in range(1 << n):
        for i in range(n):
            if not mask >> i & 1 and table[mask] > table[mask | (1 << i)]:
                raise ProtocolError("aggregation function is not monotone")
    winning = [_members(m) for m in range(1 << n) if table[m]]
    return make_protocol(n, winning)


def all_protocols(n: int) -> tuple[DeliberationProtocol, ...]:
    """Every protocol on n members: all antichains of nonempty coalitions.

    Exhaustive, so capped at n = 4, where the count is still small (166).
    The antichains are grown one coalition mask at a time, each larger than
    the last, so a new mask is no subset of one already picked and only has
    to contain none of them.
    """
    if not 2 <= n <= 4:
        raise ProtocolError(f"exhaustive protocol enumeration needs 2 <= n <= 4, got {n}")
    out = []

    def extend(picked: tuple[int, ...], last: int) -> None:
        for m in range(last + 1, 1 << n):
            if all(m & p != p for p in picked):
                chosen = picked + (m,)
                coals = tuple(sorted(map(_members, chosen), key=lambda c: (len(c), c)))
                out.append(DeliberationProtocol(n, coals))
                extend(chosen, m)

    extend((), 0)
    return tuple(sorted(out, key=lambda p: (len(p.minimal_winning), p.minimal_winning)))
