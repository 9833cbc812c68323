"""Exact polynomial algebra under the atom solver, in integers.

A univariate polynomial is a list of int coefficients, constant term first,
with no trailing zero (the zero polynomial is the empty list). Normalised
ones are primitive: divided by their positive content, never negated.
Division is sign-preserving pseudo-division (Basu, Pollack and Roy,
*Algorithms in Real Algebraic Geometry*, ch. 8), so gcds, squarefree parts
and Sturm sequences need no fractions. A real root in [0, 1] is a triple
(lo, hi, q): lo == hi for a rational root, else an open interval with
rational ends holding exactly one root of the squarefree q, an irrational one.

A corner table ``(variables, vals)`` lists a multilinear function's values
at the 0/1 corners of its variables' box, in the order of :func:`corners`.
Fixing a variable at m = n/d gives (d - n)*low + n*high from its faces at 0
and 1: d times the function there, so the entries stay integers and every
sign, root and ratio of entries is exact. Fixing every variable at once is
one dot product with the point's corner coefficients (:func:`point`).
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd
from operator import mul

from .rationals import ONE, ZERO

# the substitution t -> t / 1, for :func:`numerator`
T = ((0, 1), (1,))


# ---------------------------------------------------------------------------
# Univariate polynomials
# ---------------------------------------------------------------------------


def _trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def padd(p: list, q: list) -> list:
    if len(p) < len(q):
        p, q = q, p
    return _trim([c + q[i] if i < len(q) else c for i, c in enumerate(p)])


def psub(p: list, q: list) -> list:
    return padd(p, [-c for c in q])


def pmul(p: list, q: list) -> list:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _primitive(p: list) -> list:
    """p divided by its positive content."""
    content = gcd(*p)
    return [c // content for c in p] if content > 1 else p


def _psign(p: list, x) -> int:
    """The sign of p at the rational x, read off den(x)**deg(p) * p(x)."""
    num, den = x.as_integer_ratio()
    acc, scale = 0, 1
    for c in reversed(p):
        acc = acc * num + c * scale
        scale *= den
    return (acc > 0) - (acc < 0)


def _pdivmod(p: list, q: list) -> tuple[list, list]:
    """Pseudo-division by the nonzero q: (quot, rem) with c*p = quot*q + rem
    for some integer c > 0, and rem of lower degree than q."""
    rem = list(p)
    quot = [0] * max(len(p) - len(q) + 1, 0)
    while len(rem) >= len(q):
        shift = len(rem) - len(q)
        # a*rem - b*t^shift*q cancels rem's leading term, with a > 0
        a, b = abs(q[-1]), rem[-1] if q[-1] > 0 else -rem[-1]
        rem = [a * c for c in rem]
        quot = [a * c for c in quot]
        quot[shift] = b
        for i, c in enumerate(q):
            rem[shift + i] -= b * c
        _trim(rem)
    return quot, rem


def pgcd(p: list, q: list) -> list:
    """A primitive greatest common divisor (the zero polynomial if both are zero)."""
    while q:
        p, q = q, _primitive(_pdivmod(p, q)[1])
    return _primitive(p)


def _squarefree(p: list) -> list:
    """p divided by gcd(p, p'), primitive: the same roots, each simple."""
    return _primitive(_pdivmod(p, pgcd(p, [i * c for i, c in enumerate(p)][1:]))[0])


def _sturm(p: list) -> list[list]:
    seq = [p, [i * c for i, c in enumerate(p)][1:]]
    while seq[-1]:
        seq.append(_primitive([-c for c in _pdivmod(seq[-2], seq[-1])[1]]))
    return seq


def _variations(seq: list[list], x: Fraction) -> int:
    signs = [s for s in (_psign(p, x) for p in seq) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _bisect(root: tuple) -> tuple:
    """Halve the isolating interval of an irrational root."""
    lo, hi, q = root
    if lo == hi:
        return root
    mid = (lo + hi) / 2
    if _psign(q, mid) == _psign(q, lo):
        return mid, hi, q
    return lo, mid, q


def real_roots(p: list) -> list[tuple]:
    """The distinct real roots of p in [0, 1], ascending.

    Roots are isolated with a Sturm sequence and rational bisection. A
    rational root's denominator divides the leading coefficient ``bound`` of
    the primitive squarefree part (the rational root theorem), and two such
    rationals lie at least 1/bound^2 apart; so an isolating interval narrower
    than that holds a rational root exactly when its best approximation with
    denominator at most ``bound`` is a root.
    """
    q = _squarefree(p)
    roots = []
    for r in (ZERO, ONE):
        if len(q) > 1 and _psign(q, r) == 0:
            roots.append((r, r, q))
            q = _primitive(_pdivmod(q, [-r.numerator, r.denominator])[0])
    if len(q) > 1:
        bound = abs(q[-1])
        seq = _sturm(q)
        todo = [(ZERO, ONE)]
        while todo:
            lo, hi = todo.pop()
            count = _variations(seq, lo) - _variations(seq, hi)
            if count > 1:
                mid = (lo + hi) / 2
                if _psign(q, mid) == 0:
                    roots.append((mid, mid, q))
                    q = _primitive(_pdivmod(q, [-mid.numerator, mid.denominator])[0])
                    seq = _sturm(q)
                todo += [(lo, mid), (mid, hi)]
            elif count == 1:
                roots.append(_isolated(q, lo, hi, bound))
    return sorted(roots, key=lambda r: r[0])


def _isolated(q: list, lo: Fraction, hi: Fraction, bound: int) -> tuple:
    """The one root of q in (lo, hi): exact if it is rational (its
    denominator is at most ``bound``), else an interval narrower than
    1/bound^2."""
    while True:
        mid = (lo + hi) / 2
        for x in (mid, mid.limit_denominator(bound)):
            if lo < x < hi and _psign(q, x) == 0:
                return x, x, q
        if (hi - lo) * bound * bound < 1:
            return lo, hi, q
        lo, hi, _ = _bisect((lo, hi, q))


def _same_root(a: tuple, b: tuple) -> bool:
    if a[0] == a[1] or b[0] == b[1]:
        return a[0] == a[1] == b[0] == b[1]
    common = pgcd(a[2], b[2])
    lo, hi = max(a[0], b[0]), min(a[1], b[1])
    return len(common) > 1 and lo < hi and _psign(common, lo) != _psign(common, hi)


def simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The rational with the smallest denominator strictly between 0 <= lo < hi."""
    whole = lo.numerator // lo.denominator
    if whole + 1 < hi:
        return Fraction(whole + 1)
    lo, hi = lo - whole, hi - whole
    if lo == 0:
        return whole + Fraction(1, hi.denominator // hi.numerator + 1)
    return whole + 1 / simplest_between(1 / hi, 1 / lo)


def cell_samples(polys: list[list]) -> list[Fraction]:
    """One rational point inside each open cell that the roots of the
    nonzero polynomials cut out of (0, 1), ascending."""
    roots = [(ZERO, ZERO, None), (ONE, ONE, None)]
    for p in polys:
        if len(p) > 1:
            roots += real_roots(p)
    roots.sort(key=lambda r: r[0])
    i = 0
    while i + 1 < len(roots):
        a, b = roots[i], roots[i + 1]
        if a[1] < b[0]:
            i += 1
        elif _same_root(a, b):
            del roots[i + 1]
        else:
            # distinct roots: narrowing their intervals separates them
            roots[i : i + 2] = _bisect(a), _bisect(b)
            roots.sort(key=lambda r: r[0])
            i = max(i - 1, 0)
    return [simplest_between(a[1], b[0]) for a, b in zip(roots, roots[1:])]


def sign_at(g: list, root: tuple) -> int:
    """The sign of g at a root from :func:`real_roots`, exactly."""
    lo, hi, q = root
    if lo == hi or not g:
        return _psign(g, lo)
    common = pgcd(q, g)
    if len(common) > 1 and _psign(common, lo) != _psign(common, hi):
        return 0
    seq = _sturm(_squarefree(g))
    while 0 in (_psign(g, lo), _psign(g, hi)) or _variations(seq, lo) != _variations(seq, hi):
        lo, hi, q = _bisect((lo, hi, q))
    return _psign(g, lo)


# ---------------------------------------------------------------------------
# Multilinear corner tables
# ---------------------------------------------------------------------------


def corners(variables: tuple) -> list[dict]:
    """The 0/1 corners of the variables' box, as assignments, in table order."""
    return [dict(zip(variables, bits)) for bits in product((0, 1), repeat=len(variables))]


def _face(variables: tuple, vals: list, v, bit: int) -> tuple[tuple, list]:
    """The table over the other variables at v = bit (0 or 1)."""
    j = variables.index(v)
    rest = variables[:j] + variables[j + 1 :]
    if j == len(variables) - 1:
        # the last variable alternates fastest
        return rest, vals[bit::2]
    step = len(vals) >> (j + 1)
    face = []
    for start in range(bit * step, len(vals), 2 * step):
        face += vals[start : start + step]
    return rest, face


def _faces(variables: tuple, vals: list, v) -> tuple[tuple, list, list]:
    """The tables over the other variables at v = 0 and at v = 1."""
    rest, low = _face(variables, vals, v, 0)
    return rest, low, _face(variables, vals, v, 1)[1]


def restrict(variables: tuple, vals: list, pinned: dict) -> tuple[tuple, list]:
    """The table over the unpinned variables, each pinned one fixed at its
    rational value (a positive multiple of the function there). A 0/1 pin
    keeps one face."""
    for v in [v for v in variables if v in pinned]:
        num, den = pinned[v].as_integer_ratio()
        if num == 0 or num == den:  # num is the bit
            variables, vals = _face(variables, vals, v, num)
        else:
            variables, low, high = _faces(variables, vals, v)
            vals = [(den - num) * a + num * b for a, b in zip(low, high)]
    return variables, vals


def point(variables: tuple, at: dict) -> list[int]:
    """The corner coefficients of a rational point of the variables' box.

    With m_v = n_v/d_v, corner b's coefficient is the product over v of n_v
    where b_v = 1 and d_v - n_v where b_v = 0, so a table's :func:`dot` with
    them is its value at the point times the product of the d_v: the entry
    :func:`restrict` leaves when it pins every variable there. Built once, it
    evaluates every table over the same variables.
    """
    coeffs = [1]
    for v in variables:
        num, den = at[v].as_integer_ratio()
        coeffs = [c * w for c in coeffs for w in (den - num, num)]
    return coeffs


def dot(coeffs: list, vals: list) -> int:
    """A table's value at the point of :func:`point`'s coefficients, scaled."""
    return sum(map(mul, coeffs, vals))


def split(variables: tuple, vals: list, v) -> tuple[tuple, list, list]:
    """A table as low + v*slope: the tables low and slope over the other variables."""
    rest, low, high = _faces(variables, vals, v)
    return rest, low, [b - a for a, b in zip(low, high)]


def active(variables: tuple, vals: list) -> tuple[tuple, list]:
    """Drop the variables a table does not actually depend on."""
    for v in variables:
        rest, low, high = _faces(variables, vals, v)
        if low == high:
            variables, vals = rest, low
    return variables, vals


def numerator(variables: tuple, vals: list, subst: dict) -> list:
    """Substitute rational functions of t into a table.

    ``subst`` maps each variable to (N, D), its value N(t)/D(t). Returns the
    numerator of the result over the product of the variables' D.
    """
    if not variables:
        return _trim([vals[0]])
    num, den = subst[variables[0]]
    rest, low, high = _faces(variables, vals, variables[0])
    return padd(pmul(psub(den, num), numerator(rest, low, subst)), pmul(num, numerator(rest, high, subst)))
