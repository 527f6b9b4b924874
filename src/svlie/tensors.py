"""Rank-2 and rank-3 tensors over the algebra.

Provides the twist (factor swap on pairs) and cyclic rotation (on triples),
the diagonal adjoint action

    x . (a (x) b) = [x,a] (x) b + a (x) [x,b]

written once on elementary keys of any rank, skewness tests, and the
Yang-Baxter bracket

    c(r) = [r12, r13] + [r12, r23] + [r13, r23]

computed directly inside the triple tensor power via the expansion

    c(r) = sum_{i,j} [a_i,a_j] (x) b_i (x) b_j
         + sum_{i,j} a_i (x) [b_i,a_j] (x) b_j
         + sum_{i,j} a_i (x) a_j (x) [b_i,b_j]

for r = sum_i a_i (x) b_i.  Everything is exact and immutable.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import (
    BasisVector,
    Element,
    HalfInt,
    _bump,
    _Linear,
    bracket_basis,
)


class NotSkewError(ValueError):
    """A skew rank-2 tensor was required."""


def _key_degree(key: tuple) -> HalfInt:
    """Total degree of an elementary tensor key: the sum of its factor indices."""
    return HalfInt(sum(v.index.twice for v in key))


class _Tensor(_Linear):
    """Keys are `rank`-tuples of basis vectors, ordered factor by factor."""

    rank: int

    @classmethod
    def _check_key(cls, key) -> None:
        if not (isinstance(key, tuple) and len(key) == cls.rank
                and all(isinstance(v, BasisVector) for v in key)):
            raise TypeError(
                f"{cls.__name__} keys must be {cls.rank}-tuples of basis vectors, got {key!r}")

    @staticmethod
    def _sort_key(key):
        return tuple([v.sort_key for v in key])

    _key_degree = staticmethod(_key_degree)

    @staticmethod
    def _format_key(key) -> str:
        return " (x) ".join(map(str, key))


class Tensor2(_Tensor):
    """Finite rational combination of ordered pairs of basis vectors."""

    rank = 2


class Tensor3(_Tensor):
    """Finite rational combination of ordered triples of basis vectors."""

    rank = 3


# the value class of each rank; rank-1 values are elements, keyed by basis vectors
_CLASS_OF_RANK = {1: Element, 2: Tensor2, 3: Tensor3}


def wedge(u: BasisVector, w: BasisVector) -> Tensor2:
    """The elementary skew tensor u (x) w - w (x) u (zero when u = w)."""
    if u == w:
        return Tensor2.zero()
    return Tensor2([((u, w), 1), ((w, u), -1)])


def twist(t: Tensor2) -> Tensor2:
    """Swap the two factors of every term."""
    return Tensor2._make({(b, a): c for (a, b), c in t._terms.items()})


def cyclic(u: Tensor3) -> Tensor3:
    """Rotate x1 (x) x2 (x) x3 to x2 (x) x3 (x) x1 in every term."""
    return Tensor3._make({(x2, x3, x1): c for (x1, x2, x3), c in u._terms.items()})


def is_skew(t: Tensor2) -> bool:
    """True iff the twist negates t.

    Over a field of characteristic zero this is exactly membership in the
    image of (1 - twist), so no solving is needed.
    """
    for (a, b), c in t._terms.items():
        if t._terms.get((b, a), Fraction(0)) != -c:
            return False
    return True


def skew_part(t: Tensor2) -> Tensor2:
    """Projection (t - twist(t)) / 2 onto the skew tensors."""
    return (t - twist(t)) * Fraction(1, 2)


def _act_key(g: BasisVector, key: tuple) -> list[tuple[tuple, Fraction]]:
    """g . key for a basis vector g and an elementary tensor key of any rank:
    [g, v] replaces one factor v at a time.  Returns the nonzero terms as
    (key, coefficient) pairs; a key may repeat."""
    out = []
    for pos, bv in enumerate(key):
        hit = bracket_basis(g, bv)
        if hit is not None:
            out_key = list(key)
            out_key[pos] = hit[1]
            out.append((tuple(out_key), hit[0]))
    return out


def _act_into(acc: dict, g: BasisVector, cg: Fraction, t: _Tensor) -> None:
    """Add cg * (g . t) into the canonical term dict acc."""
    for key, ct in t._terms.items():
        c = cg * ct
        for out_key, cb in _act_key(g, key):
            _bump(acc, out_key, c * cb)


def diag_act2(x: Element, t: Tensor2) -> Tensor2:
    """Diagonal adjoint action of x on a rank-2 tensor (Leibniz in each slot)."""
    acc: dict = {}
    for g, cg in x._terms.items():
        _act_into(acc, g, cg, t)
    return Tensor2._make(acc)


def diag_act3(x: Element, u: Tensor3) -> Tensor3:
    """Diagonal adjoint action of x on a rank-3 tensor."""
    acc: dict = {}
    for g, cg in x._terms.items():
        _act_into(acc, g, cg, u)
    return Tensor3._make(acc)


def yang_baxter_c(r: Tensor2) -> Tensor3:
    """The Yang-Baxter bracket c(r), expanded over all ordered term pairs."""
    items = list(r._terms.items())
    acc: dict = {}
    for (ai, bi), ci in items:
        for (aj, bj), cj in items:
            c = ci * cj
            hit = bracket_basis(ai, aj)
            if hit is not None:
                _bump(acc, (hit[1], bi, bj), c * hit[0])
            hit = bracket_basis(bi, aj)
            if hit is not None:
                _bump(acc, (ai, hit[1], bj), c * hit[0])
            hit = bracket_basis(bi, bj)
            if hit is not None:
                _bump(acc, (ai, aj, hit[1]), c * hit[0])
    return Tensor3._make(acc)


def canonical_key(t: _Linear) -> tuple:
    """A sortable, hashable fingerprint of a canonical value.

    Two values compare equal iff their fingerprints do; used for
    deterministic dedup and ordering of tensor lists.
    """
    out = []
    for key, c in t.terms():
        flat = t._sort_key(key)
        if isinstance(flat[0], tuple):
            flat = tuple(x for part in flat for x in part)
        out.append((flat, (c.numerator, c.denominator)))
    return tuple(out)
