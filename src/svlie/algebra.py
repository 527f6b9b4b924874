"""Exact model of the Schrodinger-Virasoro Lie algebra.

The algebra is spanned by L_n, M_n (n an integer) and Y_p (p a half-odd
integer) over the rationals, with the non-vanishing brackets

    [L_m, L_n] = (n - m) L_{m+n}        [L_m, M_n] = n M_{m+n}
    [L_n, Y_p] = (p - n/2) Y_{p+n}      [Y_p, Y_q] = (q - p) M_{p+q}

and every other pair of basis vectors bracketing to zero.  The L_n span a
Witt subalgebra, the Y and M span an ideal, and the line through M_0 is the
center.  The algebra is graded over the half-integers by deg L_n = deg M_n
= n and deg Y_p = p (the eigenvalue of ad L_0).

Indices live in (1/2)Z and are stored as twice their value, so all index
arithmetic is integer arithmetic.  The brackets above are one table,
`_BRACKETS`, from a pair of kinds (a, b) to (c, p, q), read as

    [a_m, b_n] = (p * 2m + q * 2n) / 4 * c_{m+n}.

Coefficients are `fractions.Fraction`, so equality of elements is
decidable and exact.

Every value in this module is immutable after construction and every
operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

_ZERO = Fraction(0)


class ParityError(ValueError):
    """Index parity incompatible with the generator kind."""


def _as_frac(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"exact scalar (int or Fraction) required, got {type(c).__name__}")


@dataclass(frozen=True, order=True)
class HalfInt:
    """An element of (1/2)Z, stored as twice its value."""

    twice: int

    @staticmethod
    def of(value) -> "HalfInt":
        """Coerce an int, Fraction or HalfInt to a HalfInt."""
        if isinstance(value, HalfInt):
            return value
        if isinstance(value, int):
            return HalfInt(2 * value)
        if isinstance(value, Fraction):
            if value.denominator == 1:
                return HalfInt(2 * value.numerator)
            if value.denominator == 2:
                return HalfInt(value.numerator)
            raise ValueError(f"{value} is not a half-integer")
        raise TypeError(f"cannot interpret {value!r} as a half-integer")

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    @property
    def as_fraction(self) -> Fraction:
        return Fraction(self.twice, 2)

    def __add__(self, other: "HalfInt") -> "HalfInt":
        return HalfInt(self.twice + other.twice)

    def __sub__(self, other: "HalfInt") -> "HalfInt":
        return HalfInt(self.twice - other.twice)

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.twice)

    def __abs__(self) -> "HalfInt":
        return HalfInt(abs(self.twice))

    def __bool__(self) -> bool:
        return self.twice != 0

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"


KIND_RANK = {"L": 0, "Y": 1, "M": 2}


def _fits(kind: str, twice: int) -> bool:
    """The kind rule: a Y index is half-odd, an L or M index an integer."""
    return twice % 2 == (kind == "Y")


@dataclass(frozen=True, order=True)
class BasisVector:
    """One of L_n, Y_p, M_n.  L and M carry integer indices, Y half-odd ones."""

    kind: str = field(compare=False)
    index: HalfInt = field(compare=False)
    sort_key: tuple[int, int] = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind not in KIND_RANK:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if not _fits(self.kind, self.index.twice):
            want = "half-odd" if self.kind == "Y" else "an integer"
            raise ParityError(f"{self.kind} index must be {want}, got {self.index}")
        object.__setattr__(self, "sort_key", (KIND_RANK[self.kind], self.index.twice))

    def __str__(self) -> str:
        return f"{self.kind}[{self.index}]"


def L(n) -> BasisVector:
    return BasisVector("L", HalfInt.of(n))


def M(n) -> BasisVector:
    return BasisVector("M", HalfInt.of(n))


def Y(p) -> BasisVector:
    return BasisVector("Y", HalfInt.of(p))


# L_{+-1}, L_{+-2} and Y_{1/2} generate the whole algebra.
GENERATORS = (L(1), L(-1), L(2), L(-2), Y(Fraction(1, 2)))


def _bump(acc: dict, key, c: Fraction) -> None:
    nc = acc.get(key, _ZERO) + c
    if nc:
        acc[key] = nc
    else:
        acc.pop(key, None)


class _Linear:
    """Finite linear combination over Fraction, canonical (no zero terms).

    Instances are immutable by convention: no method mutates `_terms`
    after construction.  Subclasses define the static methods `_check_key`,
    `_sort_key`, `_key_degree` and `_format_key`.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        src = terms.items() if isinstance(terms, dict) else terms
        acc: dict = {}
        for key, c in src:
            self._check_key(key)
            _bump(acc, key, _as_frac(c))
        self._terms = acc

    @classmethod
    def _make(cls, acc: dict):
        # internal fast path; acc must already be canonical
        obj = cls.__new__(cls)
        obj._terms = acc
        return obj

    @classmethod
    def zero(cls):
        return cls._make({})

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def terms(self) -> list:
        """Sorted list of (key, coefficient) pairs."""
        return sorted(self._terms.items(), key=lambda kv: self._sort_key(kv[0]))

    def coeff(self, key) -> Fraction:
        return self._terms.get(key, _ZERO)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash((type(self).__name__, frozenset(self._terms.items())))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        acc = dict(self._terms)
        for key, c in other._terms.items():
            _bump(acc, key, c)
        return self._make(acc)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        acc = dict(self._terms)
        for key, c in other._terms.items():
            _bump(acc, key, -c)
        return self._make(acc)

    def __neg__(self):
        return self._make({key: -c for key, c in self._terms.items()})

    def __mul__(self, scalar):
        c = _as_frac(scalar)
        if not c:
            return self._make({})
        return self._make({key: v * c for key, v in self._terms.items()})

    __rmul__ = __mul__

    def graded_components(self) -> dict:
        """Split into homogeneous pieces, keyed by total degree."""
        buckets: dict = {}
        for key, c in self._terms.items():
            buckets.setdefault(self._key_degree(key), {})[key] = c
        return {d: self._make(sub) for d, sub in sorted(buckets.items())}

    def homogeneous_degree(self) -> HalfInt | None:
        """Degree if homogeneous and nonzero, else None."""
        degs = {self._key_degree(k) for k in self._terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def __str__(self) -> str:
        items = self.terms()
        if not items:
            return "0"
        pieces = []
        for n, (key, c) in enumerate(items):
            body = self._format_key(key)
            if n == 0:
                pieces.append(body if c == 1 else f"{c} * {body}")
            else:
                sep = " + " if c > 0 else " - "
                mag = abs(c)
                pieces.append(sep + (body if mag == 1 else f"{mag} * {body}"))
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class Element(_Linear):
    """A member of the algebra: finite rational combination of basis vectors."""

    @staticmethod
    def _check_key(key) -> None:
        if not isinstance(key, BasisVector):
            raise TypeError(f"Element keys must be basis vectors, got {key!r}")

    @staticmethod
    def _sort_key(key):
        return key.sort_key

    @staticmethod
    def _key_degree(key) -> HalfInt:
        return key.index

    @staticmethod
    def _format_key(key) -> str:
        return str(key)

    @classmethod
    def basis(cls, bv: BasisVector) -> "Element":
        return cls._make({bv: Fraction(1)})


# The structure constants (see the module docstring); unlisted pairs bracket to zero.
_BRACKETS = {
    ("L", "L"): ("L", -2, 2),
    ("L", "M"): ("M", 0, 2),
    ("M", "L"): ("M", -2, 0),
    ("L", "Y"): ("Y", -1, 2),
    ("Y", "L"): ("Y", -2, 1),
    ("Y", "Y"): ("M", -2, 2),
}


def bracket_basis(a: BasisVector, b: BasisVector):
    """Bracket of two basis vectors: None if zero, else (coefficient, basis vector)."""
    kind, p, q = _BRACKETS.get((a.kind, b.kind), (None, 0, 0))
    ta, tb = a.index.twice, b.index.twice
    c = p * ta + q * tb
    if not c:
        return None
    return Fraction(c, 4), BasisVector(kind, HalfInt(ta + tb))


def bracket(x: Element, y: Element) -> Element:
    """Bilinear extension of the structure constants; result canonical."""
    acc: dict = {}
    for bx, cx in x._terms.items():
        for by, cy in y._terms.items():
            hit = bracket_basis(bx, by)
            if hit is not None:
                c, bv = hit
                _bump(acc, bv, c * cx * cy)
    return Element._make(acc)


def is_central(x: Element) -> bool:
    """True iff x is a scalar multiple of M_0 (the center of the algebra)."""
    return all(bv.kind == "M" and bv.index.twice == 0 for bv in x._terms)


def basis_window(bound) -> list[BasisVector]:
    """All basis vectors with |index| <= bound, in canonical order."""
    t = HalfInt.of(bound).twice
    if t < 0:
        raise ValueError("window bound must be nonnegative")
    return [BasisVector(kind, HalfInt(k)) for kind in KIND_RANK
            for k in range(-t, t + 1) if _fits(kind, k)]
