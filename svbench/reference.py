"""Reference model of the Schrodinger-Virasoro algebra, kept apart from svlie.

The benchmark checks every answer svlie gives against this module.  Nothing
here imports svlie: basis vectors are plain ``(kind, twice)`` pairs, where
``twice`` is twice the index, and elements and tensors are dicts from a
basis vector (or a tuple of them) to a nonzero ``Fraction``.

The structure constants are transcribed from the four defining brackets

    [L_m, L_n] = (n - m) L_{m+n}        [L_m, M_n] = n M_{m+n}
    [L_n, Y_p] = (p - n/2) Y_{p+n}      [Y_p, Y_q] = (q - p) M_{p+q}

together with antisymmetry; every other pair brackets to zero.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

M0 = ("M", 0)

# (left kind, right kind) -> (result kind, coefficient as a function of the
# two indices), one entry per defining bracket.
_RULES = {
    ("L", "L"): ("L", lambda m, n: n - m),
    ("L", "M"): ("M", lambda m, n: n),
    ("L", "Y"): ("Y", lambda n, p: p - n / 2),
    ("Y", "Y"): ("M", lambda p, q: q - p),
}


def index(bv) -> Fraction:
    return Fraction(bv[1], 2)


def bracket_basis(a, b):
    """[a, b] for basis vectors: (coefficient, basis vector) or None."""
    rule = _RULES.get((a[0], b[0]))
    if rule is not None:
        kind, coeff = rule
        c = Fraction(coeff(index(a), index(b)))
        return (c, (kind, a[1] + b[1])) if c else None
    rule = _RULES.get((b[0], a[0]))
    if rule is not None:
        kind, coeff = rule
        c = -Fraction(coeff(index(b), index(a)))
        return (c, (kind, a[1] + b[1])) if c else None
    return None


def add_to(acc: dict, key, c) -> None:
    v = acc.get(key, 0) + c
    if v:
        acc[key] = v
    else:
        acc.pop(key, None)


def combine(*pairs) -> dict:
    """Sum of scalar multiples: combine((c1, t1), (c2, t2), ...)."""
    acc: dict = {}
    for c, t in pairs:
        for key, v in t.items():
            add_to(acc, key, c * v)
    return acc


def bracket(x: dict, y: dict) -> dict:
    acc: dict = {}
    for a, ca in x.items():
        for b, cb in y.items():
            hit = bracket_basis(a, b)
            if hit:
                add_to(acc, hit[1], ca * cb * hit[0])
    return acc


def act(x: dict, t: dict) -> dict:
    """Diagonal adjoint action of an element on a tensor of any rank."""
    acc: dict = {}
    for g, cg in x.items():
        for key, ct in t.items():
            for pos, bv in enumerate(key):
                hit = bracket_basis(g, bv)
                if hit:
                    add_to(acc, key[:pos] + (hit[1],) + key[pos + 1:], cg * ct * hit[0])
    return acc


def act_basis(g, t: dict) -> dict:
    return act({g: Fraction(1)}, t)


def twist(t: dict) -> dict:
    return {(b, a): c for (a, b), c in t.items()}


def is_skew(t: dict) -> bool:
    return not combine((1, t), (1, twist(t)))


def without_central_square(r: dict) -> dict:
    return {k: c for k, c in r.items() if k != (M0, M0)}


def _embed(r: dict, slots: tuple[int, int]) -> dict:
    """r placed in two of three tensor slots, None standing for the unit."""
    out = {}
    for (a, b), c in r.items():
        key = [None, None, None]
        key[slots[0]], key[slots[1]] = a, b
        out[tuple(key)] = c
    return out


def _commutator3(u: dict, v: dict) -> dict:
    """[u, v] in U(g)^(x3) for embedded tensors sharing exactly one slot.

    In the shared slot the product becomes a bracket; in every other slot
    one factor is the unit, so both orderings give the same product.
    """
    acc: dict = {}
    for ku, cu in u.items():
        for kv, cv in v.items():
            (s,) = [i for i in range(3) if ku[i] is not None and kv[i] is not None]
            hit = bracket_basis(ku[s], kv[s])
            if not hit:
                continue
            key = tuple(hit[1] if i == s else (ku[i] if ku[i] is not None else kv[i])
                        for i in range(3))
            add_to(acc, key, cu * cv * hit[0])
    return acc


def yang_baxter(r: dict) -> dict:
    """c(r) = [r12, r13] + [r12, r23] + [r13, r23]."""
    r12, r13, r23 = _embed(r, (0, 1)), _embed(r, (0, 2)), _embed(r, (1, 2))
    return combine((1, _commutator3(r12, r13)), (1, _commutator3(r12, r23)),
                   (1, _commutator3(r13, r23)))


GENERATORS = (("L", 2), ("L", -2), ("L", 4), ("L", -4), ("Y", 1))


def is_invariant(t: dict) -> bool:
    """Killed by the five generators, hence by the whole algebra."""
    return all(not act_basis(g, t) for g in GENERATORS)


def window(bound_twice: int) -> list:
    """Every basis vector with |index| <= bound (bound given as twice it)."""
    out = []
    for tw in range(-bound_twice, bound_twice + 1):
        if tw % 2:
            out.append(("Y", tw))
        else:
            out.extend([("L", tw), ("M", tw)])
    return out


def family_image(d: tuple, x) -> dict:
    """D(x) for the six-parameter family d = (a, a', b, b', g, g'):

        D(L_n) = (n a + g) M_0 (x) M_n + (n a' + g') M_n (x) M_0
        D(Y_p) = b M_0 (x) Y_p + b' Y_p (x) M_0
        D(M_n) = 2b M_0 (x) M_n + 2b' M_n (x) M_0
    """
    a, a_d, b, b_d, g, g_d = d
    n = index(x)
    if x[0] == "L":
        left, right, partner = n * a + g, n * a_d + g_d, ("M", x[1])
    elif x[0] == "Y":
        left, right, partner = b, b_d, x
    else:
        left, right, partner = 2 * b, 2 * b_d, x
    return combine((left, {(M0, partner): Fraction(1)}), (right, {(partner, M0): Fraction(1)}))


def is_skew_family(d: tuple) -> bool:
    return d[0] == -d[1] and d[2] == -d[3] and d[4] == -d[5]


class Cocommutator:
    """delta(x) = x . r + D(x), with images memoised."""

    def __init__(self, r: dict, d: tuple):
        self.r, self.d = r, d
        self._memo: dict = {}

    def __call__(self, x) -> dict:
        img = self._memo.get(x)
        if img is None:
            img = combine((1, act_basis(x, self.r)), (1, family_image(self.d, x)))
            self._memo[x] = img
        return img


def cyclic_sum(w: dict) -> dict:
    """(1 + xi + xi^2) w with xi(x1 (x) x2 (x) x3) = x2 (x) x3 (x) x1."""
    acc: dict = {}
    for (x1, x2, x3), c in w.items():
        for key in ((x1, x2, x3), (x2, x3, x1), (x3, x1, x2)):
            add_to(acc, key, c)
    return acc


def cojacobi_defect(delta, x) -> dict:
    """(1 + xi + xi^2)(1 (x) delta)(delta x)."""
    w: dict = {}
    for (a, b), c in delta(x).items():
        for (u, v), c2 in delta(b).items():
            add_to(w, (a, u, v), c * c2)
    return cyclic_sum(w)


def compatibility_defect(delta, x, y) -> dict:
    """delta([x, y]) - x . delta(y) + y . delta(x)."""
    hit = bracket_basis(x, y)
    lhs = {k: hit[0] * c for k, c in delta(hit[1]).items()} if hit else {}
    return combine((1, lhs), (-1, act_basis(x, delta(y))), (1, act_basis(y, delta(x))))


def axiom_value(delta, axiom: str, inputs: tuple) -> dict:
    """The quantity that must vanish for `axiom` at `inputs`; for
    image_skew the image itself, whose non-skewness is the failure."""
    if axiom == "image_skew":
        return delta(inputs[0])
    if axiom == "co_jacobi":
        return cojacobi_defect(delta, inputs[0])
    return compatibility_defect(delta, *inputs)


def axiom_fails(delta, axiom: str, inputs: tuple) -> bool:
    value = axiom_value(delta, axiom, inputs)
    return not is_skew(value) if axiom == "image_skew" else bool(value)


def axioms_hold(delta, bound_twice: int) -> bool:
    """Image skewness, co-Jacobi and compatibility at every basis vector
    and every pair of the window."""
    basis = window(bound_twice)
    if not all(is_skew(delta(x)) for x in basis):
        return False
    if any(cojacobi_defect(delta, x) for x in basis):
        return False
    return not any(compatibility_defect(delta, x, y)
                   for x, y in itertools.combinations(basis, 2))


def graded_parts(t: dict) -> dict:
    """Homogeneous components of a tensor, keyed by twice the degree."""
    out: dict = {}
    for key, c in t.items():
        out.setdefault(sum(bv[1] for bv in key), {})[key] = c
    return out


# -- the top-component taxonomy ------------------------------------------

def _pair(u, w):
    return frozenset((u, w)) if u != w else None


def _spans(p2: int, support: set) -> list:
    """(label, pair set) for every span V1..V8 at degree p (p2 = 2p).

    V5 and V8 are families of wedges with no bound on their indices; a
    wedge outside the support of the top cannot change membership or
    minimality, so they are cut down to the support.
    """
    def pairs(*ws):
        return frozenset(p for p in (_pair(u, w) for u, w in ws) if p is not None)

    L0, Lp, Mp = ("L", 0), ("L", p2), ("M", p2)
    out = []
    if p2 % 2 == 0:
        out.append(("V1", pairs((Lp, L0), (M0, Lp))))
        out.append(("V2", pairs((Lp, L0), (L0, Mp))))
        out.append(("V3", pairs((M0, Lp), (M0, Mp))))
        out.append(("V4", pairs((L0, Mp), (M0, Mp))))
        out.append(("V5", frozenset(s for s in support if {k for k, _ in s} == {"M"})))
    else:
        out.append(("V6", pairs((L0, ("Y", p2)), (M0, ("Y", p2)))))
        if p2 % 3 == 0:
            i7, third = ("L", p2 // 3 * 2), p2 // 3
            out.append(("V7", pairs((i7, ("Y", third)), (("M", i7[1]), ("Y", third)))))
        for s in support:
            kinds = sorted(s)
            if [k for k, _ in kinds] == ["M", "Y"]:
                out.append((f"V8({kinds[0][1] // 2})", frozenset([s])))
    return out


def classify_top(top: dict) -> list[str]:
    """Sorted labels of the minimal spans holding a homogeneous skew top,
    ["NotCandidate"] when none does.  A top lies in a span exactly when its
    support pairs are among the span's wedges."""
    p2s = {sum(bv[1] for bv in key) for key in top}
    if len(p2s) != 1 or not is_skew(top):
        raise ValueError("a nonzero homogeneous skew top is required")
    (p2,) = p2s
    support = {frozenset(key) for key in top}
    matched = [(lab, s) for lab, s in _spans(p2, support) if support <= s]
    keep = sorted({lab for lab, s in matched
                   if not any(t < s for _, t in matched)})
    return keep or ["NotCandidate"]


def top_component(r: dict) -> tuple[int, dict]:
    parts = graded_parts(r)
    p2 = max(parts)
    return p2, parts[p2]


# -- brute-force Yang-Baxter search ----------------------------------------

def normalise(t: dict) -> frozenset:
    """Scalar class of a nonzero tensor: divide by the coefficient of its
    least key in this module's own order."""
    lead = t[min(t)]
    return frozenset((k, c / lead) for k, c in t.items())


# The search space is oriented: an elementary wedge u^w takes u before w in
# the canonical basis order, L before Y before M, then by index.
_KIND_ORDER = {"L": 0, "Y": 1, "M": 2}


def brute_force_solutions(bound_twice: int, coeffs, max_terms: int) -> set:
    """Scalar classes of every skew combination of at most `max_terms`
    elementary wedges of the window with coefficients from `coeffs` that
    solves the classical Yang-Baxter equation."""
    basis = sorted(window(bound_twice), key=lambda bv: (_KIND_ORDER[bv[0]], bv[1]))
    pairs = list(itertools.combinations(basis, 2))
    cs = sorted({Fraction(c) for c in coeffs if c})
    seen: set = set()
    out: set = set()
    for k in range(1, max_terms + 1):
        for combo in itertools.combinations(pairs, k):
            for sc in itertools.product(cs, repeat=k):
                t = {}
                for (u, w), c in zip(combo, sc):
                    t[(u, w)], t[(w, u)] = c, -c
                cls = normalise(t)
                if cls in seen:
                    continue
                seen.add(cls)
                if not yang_baxter(t):
                    out.add(cls)
    return out


# -- text forms ------------------------------------------------------------

_GEN = r"([LMY])\[(-?\d+(?:/2)?)\]"
_TERM = re.compile(r"\s*([+-])?\s*(?:(\d+(?:/\d+)?)\s*\*\s*)?(" + _GEN
                   + r"(?:\s*\(x\)\s*" + _GEN + r")*)\s*")
_ONE_GEN = re.compile(_GEN)


def parse(text: str) -> dict:
    """Read svlie's printed form of an element or tensor: terms such as
    `3/2 * Y[1/2] (x) L[0]` joined by ' + ' and ' - ', or "0".  Elements
    come back keyed by basis vectors, tensors by tuples of them."""
    text = text.strip()
    if text == "0":
        return {}
    acc: dict = {}
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or m.end() == pos or (pos and not m.group(1)):
            raise ValueError(f"cannot read {text!r} at {pos}")
        sign = -1 if m.group(1) == "-" else 1
        c = sign * Fraction(m.group(2) or 1)
        key = tuple((k, int(Fraction(i) * 2)) for k, i in _ONE_GEN.findall(m.group(3)))
        if len(key) == 1:
            key = key[0]
        if key in acc:
            raise ValueError(f"repeated term in {text!r}")
        acc[key] = c
        pos = m.end()
    if any(c == 0 for c in acc.values()):
        raise ValueError(f"zero coefficient in {text!r}")
    return acc


def show_basis(bv) -> str:
    tw = bv[1]
    return f"{bv[0]}[{tw // 2 if tw % 2 == 0 else f'{tw}/2'}]"


def show(t: dict) -> str:
    """An input string for svlie's parser (any term order, explicit
    coefficients)."""
    if not t:
        return "0"
    parts = []
    for key, c in sorted(t.items()):
        if isinstance(key[0], str):
            key = (key,)
        parts.append(f"{c} * " + " (x) ".join(show_basis(bv) for bv in key))
    return " + ".join(parts).replace("+ -", "- ")
