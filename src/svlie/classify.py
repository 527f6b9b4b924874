"""Taxonomy of highest graded components of Yang-Baxter solutions, and a
brute-force search oracle over bounded windows.

A nonzero skew solution r of the classical Yang-Baxter equation decomposes
into graded pieces r = sum_q r_q; its top piece r_p is severely constrained.
For integer p the admissible tops live in the spans

    V1: L_0^L_p,  M_0^L_p          V2: L_0^L_p,  L_0^M_p
    V3: M_0^L_p,  M_0^M_p          V4: L_0^M_p,  M_0^M_p
    V5: M_j^M_{p-j}  for all integers j

and for half-odd p in

    V6: L_0^Y_p,  M_0^Y_p
    V7: L_{2p/3}^Y_{p/3},  M_{2p/3}^Y_{p/3}   (only when 2p/3 is an integer)
    V8(i): M_i^Y_{p-i}                         (one class per integer i)

where u^w abbreviates u (x) w - w (x) u.  A top component lying in none of
the spans cannot head a solution, which `classify_highest` reports as
NotCandidate.  When spans overlap, the minimal ones are reported (a label
whose span strictly contains another matching label's span is dropped), so
a pure M (x) Y top is V8 rather than V7 even when both apply.  Every span is
spanned by wedges on distinct unordered pairs {u, w}, so membership and
containment are exact inclusions of pair sets, with no linear solve.

`search_cybe` enumerates skew candidates built from elementary wedges with
bounded indices and bounded term count, filters them through the exact
Yang-Baxter bracket, and returns one solution per scalar class,
canonically sorted and independent of the worker count.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from .algebra import HalfInt, L, M, Y, basis_window
from .tensors import NotSkewError, Tensor2, canonical_key, is_skew, yang_baxter_c

NOT_CANDIDATE = "NotCandidate"
_FAMILIES = ("V1", "V2", "V3", "V4", "V5", "V6", "V7", "V8", NOT_CANDIDATE)


class ZeroInputError(ValueError):
    """The zero tensor has no highest component."""


class NotHomogeneousError(ValueError):
    """A homogeneous tensor of the stated degree was required."""


@dataclass(frozen=True)
class ClassLabel:
    """One admissible shape of a top component, e.g. V1 or V8(1)."""

    family: str
    top_degree: HalfInt
    i: int | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown class family {self.family!r}")
        p = self.top_degree
        if self.family in ("V1", "V2", "V3", "V4", "V5") and not p.is_integer:
            raise ValueError(f"{self.family} requires an integer top degree, got {p}")
        if self.family in ("V6", "V7", "V8") and p.is_integer:
            raise ValueError(f"{self.family} requires a half-odd top degree, got {p}")
        if self.family == "V7" and p.twice % 3:
            raise ValueError(f"V7 requires 2p/3 integral, got p = {p}")
        if self.family == "V8" and self.i is None:
            raise ValueError("V8 carries an integer branch index")

    def __str__(self) -> str:
        if self.family == "V8":
            return f"V8({self.i})"
        return self.family


def highest_component(r: Tensor2) -> tuple[HalfInt, Tensor2]:
    """The maximal degree p with a nonzero graded part, and that part."""
    if r.is_zero:
        raise ZeroInputError("the zero tensor has no highest component")
    comps = r.graded_components()
    p = max(comps)
    return p, comps[p]


def _require_skew(r: Tensor2) -> None:
    """Raise NotSkewError naming the highest-degree component of r that is not skew."""
    bad = {q: part for q, part in r.graded_components().items() if not is_skew(part)}
    if bad:
        p = max(bad)
        raise NotSkewError(
            f"classify needs a skew tensor; its degree-{p} component {bad[p]} is not skew")


def _pairs(*wedges) -> frozenset:
    """The unordered pairs {u, w} of the wedges u^w given as (u, w); the
    zero wedge u^u has no pair."""
    return frozenset(frozenset(uw) for uw in wedges if uw[0] != uw[1])


def _labeled_spans(p: HalfInt, r_p: Tensor2) -> list[tuple[ClassLabel, frozenset]]:
    out = []
    if p.is_integer:
        ll = (L(p), L(0))
        ml = (M(0), L(p))
        lm = (L(0), M(p))
        mm = (M(0), M(p))
        out.append((ClassLabel("V1", p), _pairs(ll, ml)))
        out.append((ClassLabel("V2", p), _pairs(ll, lm)))
        out.append((ClassLabel("V3", p), _pairs(ml, mm)))
        out.append((ClassLabel("V4", p), _pairs(lm, mm)))
        js = sorted({key[0].index for key in r_p._terms
                     if key[0].kind == "M" and key[1].kind == "M"})
        out.append((ClassLabel("V5", p), _pairs(*((M(j), M(p - j)) for j in js))))
    else:
        out.append((ClassLabel("V6", p), _pairs((L(0), Y(p)), (M(0), Y(p)))))
        if p.twice % 3 == 0:
            i7 = HalfInt(p.twice // 3 * 2)
            third = HalfInt(p.twice // 3)
            out.append((ClassLabel("V7", p), _pairs((L(i7), Y(third)), (M(i7), Y(third)))))
        i_vals = sorted({key[0].index for key in r_p._terms
                         if key[0].kind == "M" and key[1].kind == "Y"})
        for i in i_vals:
            out.append((ClassLabel("V8", p, i.twice // 2), _pairs((M(i), Y(p - i)))))
    return out


def classify_highest(r_p: Tensor2, p) -> set[ClassLabel]:
    """All minimal listed spans containing a homogeneous skew top component.

    Returns {NotCandidate} when r_p lies in none of them, meaning r_p cannot
    be the top component of any Yang-Baxter solution.

    Every listed span is spanned by wedges u^w, and wedges on distinct
    unordered pairs {u, w} have disjoint supports, so they are linearly
    independent.  A skew tensor is the sum over its support pairs {u, w} of
    a multiple of u^w.  So a skew r_p lies in a span exactly when its
    support pairs are among the span's pairs, and one span lies in another
    exactly when its pair set does: both tests are set inclusions.
    """
    p = HalfInt.of(p)
    if r_p.is_zero or r_p.homogeneous_degree() != p:
        raise NotHomogeneousError(f"expected a nonzero homogeneous tensor of degree {p}")
    _require_skew(r_p)

    support = _pairs(*r_p._terms)
    matched = [(label, span) for label, span in _labeled_spans(p, r_p) if support <= span]
    keep = {la for la, sa in matched if not any(sb < sa for _, sb in matched)}
    return keep or {ClassLabel(NOT_CANDIDATE, p)}


@dataclass(frozen=True)
class SearchConfig:
    """Window bound, coefficient set, wedge-term budget and worker count."""

    bound: HalfInt
    coeffs: tuple[Fraction, ...]
    max_terms: int
    jobs: int = 1

    def __post_init__(self):
        object.__setattr__(self, "bound", HalfInt.of(self.bound))
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")


def enumerate_skew_candidates(cfg: SearchConfig) -> list[Tensor2]:
    """All nonzero combinations of at most `max_terms` elementary wedges with
    window-bounded factors and coefficients from the configured set, one per
    class up to a nonzero scalar, canonically sorted.

    The representative of each scalar class has coefficient 1 on its least
    term.  Each class is built once: `pairs` lists each (u, w) with u < w in
    `basis_window` order, which is the basis sort order, and
    `itertools.combinations` keeps that order.  So the least key of
    sum_i c_i (u_i^w_i) is (u_1, w_1), its lead coefficient is c_1, and two
    coefficient products give the same class exactly when they share the
    combination and the ray c / c_1.  Generation order is not canonical
    order (L_0^M_0 + c L_0^M_1 sorts before L_0^M_0), hence the final sort.
    """
    vs = basis_window(cfg.bound)
    pairs = [(u, w) for i, u in enumerate(vs) for w in vs[i + 1:]]
    coeffs = [c for c in cfg.coeffs if c]
    reps = []
    for k in range(1, min(cfg.max_terms, len(pairs)) + 1):
        rays = {tuple(c / cs[0] for c in cs) for cs in itertools.product(coeffs, repeat=k)}
        for combo in itertools.combinations(pairs, k):
            for ray in rays:
                acc: dict = {}
                for (u, w), c in zip(combo, ray):
                    acc[(u, w)] = c
                    acc[(w, u)] = -c
                reps.append(Tensor2._make(acc))
    return sorted(reps, key=canonical_key)


def _cybe_flags(chunk: list[Tensor2]) -> list[bool]:
    return [yang_baxter_c(r).is_zero for r in chunk]


def search_cybe(cfg: SearchConfig) -> list[Tensor2]:
    """All enumerated skew candidates satisfying the Yang-Baxter equation.

    The result is deterministic regardless of `jobs`: the candidate list is
    fixed and workers only evaluate the exact membership test.  At most
    `os.cpu_count()` worker processes start, however large `jobs` is.
    """
    cands = enumerate_skew_candidates(cfg)
    workers = min(cfg.jobs, os.cpu_count() or 1)
    if workers > 1 and len(cands) > 1:
        size = -(-len(cands) // workers)
        chunks = [cands[i:i + size] for i in range(0, len(cands), size)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_cybe_flags, chunks))
        flags = [f for part in parts for f in part]
    else:
        flags = _cybe_flags(cands)
    return [r for r, ok in zip(cands, flags) if ok]
