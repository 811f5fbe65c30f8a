"""Direct, non-recursive expansions of the products with (1), (2), (3), (2,1).

Each product is a finite sum of *families*.  A family walks the blocks
(a_1, 1^b_1, ..., a_h, 1^b_h) of the right factor and emits terms with
integer coefficients; it states once the shift of its terms' depth and
height from z's.  Each term is spliced: z with up to three heads or runs
replaced, joined with the unchanged slices of z around them, as a plain
(tuple, coefficient) pair; a product makes one Composition per summed
term, and :func:`closed_terms` its :class:`FamilyTerm` records.  Family
names record where the inserted letters land: ``a`` in a 0-run (the head
a_k, grown or split), ``b`` in a 1-run (the ones 1^b_k, one merged or a
new entry inserted); ``a1 a2`` distinct blocks, a repeated letter the
same block; ``front``/``end`` the special unit insertions.

In the word ``0^(a_k-1) 1 1^b_k`` of block k, the head a_k and the run
1^b_k are disjoint segments.  A term therefore replaces heads and runs
separately, and an edit of a_i composes with an edit of 1^b_j in the same
way whether i == j or not: a family over i <= j has no same-block case.

The printed source statements of several of these expansions carry
typographical defects (a wrong guard, a dropped coefficient, an index
slip, two absent families).  The shipped families are the corrected ones,
validated coefficient-by-coefficient against the brute-force products in
:mod:`polyzeta.oracle`.  The print rides on the same single emission,
which keeps a printed coefficient where it differs; the families of a
``missing-family``, ``index-typo`` or ``unreadable`` correction are absent
from it.  :func:`reconcile` reports what the corrections add to the print
and which of them fired.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cache, partial
from itertools import combinations, combinations_with_replacement
from typing import Callable, Iterator, Sequence

from .core import Composition, _require_convergent, format_composition
from .oracle import InternalConsistencyError, LinComb, _decoded_terms, _dsr_sum, _kept, _shuffle_of
from .oracle import _stuffle_of, _summed, coeff_dict
from .ordering import enumerate_weight

__all__ = [
    "LEFT_FACTORS",
    "SIDES",
    "sources",
    "FamilyTerm",
    "PrintCorrection",
    "PRINT_CORRECTIONS",
    "closed_terms",
    "closed_stuffle",
    "closed_shuffle",
    "closed_dsr",
    "DiscrepancyReport",
    "reconcile",
]

LEFT_FACTORS = {
    "1": Composition((1,)),
    "2": Composition((2,)),
    "3": Composition((3,)),
    "21": Composition((2, 1)),
}
SIDES = ("stuffle", "shuffle", "dsr")


def _left_factor(g: str) -> Composition:
    if g not in LEFT_FACTORS:
        raise ValueError(f"unknown left factor key {g!r}; use one of {', '.join(LEFT_FACTORS)}")
    return LEFT_FACTORS[g]


def sources(g: str, w: int) -> Sequence[Composition]:
    """The right factors of g at total weight w: every convergent z with
    weight(g) + weight(z) = w, none when that leaves z below weight 2."""
    wz = w - _left_factor(g).weight
    return enumerate_weight(wz) if wz >= 2 else ()


@dataclass(frozen=True, slots=True)
class FamilyTerm:
    """One emitted term: composition, integer coefficient, predicted signature."""

    family: str
    composition: Composition
    coeff: int
    depth: int
    height: int


@dataclass(frozen=True)
class PrintCorrection:
    """A documented defect of the printed statement of one family.

    ``structural`` families change the expansion itself (missing family,
    dropped coefficient); non-structural ones are evident slips whose
    intended reading is pinned down by the statement's own term counts.
    A ``missing-family``, ``index-typo`` or ``unreadable`` family is absent
    from the print; a ``guard`` or ``coefficient`` defect is the printed
    coefficient of each term it touches (``_Emitter.printed``).
    """

    g: str
    side: str
    family: str
    kind: str  # "guard" | "coefficient" | "index-typo" | "missing-family" | "unreadable"
    structural: bool
    note: str


PRINT_CORRECTIONS: tuple[PrintCorrection, ...] = (
    PrintCorrection(
        "2", "shuffle", "00->a,1->a", "guard", False,
        "printed with guard a_i >= 5; the family's own term count "
        "1 + sum a_i(a_i-1)/2 - 1 requires contributions from a_i >= 3 "
        "(e.g. the (3,2) term of (2) shuffle (3))",
    ),
    PrintCorrection(
        "2", "dsr", "00->a,1->a", "guard", False,
        "same a_i >= 5 guard slip inherited by the subtracted form",
    ),
    PrintCorrection(
        "3", "shuffle", "00->b1:3,1->b2", "coefficient", True,
        "printed coefficient b_j2+1; the count of placements of the "
        "inserted 1 in the grown run 1^(b_j2+1) is b_j2+2",
    ),
    PrintCorrection(
        "3", "shuffle", "0->b,0->a1,1->a2", "coefficient", True,
        "printed without the a_i1 multiplicity of the 0 absorbed into "
        "the middle 0-run",
    ),
    PrintCorrection(
        "21", "stuffle", "2->b:3,1->b(same)", "missing-family", True,
        "the same-block double merge (..,1^p,3,1^q,2,1^r,..) is absent "
        "from the printed list; (2,1)*(2,1,1) needs its (2,3,2) term",
    ),
    PrintCorrection(
        "21", "stuffle", "2->front,1->b+1", "missing-family", True,
        "the front-2 with appended 1 family (2,..,1^(b_j+1),..) is absent; "
        "(2,1)*(2) needs coefficient 2 on (2,2,1)",
    ),
    PrintCorrection(
        "21", "stuffle", "2->b:3,1->b+1(same)", "index-typo", True,
        "printed with splits of b_j-1 and coefficient b''+1, which emits "
        "weight w-1 terms; the weight-consistent reading is splits of b_j "
        "with coefficient b''",
    ),
    PrintCorrection(
        "21", "stuffle", "2->b:ins,1->b(same)", "index-typo", True,
        "printed with splits of b_j, which emits weight w+1 terms; the "
        "weight-consistent reading is splits of b_j-1",
    ),
    PrintCorrection(
        "21", "shuffle", "0->a1,1->a1,1->a2", "unreadable", True,
        "printed with a dangling inner sum over a_i2', a_i2''; "
        "reconstructed as splits a'+a''=a_i1+2 times A'+A''=a_i2+1",
    ),
    PrintCorrection(
        "21", "shuffle", "0->b,1->b(same),1->a", "coefficient", True,
        "printed coefficient b''+1; the inserted 1 can also terminate the "
        "new 2, giving b''+2",
    ),
)

_ABSENT_FROM_PRINT = ("missing-family", "index-typo", "unreadable")  # see PrintCorrection


@cache
def _splits3(total: int) -> tuple[tuple[int, int, int], ...]:
    return tuple((p, q, total - p - q) for p in range(total + 1) for q in range(total - p + 1))


@cache
def _asplits(total: int, lo1: int = 2) -> tuple[tuple[int, int], ...]:
    """All (a', a'') with a' + a'' = total, a' >= lo1, a'' >= 2."""
    return tuple(zip(range(lo1, total - 1), range(total - lo1, 1, -1)))


@cache
def _asplits3(total: int) -> tuple[tuple[int, int, int], ...]:
    return tuple((a1, a2, total - a1 - a2) for a1 in range(2, total - 2)
                 for a2 in range(2, total - a1 - 1))


@cache
def _ins(n: int, v: int) -> tuple[tuple[int, ...], ...]:
    """The runs 1^p, v, 1^(n-p) for p = 0..n: the entry v placed among n
    ones, with n - p ones after it (none when n < 0)."""
    return tuple((1,) * p + (v,) + (1,) * (n - p) for p in range(n + 1))


@cache
def _ins2(n: int, v1: int, v2: int) -> tuple[tuple[int, ...], ...]:
    """The runs 1^p, v1, 1^q, v2, 1^r over the splits (p, q, r) of n, in
    ``_splits3`` order."""
    return tuple((1,) * p + (v1,) + (1,) * q + (v2,) + (1,) * r for p, q, r in _splits3(n))


class _Emitter:
    """Builds the terms of one expansion over the blocks of z, family by family.

    Block k of z is its head a_k at position ``s[k]`` and its run of b_k
    ones, ``z[r[k]:s[k + 1]]`` with ``r[k] = s[k] + 1``.  A family splices
    each term: the slice of z before the first replaced head or run, the
    replacements (a head grown or split; a run grown by ones at its end or
    given new entries, ``_ins``/``_ins2``) with the slices of z between
    them, and the slice after the last, in ascending order.  The slices
    before and after each block, ``pre[k]`` and ``post[k]``, and before
    its run and from it on, ``thru[k]`` and ``rest[k]``, are cut once per z;
    what the innermost loop does not change (a slice between pieces, a
    grown head, a joined prefix or suffix) is built outside it.  Every
    entry is >= 1 by construction, and a family skips the placements that
    its coefficient counts as 0.

    ``family(name, dd, dh, *terms)`` opens a family, states once the shift
    of its terms' (depth, height) from z's, and emits ``terms``.  ``terms``
    holds (tuple, coefficient) pairs in emission order and ``spans`` the
    (name, depth, height, first term) of each family, which runs to the
    next span's first term; ``printed[n]`` is the print's coefficient of
    ``terms[n]`` where it differs.
    """

    def __init__(self, z: Composition):  # convergent: _emission checks it
        z = self.z = tuple(z)
        s = self.s = [k for k, x in enumerate(z) if x > 1]  # s[k]: the position of a_k
        self.a = [z[k] for k in s]
        self.d, self.h = len(z), len(s)
        r = self.r = [k + 1 for k in s]
        s.append(self.d)
        self.b = [k - j for j, k in zip(r, s[1:])]
        self.pre, self.post = [z[:k] for k in s], [z[k:] for k in s[1:]]
        self.thru, self.rest = [z[:k] for k in r], [z[k:] for k in r]
        self.terms: list[tuple[tuple[int, ...], int]] = []
        self.spans: list[tuple[str, int, int, int]] = []
        self.printed: dict[int, int] = {}

    def family(self, name: str, dd: int, dh: int, *terms: tuple[tuple[int, ...], int]) -> None:
        self.spans.append((name, self.d + dd, self.h + dh, len(self.terms)))
        self.terms += terms

    def families(self) -> Iterator[tuple[str, int, int, int, int]]:
        """(name, depth, height, first, end) of each family, whose terms are terms[first:end]."""
        ends = [span[3] for span in self.spans[1:]] + [len(self.terms)]
        return ((*span, end) for span, end in zip(self.spans, ends))


def _subtract(stuffle: Callable[[_Emitter], None], shuffle: Callable[[_Emitter], None],
              e: _Emitter) -> None:
    """The dsr shuffle - stuffle over a new emitter: run ``stuffle``, negate
    what it emitted (its terms, their printed coefficients and, prefixed
    with ``-``, its family names), then run ``shuffle``."""
    stuffle(e)
    e.terms = [(t, -c) for t, c in e.terms]
    e.spans = [("-" + name, d, h, first) for name, d, h, first in e.spans]
    e.printed = {k: -p for k, p in e.printed.items()}
    shuffle(e)


def _merge(e: _Emitter, k: int) -> None:
    """The single entry k merged into z: into a head (``k->a``) or into a
    one of a run, which becomes k + 1 (``k->b:merge``)."""
    add = e.terms.append
    e.family(f"{k}->a", 0, 0, *[(lead + (x + k,) + end, 1)
                               for lead, x, end in zip(e.pre, e.a, e.rest)])
    e.family(f"{k}->b:merge", 0, 1)
    for lead, n, end in zip(e.thru, e.b, e.post):
        for run in _ins(n - 1, k + 1):
            add((lead + run + end, 1))


# ---------------------------------------------------------------------------
# left factor (1)
# ---------------------------------------------------------------------------

def _stuffle_1(e: _Emitter) -> None:
    _merge(e, 1)
    e.family("1->front", 1, 0, ((1,) + e.z, 1))  # divergent, cancels in dsr
    e.family("1->b:ins", 1, 0, *[(lead + (1,) + end, n + 1)
                                 for lead, n, end in zip(e.pre[1:], e.b, e.post)])


def _shuffle_1(e: _Emitter, dsr: bool = False) -> None:
    add = e.terms.append
    e.family("1->b", 1, 0, *[(lead + (1,) + end, 1 if dsr else n + 2)
                             for lead, n, end in zip(e.pre[1:], e.b, e.post)])
    if not dsr:
        e.family("1->front", 1, 0, ((1,) + e.z, 1))  # divergent, cancels in dsr
    e.family("1->a", 1, 1)
    for lead, x, end in zip(e.pre, e.a, e.rest):
        for hd in _asplits(x + 1):
            add((lead + hd + end, 1))


# ---------------------------------------------------------------------------
# left factors (2) and (3): the stuffle side
# ---------------------------------------------------------------------------

def _stuffle_entry(e: _Emitter, k: int) -> None:
    """The stuffle generator of the single entry k >= 2 (for k = 1 the
    inserted 1 joins a run of ones and the front unit adds no height)."""
    add = e.terms.append
    _merge(e, k)
    e.family(f"{k}->front", 1, 1, ((k,) + e.z, 1))
    e.family(f"{k}->b:ins", 1, 1)
    for lead, n, end in zip(e.thru, e.b, e.post):
        for run in _ins(n, k):
            add((lead + run + end, 1))


_stuffle_2 = partial(_stuffle_entry, k=2)
_stuffle_3 = partial(_stuffle_entry, k=3)


# ---------------------------------------------------------------------------
# left factor (2)
# ---------------------------------------------------------------------------

def _shuffle_2(e: _Emitter, dsr: bool = False) -> None:
    z, s, r, a, b, h, add = e.z, e.s, e.r, e.a, e.b, e.h, e.terms.append
    pre, post, thru, rest = e.pre, e.post, e.thru, e.rest
    # 0 -> a_i, 1 -> 1-run j (same block allowed)
    e.family("0->a,1->b", 1, 0, *[
        (pre[i] + (a[i] + 1,) + z[r[i]:s[j + 1]] + (1,) + post[j], a[i] * (b[j] + 2))
        for i, j in combinations_with_replacement(range(h), 2)])
    # 0 -> 1-run j1 (new 2), 1 -> 1-run j2
    e.family("0->b1,1->b2", 1, 1)
    for j1, j2 in combinations(range(h), 2):
        end = z[s[j1 + 1]:s[j2 + 1]] + (1,) + post[j2]
        for run in _ins(b[j1] - 1, 2):
            add((thru[j1] + run + end, b[j2] + 2))
    # 0 and 1 in the same 1-run, q = n - p ones after the 2 (no q = 0 term when subtracted)
    e.family("0->b,1->b(same)", 1, 1)
    for lead, n, end in zip(thru, b, post):
        for p, run in enumerate(_ins(n, 2)[:n + 1 - dsr]):
            add((lead + run + end, n - p + 1 - dsr))
    # 0 and 1 in the same 0-run (plus the front unit when not subtracted)
    e.family("00->a,1->a", 1, 1)
    if not dsr:
        add(((2,) + z, 1))
    for lead, x, end in zip(pre, a, rest):
        for a1, a2 in _asplits(x + 2, 3):
            if x < 5:  # printed with the guard a_i >= 5
                e.printed[len(e.terms)] = 0
            add((lead + (a1, a2) + end, a1 - 1))
    # 0 -> a_i1, 1 -> a_i2
    e.family("0->a1,1->a2", 1, 1)
    for i1, i2 in combinations(range(h), 2):
        lead = pre[i1] + (a[i1] + 1,) + z[r[i1]:s[i2]]
        for hd in _asplits(a[i2] + 1):
            add((lead + hd + rest[i2], a[i1]))
    # 0 -> 1-run j, 1 -> a_i with j < i
    e.family("0->b,1->a", 1, 2)
    for j, i in combinations(range(h), 2):
        for run in _ins(b[j] - 1, 2):
            left = thru[j] + run + z[s[j + 1]:s[i]]
            for hd in _asplits(a[i] + 1):
                add((left + hd + rest[i], 1))


# ---------------------------------------------------------------------------
# left factor (3)
# ---------------------------------------------------------------------------

def _shuffle_3(e: _Emitter) -> None:
    z, s, r, a, b, h, add = e.z, e.s, e.r, e.a, e.b, e.h, e.terms.append
    pre, post, thru, rest = e.pre, e.post, e.thru, e.rest
    e.family("001->front", 1, 1, ((3,) + z, 1))
    # both 0s and the 1 inside one 0-run
    e.family("00->a,1->a(same)", 1, 1)
    for lead, x, end in zip(pre, a, rest):
        for a1, a2 in _asplits(x + 3, 4):
            add((lead + (a1, a2) + end, (a1 - 1) * (a1 - 2) // 2))
    # 00 adjacent in a 1-run (new 3), 1 in the same run
    e.family("00->b:3,1->b(same)", 1, 1)
    for lead, n, end in zip(thru, b, post):
        for p, run in enumerate(_ins(n, 3)):
            add((lead + run + end, n - p + 1))
    # 00 split in a 1-run (two 2s), 1 in the same run
    e.family("00->b:22,1->b(same)", 1, 2)
    for lead, n, end in zip(thru, b, post):
        for (_, _, last), run in zip(_splits3(n - 1), _ins2(n - 1, 2, 2)):
            add((lead + run + end, last + 1))
    # both 0s in a_i1, 1 splits a_i2
    e.family("00->a1,1->a2", 1, 1)
    for i1, i2 in combinations(range(h), 2):
        lead = pre[i1] + (a[i1] + 2,) + z[r[i1]:s[i2]]
        for hd in _asplits(a[i2] + 1):
            add((lead + hd + rest[i2], a[i1] * (a[i1] + 1) // 2))
    # both 0s in a_i, 1 in 1-run j
    e.family("00->a,1->b", 1, 0, *[
        (pre[i] + (a[i] + 2,) + z[r[i]:s[j + 1]] + (1,) + post[j],
         a[i] * (a[i] + 1) // 2 * (b[j] + 2))
        for i, j in combinations_with_replacement(range(h), 2)])
    # 00 adjacent in 1-run j (new 3), 1 splits a_i
    e.family("00->b:3,1->a", 1, 2)
    for j, i in combinations(range(h), 2):
        for run in _ins(b[j] - 1, 3):
            left = thru[j] + run + z[s[j + 1]:s[i]]
            for hd in _asplits(a[i] + 1):
                add((left + hd + rest[i], 1))
    # 00 split in 1-run j (two 2s), 1 splits a_i
    e.family("00->b:22,1->a", 1, 3)
    for j, i in combinations(range(h), 2):
        for run in _ins2(b[j] - 2, 2, 2):
            left = thru[j] + run + z[s[j + 1]:s[i]]
            for hd in _asplits(a[i] + 1):
                add((left + hd + rest[i], 1))
    # 00 adjacent in 1-run j1 (new 3), 1 in 1-run j2
    e.family("00->b1:3,1->b2", 1, 1)
    for j1, j2 in combinations(range(h), 2):
        end = z[s[j1 + 1]:s[j2 + 1]] + (1,) + post[j2]
        for run in _ins(b[j1] - 1, 3):
            e.printed[len(e.terms)] = b[j2] + 1
            add((thru[j1] + run + end, b[j2] + 2))
    # 00 split in 1-run j1 (two 2s), 1 in 1-run j2
    e.family("00->b1:22,1->b2", 1, 2)
    for j1, j2 in combinations(range(h), 2):
        end = z[s[j1 + 1]:s[j2 + 1]] + (1,) + post[j2]
        for run in _ins2(b[j1] - 2, 2, 2):
            add((thru[j1] + run + end, b[j2] + 2))
    # 0 -> a_i1, 0 and 1 -> a_i2
    e.family("0->a1,0->a2,1->a2", 1, 1)
    for i1, i2 in combinations(range(h), 2):
        lead = pre[i1] + (a[i1] + 1,) + z[r[i1]:s[i2]]
        for a1, a2 in _asplits(a[i2] + 2, 3):
            add((lead + (a1, a2) + rest[i2], a[i1] * (a1 - 1)))
    # 0 -> a_i, 0 and 1 in 1-run j
    e.family("0->a,0->b,1->b(same)", 1, 1)
    for i, j in combinations_with_replacement(range(h), 2):
        lead = pre[i] + (a[i] + 1,) + z[r[i]:r[j]]
        for p, run in enumerate(_ins(b[j], 2)):
            add((lead + run + post[j], a[i] * (b[j] - p + 1)))
    # 0 -> 1-run j (new 2), 0 and 1 -> a_i
    e.family("0->b,0->a,1->a(same)", 1, 2)
    for j, i in combinations(range(h), 2):
        for run in _ins(b[j] - 1, 2):
            left = thru[j] + run + z[s[j + 1]:s[i]]
            for a1, a2 in _asplits(a[i] + 2, 3):
                add((left + (a1, a2) + rest[i], a1 - 1))
    # 0 -> 1-run j1 (new 2), 0 and 1 -> 1-run j2
    e.family("0->b1,0->b2,1->b2", 1, 2)
    for j1, j2 in combinations(range(h), 2):
        for run1 in _ins(b[j1] - 1, 2):
            left = thru[j1] + run1 + z[s[j1 + 1]:r[j2]]
            for p, run in enumerate(_ins(b[j2], 2)):
                add((left + run + post[j2], b[j2] - p + 1))
    # 0 -> a_i1, 0 -> a_i2, 1 -> a_i3
    e.family("0->a1,0->a2,1->a3", 1, 1)
    for i1, i2, i3 in combinations(range(h), 3):
        lead = pre[i1] + (a[i1] + 1,) + z[r[i1]:s[i2]] + (a[i2] + 1,) + z[r[i2]:s[i3]]
        for hd in _asplits(a[i3] + 1):
            add((lead + hd + rest[i3], a[i1] * a[i2]))
    # 0 -> a_i1, 0 -> a_i2, 1 -> 1-run j
    e.family("0->a1,0->a2,1->b", 1, 0)
    for i1, i2 in combinations(range(h), 2):
        lead = pre[i1] + (a[i1] + 1,) + z[r[i1]:s[i2]] + (a[i2] + 1,)
        for j in range(i2, h):
            add((lead + z[r[i2]:s[j + 1]] + (1,) + post[j], a[i1] * a[i2] * (b[j] + 2)))
    # 0 -> a_i1, 0 -> 1-run j, 1 -> a_i2   (i1 <= j < i2)
    e.family("0->a1,0->b,1->a2", 1, 2)
    for i1, j in combinations_with_replacement(range(h), 2):
        lead = pre[i1] + (a[i1] + 1,) + z[r[i1]:r[j]]
        for i2 in range(j + 1, h):
            for run in _ins(b[j] - 1, 2):
                left = lead + run + z[s[j + 1]:s[i2]]
                for hd in _asplits(a[i2] + 1):
                    add((left + hd + rest[i2], a[i1]))
    # 0 -> a_i, 0 -> 1-run j1, 1 -> 1-run j2   (i <= j1 < j2)
    e.family("0->a,0->b1,1->b2", 1, 1)
    for i, j1 in combinations_with_replacement(range(h), 2):
        lead = pre[i] + (a[i] + 1,) + z[r[i]:r[j1]]
        for j2 in range(j1 + 1, h):
            end = z[s[j1 + 1]:s[j2 + 1]] + (1,) + post[j2]
            for run in _ins(b[j1] - 1, 2):
                add((lead + run + end, a[i] * (b[j2] + 2)))
    # 0 -> 1-run j (new 2), 0 -> a_i1, 1 -> a_i2   (j < i1 < i2)
    e.family("0->b,0->a1,1->a2", 1, 2)
    for j, i1, i2 in combinations(range(h), 3):
        mid = z[s[j + 1]:s[i1]] + (a[i1] + 1,) + z[r[i1]:s[i2]]
        for run in _ins(b[j] - 1, 2):
            left = thru[j] + run + mid
            for hd in _asplits(a[i2] + 1):
                e.printed[len(e.terms)] = 1
                add((left + hd + rest[i2], a[i1]))
    # 0 -> 1-run j1 (new 2), 0 -> a_i, 1 -> 1-run j2   (j1 < i <= j2)
    e.family("0->b1,0->a,1->b2", 1, 1)
    for j1, i in combinations(range(h), 2):
        mid = z[s[j1 + 1]:s[i]] + (a[i] + 1,)
        for j2 in range(i, h):
            end = mid + z[r[i]:s[j2 + 1]] + (1,) + post[j2]
            for run in _ins(b[j1] - 1, 2):
                add((thru[j1] + run + end, a[i] * (b[j2] + 2)))
    # 0 -> 1-run j1, 0 -> 1-run j2, 1 -> a_i   (j1 < j2 < i)
    e.family("0->b1,0->b2,1->a", 1, 3)
    for j1, j2, i in combinations(range(h), 3):
        for run1 in _ins(b[j1] - 1, 2):
            for run2 in _ins(b[j2] - 1, 2):
                left = thru[j1] + run1 + z[s[j1 + 1]:r[j2]] + run2 + z[s[j2 + 1]:s[i]]
                for hd in _asplits(a[i] + 1):
                    add((left + hd + rest[i], 1))
    # 0 -> 1-run j1, 0 -> 1-run j2, 1 -> 1-run j3
    e.family("0->b1,0->b2,1->b3", 1, 2)
    for j1, j2, j3 in combinations(range(h), 3):
        end = z[s[j2 + 1]:s[j3 + 1]] + (1,) + post[j3]
        for run1 in _ins(b[j1] - 1, 2):
            left = thru[j1] + run1 + z[s[j1 + 1]:r[j2]]
            for run in _ins(b[j2] - 1, 2):
                add((left + run + end, b[j3] + 2))


# ---------------------------------------------------------------------------
# left factor (2,1)
# ---------------------------------------------------------------------------

def _stuffle_21(e: _Emitter) -> None:
    z, s, r, a, b, h, add = e.z, e.s, e.r, e.a, e.b, e.h, e.terms.append
    pre, post, thru, rest = e.pre, e.post, e.thru, e.rest
    # both entries merge into entries >= 2
    e.family("2->a1,1->a2", 0, 0, *[
        (pre[i1] + (a[i1] + 2,) + z[r[i1]:s[i2]] + (a[i2] + 1,) + rest[i2], 1)
        for i1, i2 in combinations(range(h), 2)])
    # 2 merges into a_i, 1 merges into a one of run j >= i
    e.family("2->a,1->b", 0, 1)
    for i, j in combinations_with_replacement(range(h), 2):
        lead = pre[i] + (a[i] + 2,) + z[r[i]:r[j]]
        for run in _ins(b[j] - 1, 2):
            add((lead + run + post[j], 1))
    # 2 merges into a one of run j (3), 1 merges into a_i, j < i
    e.family("2->b:3,1->a", 0, 1)
    for j, i in combinations(range(h), 2):
        end = z[s[j + 1]:s[i]] + (a[i] + 1,) + rest[i]
        for run in _ins(b[j] - 1, 3):
            add((thru[j] + run + end, 1))
    # both merge into ones of distinct runs
    e.family("2->b1:3,1->b2", 0, 2)
    for j1, j2 in combinations(range(h), 2):
        for run1 in _ins(b[j1] - 1, 3):
            left = thru[j1] + run1 + z[s[j1 + 1]:r[j2]]
            for run in _ins(b[j2] - 1, 2):
                add((left + run + post[j2], 1))
    # both merge into ones of the same run (missing from the printed list)
    e.family("2->b:3,1->b(same)", 0, 2)
    for lead, n, end in zip(thru, b, post):
        for run in _ins2(n - 2, 3, 2):
            add((lead + run + end, 1))
    # 2 merges into a_i, 1 inserted in run j >= i
    e.family("2->a,1->b:ins", 1, 0, *[
        (pre[i] + (a[i] + 2,) + z[r[i]:s[j + 1]] + (1,) + post[j], b[j] + 1)
        for i, j in combinations_with_replacement(range(h), 2)])
    # 2 merges into a one of run j1 (3), 1 inserted in run j2 > j1
    e.family("2->b1:3,1->b2:ins", 1, 1)
    for j1, j2 in combinations(range(h), 2):
        end = z[s[j1 + 1]:s[j2 + 1]] + (1,) + post[j2]
        for run in _ins(b[j1] - 1, 3):
            add((thru[j1] + run + end, b[j2] + 1))
    # 2 merges into a one of run j (3), 1 inserted among the n - p > 0 ones
    # after it (printed with an index slip that breaks the weight)
    e.family("2->b:3,1->b+1(same)", 1, 1)
    for lead, n, end in zip(thru, b, post):
        for p, run in enumerate(_ins(n, 3)[:n]):
            add((lead + run + end, n - p))
    # 2 inserted at the front, 1 merges into a_i
    e.family("2->front,1->a", 1, 1, *[((2,) + lead + (x + 1,) + end, 1)
                                      for lead, x, end in zip(pre, a, rest)])
    # 2 inserted in run j, 1 merges into a_i, j < i
    e.family("2->b:ins,1->a", 1, 1)
    for j, i in combinations(range(h), 2):
        end = z[s[j + 1]:s[i]] + (a[i] + 1,) + rest[i]
        for run in _ins(b[j], 2):
            add((thru[j] + run + end, 1))
    # 2 inserted at the front, 1 merges into a one of run j
    e.family("2->front,1->b", 1, 2)
    for lead, n, end in zip(thru, b, post):
        for run in _ins(n - 1, 2):
            add(((2,) + lead + run + end, 1))
    # 2 inserted in run j1, 1 merges into a one of run j2 > j1
    e.family("2->b1:ins,1->b2", 1, 2)
    for j1, j2 in combinations(range(h), 2):
        for run1 in _ins(b[j1], 2):
            left = thru[j1] + run1 + z[s[j1 + 1]:r[j2]]
            for run in _ins(b[j2] - 1, 2):
                add((left + run + post[j2], 1))
    # 2 inserted in run j, 1 merges into a one after it in the same run
    # (printed with an index slip that breaks the weight)
    e.family("2->b:ins,1->b(same)", 1, 2)
    for lead, n, end in zip(thru, b, post):
        for run in _ins2(n - 1, 2, 2):
            add((lead + run + end, 1))
    # the unit (2,1) at the front
    e.family("21->front", 2, 1, ((2, 1) + z, 1))
    # 2 inserted at the front, 1 inserted in run j (missing from print)
    e.family("2->front,1->b+1", 2, 1, *[((2,) + lead + (1,) + end, n + 1)
                                        for lead, n, end in zip(pre[1:], b, post)])
    # 2 inserted in run j, 1 inserted among the n + 1 - p > 0 ones after it
    e.family("2->b:ins,1->b+1(same)", 2, 1)
    for lead, n, end in zip(thru, b, post):
        for p, run in enumerate(_ins(n + 1, 2)[:n + 1]):
            add((lead + run + end, n + 1 - p))
    # 2 inserted in run j1, 1 inserted in run j2 > j1
    e.family("2->b1:ins,1->b2:ins", 2, 1)
    for j1, j2 in combinations(range(h), 2):
        end = z[s[j1 + 1]:s[j2 + 1]] + (1,) + post[j2]
        for run in _ins(b[j1], 2):
            add((thru[j1] + run + end, b[j2] + 1))


def _shuffle_21(e: _Emitter) -> None:
    z, s, r, a, b, h, add = e.z, e.s, e.r, e.a, e.b, e.h, e.terms.append
    pre, post, thru, rest = e.pre, e.post, e.thru, e.rest
    # 0 and the adjacent 11 inside one 0-run
    e.family("0->a,11->a(pair)", 2, 1)
    for lead, x, end in zip(pre, a, rest):
        for a1, a2 in _asplits(x + 2):
            add((lead + (a1, 1, a2) + end, a1 - 1))
    # 0 and both 1s split one 0-run twice
    e.family("0->a,1->a,1->a(same)", 2, 2)
    for lead, x, end in zip(pre, a, rest):
        for hd in _asplits3(x + 3):
            add((lead + hd + end, hd[0] - 1))
    # 0 in 1-run j (new 2), both 1s among the n + 1 - p >= 2 ones after it
    e.family("0->b,11->b(same)", 2, 1)
    for lead, n, end in zip(thru, b, post):
        for p, run in enumerate(_ins(n + 1, 2)[:n]):
            add((lead + run + end, (n - p + 2) * (n - p + 1) // 2))
    # 0 and one 1 split a_i1, the other 1 splits a_i2 (the printed inner
    # sums dangle, so this family is reconstructed; absent as printed)
    e.family("0->a1,1->a1,1->a2", 2, 2)
    for i1, i2 in combinations(range(h), 2):
        for a1, a2 in _asplits(a[i1] + 2):
            left = pre[i1] + (a1, a2) + z[r[i1]:s[i2]]
            for hd in _asplits(a[i2] + 1):
                add((left + hd + rest[i2], a1 - 1))
    # 0 and one 1 split a_i, the other 1 in 1-run j >= i
    e.family("0->a,1->a,1->b", 2, 1)
    for i, j in combinations_with_replacement(range(h), 2):
        end = z[r[i]:s[j + 1]] + (1,) + post[j]
        for a1, a2 in _asplits(a[i] + 2):
            add((pre[i] + (a1, a2) + end, (a1 - 1) * (b[j] + 2)))
    # 0 in 1-run j (new 2), one 1 among the n - p ones after it, the other
    # splits a_i > j
    e.family("0->b,1->b(same),1->a", 2, 2)
    for j, i in combinations(range(h), 2):
        n = b[j]
        for p, run in enumerate(_ins(n, 2)[:n]):
            left = thru[j] + run + z[s[j + 1]:s[i]]
            for hd in _asplits(a[i] + 1):
                e.printed[len(e.terms)] = n - p
                add((left + hd + rest[i], n - p + 1))
    # 0 in 1-run j1 (new 2), one 1 after it, the other in 1-run j2
    e.family("0->b1,1->b1(same),1->b2", 2, 1)
    for j1, j2 in combinations(range(h), 2):
        end, n = z[s[j1 + 1]:s[j2 + 1]] + (1,) + post[j2], b[j1]
        for p, run in enumerate(_ins(n, 2)[:n]):
            add((thru[j1] + run + end, (n - p + 1) * (b[j2] + 2)))
    # 0 into a_i1, adjacent 11 inside a_i2
    e.family("0->a1,11->a2(pair)", 2, 1)
    for i1, i2 in combinations(range(h), 2):
        lead = pre[i1] + (a[i1] + 1,) + z[r[i1]:s[i2]]
        for a1, a2 in _asplits(a[i2] + 1):
            add((lead + (a1, 1, a2) + rest[i2], a[i1]))
    # 0 into a_i1, both 1s split a_i2 twice
    e.family("0->a1,1->a2,1->a2", 2, 2)
    for i1, i2 in combinations(range(h), 2):
        lead = pre[i1] + (a[i1] + 1,) + z[r[i1]:s[i2]]
        for hd in _asplits3(a[i2] + 2):
            add((lead + hd + rest[i2], a[i1]))
    # 0 into a_i, both 1s into 1-run j >= i
    e.family("0->a,1->b,1->b(same)", 2, 0, *[
        (pre[i] + (a[i] + 1,) + z[r[i]:s[j + 1]] + (1, 1) + post[j],
         a[i] * (b[j] + 3) * (b[j] + 2) // 2)
        for i, j in combinations_with_replacement(range(h), 2)])
    # 0 in 1-run j (new 2), adjacent 11 inside a_i > j
    e.family("0->b,11->a(pair)", 2, 2)
    for j, i in combinations(range(h), 2):
        for run in _ins(b[j] - 1, 2):
            left = thru[j] + run + z[s[j + 1]:s[i]]
            for a1, a2 in _asplits(a[i] + 1):
                add((left + (a1, 1, a2) + rest[i], 1))
    # 0 in 1-run j (new 2), both 1s split a_i > j twice
    e.family("0->b,1->a,1->a", 2, 3)
    for j, i in combinations(range(h), 2):
        for run in _ins(b[j] - 1, 2):
            left = thru[j] + run + z[s[j + 1]:s[i]]
            for hd in _asplits3(a[i] + 2):
                add((left + hd + rest[i], 1))
    # 0 in 1-run j1 (new 2), both 1s into 1-run j2
    e.family("0->b1,1->b2,1->b2", 2, 1)
    for j1, j2 in combinations(range(h), 2):
        end = z[s[j1 + 1]:s[j2 + 1]] + (1, 1) + post[j2]
        for run in _ins(b[j1] - 1, 2):
            add((thru[j1] + run + end, (b[j2] + 3) * (b[j2] + 2) // 2))
    # 0 into a_i1, 1 splits a_i2, 1 splits a_i3
    e.family("0->a1,1->a2,1->a3", 2, 2)
    for i1, i2, i3 in combinations(range(h), 3):
        lead, mid = pre[i1] + (a[i1] + 1,) + z[r[i1]:s[i2]], z[r[i2]:s[i3]]
        for hd1 in _asplits(a[i2] + 1):
            left = lead + hd1 + mid
            for hd in _asplits(a[i3] + 1):
                add((left + hd + rest[i3], a[i1]))
    # 0 into a_i1, 1 splits a_i2, 1 into 1-run j >= i2
    e.family("0->a1,1->a2,1->b", 2, 1)
    for i1, i2 in combinations(range(h), 2):
        lead = pre[i1] + (a[i1] + 1,) + z[r[i1]:s[i2]]
        for j in range(i2, h):
            end = z[r[i2]:s[j + 1]] + (1,) + post[j]
            for hd in _asplits(a[i2] + 1):
                add((lead + hd + end, a[i1] * (b[j] + 2)))
    # 0 into a_i1, 1 into 1-run j, 1 splits a_i2   (i1 <= j < i2)
    e.family("0->a1,1->b,1->a2", 2, 1)
    for i1, j in combinations_with_replacement(range(h), 2):
        lead = pre[i1] + (a[i1] + 1,) + z[r[i1]:s[j + 1]] + (1,)
        for i2 in range(j + 1, h):
            left = lead + z[s[j + 1]:s[i2]]
            for hd in _asplits(a[i2] + 1):
                add((left + hd + rest[i2], a[i1] * (b[j] + 2)))
    # 0 into a_i, 1 into 1-run j1, 1 into 1-run j2   (i <= j1 < j2)
    e.family("0->a,1->b1,1->b2", 2, 0)
    for i, j1 in combinations_with_replacement(range(h), 2):
        lead = pre[i] + (a[i] + 1,) + z[r[i]:s[j1 + 1]] + (1,)
        for j2 in range(j1 + 1, h):
            add((lead + z[s[j1 + 1]:s[j2 + 1]] + (1,) + post[j2],
                 a[i] * (b[j1] + 2) * (b[j2] + 2)))
    # 0 in 1-run j (new 2), 1 splits a_i1, 1 splits a_i2   (j < i1 < i2)
    e.family("0->b,1->a1,1->a2", 2, 3)
    for j, i1, i2 in combinations(range(h), 3):
        for run in _ins(b[j] - 1, 2):
            for hd1 in _asplits(a[i1] + 1):
                left = thru[j] + run + z[s[j + 1]:s[i1]] + hd1 + z[r[i1]:s[i2]]
                for hd in _asplits(a[i2] + 1):
                    add((left + hd + rest[i2], 1))
    # 0 in 1-run j1 (new 2), 1 splits a_i, 1 into 1-run j2   (j1 < i <= j2)
    e.family("0->b1,1->a,1->b2", 2, 2)
    for j1, i in combinations(range(h), 2):
        for j2 in range(i, h):
            end = z[r[i]:s[j2 + 1]] + (1,) + post[j2]
            for run in _ins(b[j1] - 1, 2):
                left = thru[j1] + run + z[s[j1 + 1]:s[i]]
                for hd in _asplits(a[i] + 1):
                    add((left + hd + end, b[j2] + 2))
    # 0 in 1-run j1 (new 2), 1 into 1-run j2, 1 splits a_i   (j1 < j2 < i)
    e.family("0->b1,1->b2,1->a", 2, 2)
    for j1, j2, i in combinations(range(h), 3):
        mid = z[s[j1 + 1]:s[j2 + 1]] + (1,) + z[s[j2 + 1]:s[i]]
        for run in _ins(b[j1] - 1, 2):
            left = thru[j1] + run + mid
            for hd in _asplits(a[i] + 1):
                add((left + hd + rest[i], b[j2] + 2))
    # 0 in 1-run j1 (new 2), 1 into 1-run j2, 1 into 1-run j3
    e.family("0->b1,1->b2,1->b3", 2, 1)
    for j1, j2, j3 in combinations(range(h), 3):
        end = z[s[j1 + 1]:s[j2 + 1]] + (1,) + z[s[j2 + 1]:s[j3 + 1]] + (1,) + post[j3]
        for run in _ins(b[j1] - 1, 2):
            add((thru[j1] + run + end, (b[j2] + 2) * (b[j3] + 2)))
    # the unit (2,1) appended at the very end
    e.family("011->end", 2, 1, (z + (2, 1), 1))


_GENERATORS: dict[tuple[str, str], Callable[[_Emitter], None]] = {
    ("1", "stuffle"): _stuffle_1,
    ("1", "shuffle"): _shuffle_1,
    ("1", "dsr"): partial(_subtract, partial(_merge, k=1), partial(_shuffle_1, dsr=True)),
    ("2", "stuffle"): _stuffle_2,
    ("2", "shuffle"): _shuffle_2,
    ("2", "dsr"): partial(_subtract, partial(_merge, k=2), partial(_shuffle_2, dsr=True)),
    ("3", "stuffle"): _stuffle_3,
    ("3", "shuffle"): _shuffle_3,
    ("3", "dsr"): partial(_subtract, _stuffle_3, _shuffle_3),
    ("21", "stuffle"): _stuffle_21,
    ("21", "shuffle"): _shuffle_21,
    ("21", "dsr"): partial(_subtract, _stuffle_21, _shuffle_21),
}

# the print corrections of each (g, side) in registry order (dsr inherits
# both sides), and the families among them that the print lacks
_CORRECTIONS = {
    (g, side): tuple(c for c in PRINT_CORRECTIONS
                     if c.g == g and c.side in (SIDES if side == "dsr" else (side,)))
    for g, side in _GENERATORS
}
_ABSENT = {key: frozenset(c.family for c in records if c.kind in _ABSENT_FROM_PRINT)
           for key, records in _CORRECTIONS.items()}


def _emission(g: str, side: str, z, op: str) -> _Emitter:
    """Check the arguments of the public operation ``op`` (z must be
    convergent) and run the generator of (g, side) over z once."""
    _left_factor(g)
    if (g, side) not in _GENERATORS:
        raise ValueError(f"unknown side {side!r}; use stuffle, shuffle or dsr")
    e = _Emitter(_require_convergent(z, op))
    _GENERATORS[(g, side)](e)
    return e


def closed_terms(g: str, side: str, z) -> list[FamilyTerm]:
    """All family terms of the closed expansion, with predicted signatures."""
    e = _emission(g, side, z, "closed_terms")
    return [FamilyTerm(name, Composition._make(t), c, depth, height)
            for name, depth, height, first, end in e.families() for t, c in e.terms[first:end]]


def closed_stuffle(g: str, z) -> LinComb:
    """Closed quasi-shuffle product of the left factor ``g`` with z."""
    return _kept(LinComb(_emission(g, "stuffle", z, "closed_stuffle").terms).items())


def closed_shuffle(g: str, z) -> LinComb:
    """Closed shuffle product of the left factor ``g`` with z."""
    return _kept(LinComb(_emission(g, "shuffle", z, "closed_shuffle").terms).items())


def closed_dsr(g: str, z) -> LinComb:
    """Closed relation body shuffle - stuffle; never contains a divergent term."""
    out = _kept(LinComb(_emission(g, "dsr", z, "closed_dsr").terms).items())
    if out.has_divergent():
        raise InternalConsistencyError(
            f"divergent residue in closed dsr (g={g}, z={format_composition(Composition(z))})"
        )
    return out


# ---------------------------------------------------------------------------
# reconciliation against the brute-force products
# ---------------------------------------------------------------------------

@dataclass
class DiscrepancyReport:
    """Closed form vs oracle for one right factor.

    ``missing``/``extra``/``mismatched`` compare the shipped (corrected)
    closed form against the oracle and are empty in a passing build.
    ``beyond_printed`` is what the corrections add relative to the printed
    text; ``corrections_engaged`` names the corrected families that
    actually fired on this input.
    """

    g: str
    side: str
    z: Composition
    missing: dict[Composition, int] = field(default_factory=dict)
    extra: dict[Composition, int] = field(default_factory=dict)
    mismatched: dict[Composition, tuple[int, int]] = field(default_factory=dict)
    corrections_engaged: list[str] = field(default_factory=list)
    beyond_printed: dict[Composition, int] = field(default_factory=dict)
    verdict: str = "exact"

    def as_dict(self) -> dict:
        def comb(d):
            return [{"composition": list(t), "coeff": coeff_dict(c)} for t, c in sorted(d.items())]

        return {
            "g": self.g,
            "side": self.side,
            "z": list(self.z),
            "verdict": self.verdict,
            "missing": comb(self.missing),
            "extra": comb(self.extra),
            "mismatched": [
                {
                    "composition": list(t),
                    "closed": coeff_dict(a),
                    "oracle": coeff_dict(b),
                }
                for t, (a, b) in sorted(self.mismatched.items())
            ],
            "corrections_engaged": sorted(self.corrections_engaged),
            "beyond_printed": comb(self.beyond_printed),
        }


# the oracle's products as {code: coefficient}
_ORACLE_SUMS = {"stuffle": _stuffle_of, "shuffle": _shuffle_of, "dsr": _dsr_sum}


def reconcile_one(g: str, side: str, z) -> DiscrepancyReport:
    """Compare the shipped closed form against the oracle for one z."""
    z = z if isinstance(z, Composition) else Composition(z)
    e = _emission(g, side, z, "reconcile_one")
    shipped = _summed(e.terms)
    target = _decoded_terms(_ORACLE_SUMS[side](LEFT_FACTORS[g], z))
    rep = DiscrepancyReport(g=g, side=side, z=z)
    if shipped != target:  # walk the terms only where the products differ
        for t, c in target.items():
            if t not in shipped:
                rep.missing[t] = c
            elif shipped[t] != c:
                rep.mismatched[t] = (shipped[t], c)
        rep.extra = {Composition._make(t): c for t, c in shipped.items() if t not in target}
    corrections, absent = _CORRECTIONS[g, side], _ABSENT[g, side]
    deltas: list[tuple[tuple[int, ...], int]] = []
    net: dict[str, int] = {}  # family -> summed delta; one sign per family and side
    starts = [span[3] for span in e.spans]
    for n, p in e.printed.items():  # terms[n] is in the last family to start at or before n
        family = e.spans[bisect_right(starts, n) - 1][0].removeprefix("-")
        if family not in absent:
            t, c = e.terms[n]
            deltas.append((t, c - p))
            net[family] = net.get(family, 0) + c - p
    if absent:  # the print lacks these families: each of their terms is a delta
        for name, _, _, first, end in e.families():
            family = name.removeprefix("-")
            if family in absent:
                part = e.terms[first:end]
                deltas += part
                net[family] = net.get(family, 0) + sum(c for _, c in part)
    rep.beyond_printed = {Composition._make(t): c for t, c in _summed(deltas).items()}
    rep.corrections_engaged = list(dict.fromkeys(  # registry order, once each
        c.family for c in corrections if net.get(c.family)))
    clean = not (rep.missing or rep.extra or rep.mismatched)
    structural = any(c.structural for c in corrections if c.family in rep.corrections_engaged)
    rep.verdict = ("exact" if not structural else "reconciled") if clean else "mismatch"
    return rep


RECONCILE_WEIGHT_CAP = 16  # the sweep is exponential in the weight


def reconcile(g: str, side: str, max_weight: int = 12) -> list[DiscrepancyReport]:
    """Sweep all convergent z with weight(z) + weight(g) <= max_weight."""
    if max_weight > RECONCILE_WEIGHT_CAP:
        raise ValueError(
            f"max_weight {max_weight} exceeds the configured cap {RECONCILE_WEIGHT_CAP}"
        )
    least = _left_factor(g).weight + 2
    if max_weight < least:
        raise ValueError(f"max_weight {max_weight} is below {least}, the least "
                         f"total weight with a source for g={g}")
    return [reconcile_one(g, side, z) for w in range(max_weight + 1) for z in sources(g, w)]
