"""Total ordering on convergent polyzetas of one fixed weight.

Smaller means: smaller depth; then smaller height; then larger 1-placement
vector (b_1,...,b_h) under reverse-lexicographic order; then larger
a-vector (a_1,...,a_h) under plain lexicographic order.  The four-stage
key is injective on a fixed weight, so this is a total order.
:func:`enumerate_weight` generates each weight in this order, stage by
stage, with no sort.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .core import Composition, NotConvergentError, _decode_int, _encode_int, _require_convergent

__all__ = ["order_key", "compare", "enumerate_weight", "positions", "by_code", "index_of"]

LESS, EQUAL, GREATER = -1, 0, 1

ENUMERATION_WEIGHT_CAP = 20  # 2^18 compositions, about 0.5 s and 55 MB to build


def order_key(c: Composition) -> tuple:
    """Sort key realizing the fixed-weight order (ascending)."""
    c = _require_convergent(c, "order_key")
    starts = [i for i, e in enumerate(c) if e > 1]  # a_i sits at starts[i]
    ends = starts[1:] + [len(c)]
    # revlex-descending on b == lex-ascending on negated reversed b, where
    # b_i = ends[i] - starts[i] - 1; lex-descending on a == lex-ascending
    # on negated a.
    return (
        len(c),
        len(starts),
        tuple(s + 1 - e for s, e in zip(reversed(starts), reversed(ends))),
        tuple(-c[s] for s in starts),
    )


def compare(c1: Composition, c2: Composition) -> int:
    """Return -1, 0 or 1; only defined between equal weights."""
    if not isinstance(c1, Composition):
        c1 = Composition(c1)
    if not isinstance(c2, Composition):
        c2 = Composition(c2)
    if c1.weight != c2.weight:
        raise ValueError(
            f"cannot compare polyzetas of different weights "
            f"({c1.weight} vs {c2.weight})"
        )
    k1, k2 = order_key(c1), order_key(c2)
    if k1 < k2:
        return LESS
    if k1 > k2:
        return GREATER
    return EQUAL


def _descending(n: int, total: int, lo: int) -> Iterator[tuple[int, ...]]:
    """Every n-tuple of ints >= lo summing to total, lex-descending."""
    if n == 1:
        yield (total,)
        return
    for first in range(total - lo * (n - 1), lo - 1, -1):
        for rest in _descending(n - 1, total - first, lo):
            yield (first, *rest)


_enum_cache: dict[int, tuple[Composition, ...]] = {}
_index_cache: dict[int, dict[Composition, int]] = {}
_code_cache: dict[int, tuple[tuple[Composition, ...], dict[int, Composition]]] = {}


def enumerate_weight(w: int) -> Sequence[Composition]:
    """All 2^(w-2) convergent compositions of weight w, strictly increasing,
    for an int 2 <= w <= ENUMERATION_WEIGHT_CAP (TypeError for any other
    type, ValueError outside the range).

    Memoized per weight; of concurrent first fills ``dict.setdefault``
    keeps one tuple, and every caller gets that one.
    """
    if type(w) is not int:  # before the memo, where 6.0 would find weight 6
        raise TypeError(f"a weight is an int, got {w!r}")
    if w < 2:
        raise ValueError(f"no convergent polyzetas of weight {w} (need w >= 2)")
    if w > ENUMERATION_WEIGHT_CAP:
        raise ValueError(f"weight {w} exceeds the enumeration cap {ENUMERATION_WEIGHT_CAP}")
    got = _enum_cache.get(w)
    if got is None:
        # one loop per stage of the key, each ascending in it: depth d,
        # height h, b revlex-descending (the reversed b lex-descending),
        # then a lex-descending
        ordered = []
        for d in range(1, w):
            for h in range(1, min(d, w - d) + 1):
                avecs = list(_descending(h, w - d + h, 2))
                for rb in _descending(h, d - h, 0):
                    entries, starts, at = [1] * d, [], 0  # a_i goes to starts[i]
                    for b in reversed(rb):
                        starts.append(at)
                        at += 1 + b
                    for a in avecs:
                        for i, x in zip(starts, a):
                            entries[i] = x
                        ordered.append(Composition._make(entries))
        got = _enum_cache.setdefault(w, tuple(ordered))
    return got


def positions(w: int) -> dict[Composition, int]:
    """Each convergent composition of weight w (or an equal tuple) mapped
    to its index in ``enumerate_weight(w)``, memoized per weight, so that
    ``enumerate_weight(w)[positions(w)[t]]`` is the enumeration's own
    object for t, whichever fill of the enumeration is current.
    """
    comps = enumerate_weight(w)  # before the memo, which 6.0 would find
    table = _index_cache.get(w)
    if table is None:
        table = _index_cache.setdefault(w, {c: i for i, c in enumerate(comps)})
    return table


class _ByCode(dict):
    """{code: Composition}; a code it does not hold is decoded, not stored."""

    __slots__ = ()

    def __missing__(self, code: int) -> Composition:
        return _decode_int(code)


def by_code(w: int) -> dict[int, Composition]:
    """Each convergent composition of weight w keyed by its int code
    (``core._encode_int``), mapped to ``enumerate_weight(w)``'s own object.
    Any other code (a divergent composition, another weight) looks up as a
    Composition decoded from the code itself.  Memoized per weight, and
    rebuilt whenever the enumeration is refilled, so its values are always
    the current fill's objects.
    """
    comps = enumerate_weight(w)  # before the memo, which 6.0 would find
    held = _code_cache.get(w)
    if held is None or held[0] is not comps:
        held = _code_cache[w] = (comps, _ByCode(zip(map(_encode_int, comps), comps)))
    return held[1]


def index_of(c: Composition) -> int:
    """0-based position of c in the enumeration of its weight."""
    if not isinstance(c, Composition):
        c = Composition(c)
    if not c.convergent():
        raise NotConvergentError(f"index_of: {c} is not convergent")
    return positions(c.weight)[c]
