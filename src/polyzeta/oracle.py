"""Ground-truth products: quasi-shuffle and shuffle, both on compositions.

These are the standard inductive recursions, extended bilinearly to
formal rational combinations.  Everything else in the package is
validated against them.

The recursions run on int codes, not on tuples (``core._encode_int``): a
composition is the binary digits of its word ``0^(s_1-1) 1 ... 0^(s_d-1) 1``
under a leading 1, so the empty composition is 1 and the weight is
``bit_length() - 1``.  Putting an entry or a letter in front of every term
of one weight adds one power of two to each code, so a level of either
recursion is one ``map(k.__add__, codes)`` per branch, and a dict merge is
needed only where two branches start alike.

What is memoized, for the life of the process: the products of proper
suffix pairs, coded and in ascending order, in ``_stuffle`` (suffixes of
the compositions) and ``_shuffle_words`` (suffixes of the words), each
entry two parallel tuples of term codes and multiplicities.  A product
with the unit (code 1) is the other factor and is never stored.  A public
product (``stuffle``, ``shuffle``, ``shuffle_words``, ``dsr``) is summed
fresh from the memoized products of its arguments' suffix pairs, so the
memo holds no top-level product.  Its terms are decoded once, through
``ordering.by_code`` to the enumeration's own objects, and from the code
itself only for a divergent term or a weight above ``_OWN_TERMS_CAP``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import Iterable, Iterator, Mapping

from .core import (Composition, NotConvergentError, Word, _decode_int, _encode_int,
                   format_composition)
from .ordering import by_code

__all__ = ["LinComb", "coeff_dict", "InternalConsistencyError", "stuffle", "shuffle_words",
           "shuffle", "dsr"]


class InternalConsistencyError(AssertionError):
    """A structural guarantee was violated (e.g. a divergent residue)."""


class LinComb:
    """A finite formal sum of terms with exact rational coefficients.

    Terms are Compositions (or Words for the word-level shuffle); all
    terms of one combination share a single weight.  Every stored
    coefficient is in one canonical form: a non-zero ``int``, or a
    ``Fraction`` whose denominator is > 1.  Products of integer
    combinations (stuffle, shuffle, the closed families) therefore stay
    in ints end to end; a ``Fraction`` appears only where a division
    did, as in the reduction table.

    Its accumulator ``_summed`` is the one of the package: products, sums
    and relation bodies all hand it (term, coefficient) pairs, in a
    mapping or any iterable, and a term may repeat (the closed products
    plain tuples, the oracle's int codes, then one Composition per summed
    term).  It adds the coefficients of each term, drops the zero sums,
    turns a sum with denominator 1 back into its numerator and, on every
    construction, checks that one weight remains (the entry sum of a
    Composition, the length of a Word).  It does not validate the terms
    themselves: a Composition was checked, or built valid, when it was
    made.  A coefficient that is not already an ``int`` or a ``Fraction``
    is converted exactly with ``Fraction(c)`` before it is added, so
    ``"1/3"`` is a third and ``0.1`` is the binary value of the float,
    not a tenth.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping | Iterable[tuple] | None = None):
        if type(terms) is dict or isinstance(terms, Mapping):
            terms = terms.items()
        data = _summed(terms) if terms else {}
        size = len if isinstance(next(iter(data), None), str) else sum  # Word, Composition
        weights = set(map(size, data))
        if len(weights) > 1:
            raise ValueError(f"mixed weights in one combination: {sorted(weights)}")
        self._terms = data

    @classmethod
    def _make(cls, terms: dict) -> "LinComb":
        """Wrap a dict as it is (trusted: its coefficients are already
        summed, non-zero and canonical, and its terms share one weight)."""
        lc = object.__new__(cls)
        lc._terms = terms
        return lc

    @property
    def weight(self) -> int | None:
        for t in self._terms:
            return t.weight
        return None

    def items(self) -> Iterator[tuple]:
        return iter(self._terms.items())

    def terms(self) -> dict:
        return dict(self._terms)

    def __iter__(self) -> Iterator:  # the terms, as a dict iterates its keys
        return iter(self._terms)

    def __contains__(self, term) -> bool:
        return term in self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __getitem__(self, term) -> int | Fraction:
        return self._terms.get(term, 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinComb):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "LinComb") -> "LinComb":
        return LinComb(chain(self._terms.items(), other._terms.items()))

    def __sub__(self, other: "LinComb") -> "LinComb":
        return LinComb(chain(self._terms.items(), ((t, -c) for t, c in other._terms.items())))

    def __neg__(self) -> "LinComb":
        return LinComb((t, -c) for t, c in self._terms.items())

    def __rmul__(self, scalar) -> "LinComb":
        if type(scalar) is not int:
            scalar = Fraction(scalar)
        return LinComb((t, scalar * c) for t, c in self._terms.items())

    def mass(self) -> int | Fraction:
        """Total coefficient mass (sum of coefficients)."""
        return sum(self._terms.values())

    def has_divergent(self) -> bool:
        """True iff some term is divergent: a composition with a leading
        entry 1.  The empty composition is the unit, and a Word, whose
        letters are strings, is never one."""
        return any(t and t[0] == 1 for t in self._terms)

    def divergent_part(self) -> "LinComb":
        return LinComb._make({t: c for t, c in self._terms.items() if t and t[0] == 1})

    def sorted_items(self) -> list[tuple]:
        """Items with convergent terms first in the fixed-weight order."""
        from .ordering import order_key

        def key(item):
            t = item[0]
            if isinstance(t, Composition):
                if t.convergent():
                    return (0,) + order_key(t)
                return (1, tuple(t))
            return (2, str(t))

        return sorted(self._terms.items(), key=key)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks = []
        for t, c in self.sorted_items():
            label = f"({format_composition(t)})" if isinstance(t, Composition) else str(t)
            if c == 1:
                chunk = label
            elif c == -1:
                chunk = f"-{label}"
            else:
                chunk = f"{c}*{label}"
            chunks.append(chunk)
        out = chunks[0]
        for chunk in chunks[1:]:
            out += f" - {chunk[1:]}" if chunk.startswith("-") else f" + {chunk}"
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LinComb({self._terms!r})"


def _summed(pairs: Iterable[tuple]) -> dict:
    """``LinComb``'s accumulator: the pairs summed per term into a dict of
    non-zero canonical coefficients, with no check of the terms."""
    data: dict = {}
    all_ints = True
    for t, c in pairs:
        if type(c) is not int:
            all_ints = False
            if type(c) is not Fraction:
                c = Fraction(c)
        s = data.get(t, 0) + c
        if s:
            data[t] = s
        else:
            data.pop(t, None)
    if not all_ints:
        for t, c in data.items():
            if type(c) is not int and c.denominator == 1:
                data[t] = c.numerator
    return data


def _kept(items: Iterable[tuple]) -> LinComb:
    """Summed (tuple, coefficient) items of one weight as a combination of
    Compositions, one made per term."""
    return LinComb._make({Composition._make(t): c for t, c in items})


def coeff_dict(c: int | Fraction) -> dict[str, str]:
    """The JSON form of a coefficient: numerator and denominator as strings."""
    return {"num": str(c.numerator), "den": str(c.denominator)}


# the memo is keyed by the coded argument pair in ascending order; a
# product with the unit (code 1) is the other factor, and gets no entry
def _memo(product, x: int, y: int):
    if x == 1 or y == 1:
        return (x * y,), (1,)
    return product(x, y) if x <= y else product(y, x)


def _joined(a: tuple, ka: int, b: tuple, kb: int, meet: bool) -> dict[int, int]:
    """Two branches (codes, multiplicities), each of distinct codes, with
    ka added to every code of a and kb to every code of b, as one dict;
    the smaller branch is summed into the larger only where they ``meet``."""
    if not meet:
        out = dict(zip(map(ka.__add__, a[0]), a[1]))
        out.update(zip(map(kb.__add__, b[0]), b[1]))
        return out
    if len(a[0]) < len(b[0]):
        a, ka, b, kb = b, kb, a, ka
    out = dict(zip(map(ka.__add__, a[0]), a[1]))
    get = out.get
    for t, n in zip(map(kb.__add__, b[0]), b[1]):
        out[t] = get(t, 0) + n
    return out


def _stuffle_sum(x: int, y: int) -> dict[int, int]:
    """The quasi-shuffle of the coded compositions x and y as
    {code: multiplicity}.

    The rest of x after its first entry is x - 2^wx.  Each of the three
    branches (x's head, y's head, their sum in front) takes its head back
    by adding 2^(wx+wy) to every term; only the first two can meet, when
    x and y start with the same entry."""
    if x == 1 or y == 1:
        return {x * y: 1}
    if x > y:  # commutative; the order the memo sums in
        x, y = y, x
    wx, wy = x.bit_length() - 1, y.bit_length() - 1
    rx, ry = x - (1 << wx), y - (1 << wy)
    k = 1 << (wx + wy)
    out = _joined(_memo(_stuffle, rx, y), k, _memo(_stuffle, x, ry), k,
                  wx - rx.bit_length() == wy - ry.bit_length())
    ts, ns = _memo(_stuffle, rx, ry)
    out.update(zip(map(k.__add__, ts), ns))
    return out


@lru_cache(maxsize=None)
def _stuffle(x: int, y: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    out = _stuffle_sum(x, y)
    return tuple(out), tuple(out.values())


def _shuffle_sum(x: int, y: int) -> dict[int, int]:
    """The shuffle of the coded words x and y as {code: multiplicity}.

    Peeling the first letter L of x leaves (x - 2^wx) | 2^(wx-1), and a
    term of the rest takes L back by adding 2^(W-1+L), W = wx + wy.  The
    two branches meet only when x and y start with the same letter.
    Words that end in 1 shuffle to words that do: compositions."""
    if x == 1 or y == 1:
        return {x * y: 1}
    if x > y:
        x, y = y, x
    wx, wy = x.bit_length() - 1, y.bit_length() - 1
    lx, ly = x >> (wx - 1) & 1, y >> (wy - 1) & 1
    top = wx + wy - 1
    return _joined(_memo(_shuffle_words, (x - (1 << wx)) | (1 << (wx - 1)), y), 1 << (top + lx),
                   _memo(_shuffle_words, x, (y - (1 << wy)) | (1 << (wy - 1))), 1 << (top + ly),
                   lx == ly)


@lru_cache(maxsize=None)
def _shuffle_words(x: int, y: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    out = _shuffle_sum(x, y)
    return tuple(out), tuple(out.values())


# a product's terms become the enumeration's own objects up to this weight
# (2^14 compositions, cheap to enumerate); above it, and for a divergent
# term, each is decoded from its code
_OWN_TERMS_CAP = 16


def _decoded_terms(body: dict[int, int | Fraction]) -> dict[Composition, int | Fraction]:
    """A summed {code: coefficient} of one weight as {Composition: coefficient}."""
    if not body:
        return {}
    w = next(iter(body)).bit_length() - 1
    if 2 <= w <= _OWN_TERMS_CAP:
        return dict(zip(map(by_code(w).__getitem__, body), body.values()))
    return {_decode_int(t): c for t, c in body.items()}


def _decoded(body: dict[int, int | Fraction]) -> LinComb:
    return LinComb._make(_decoded_terms(body))


def _as_lincomb(x) -> LinComb:
    return x if isinstance(x, LinComb) else LinComb({Composition(x): 1})


def _bilinear(x, y, product) -> LinComb:
    """Extend a product of two terms bilinearly to combinations;
    ``product(tx, ty)`` is one product of terms as {code: multiplicity}."""
    if type(x) is Composition and type(y) is Composition:
        return _decoded(product(x, y))
    lx, ly = _as_lincomb(x), _as_lincomb(y)
    return _decoded(_summed((t, cx * cy * n) for tx, cx in lx.items()
                            for ty, cy in ly.items() for t, n in product(tx, ty).items()))


def _stuffle_of(x: Composition, y: Composition) -> dict[int, int]:
    """``_stuffle_sum`` of two compositions."""
    return _stuffle_sum(_encode_int(x), _encode_int(y))


def stuffle(x, y) -> LinComb:
    """Quasi-shuffle product of compositions, extended bilinearly."""
    return _bilinear(x, y, _stuffle_of)


def shuffle_words(u: Word, v: Word) -> LinComb:
    """Shuffle product of binary words; coefficient mass C(|u|+|v|, |u|).

    Runs on the words' codes, in the kernel of ``shuffle``: a word that
    ends in 1 is the code ``int("1" + word, 2)``, the empty word 1.  A word
    that ends in 0 has no composition and raises ``ValueError``.
    """
    words = Word(u), Word(v)
    for w in words:
        if w[-1:] == "0":
            raise ValueError(f"shuffle_words: word {w!r} ends in 0 and has no composition")
    x, y = (int("1" + w, 2) for w in words)
    return LinComb._make({Word(bin(t)[3:]): n for t, n in _shuffle_sum(x, y).items()})


def _check_shuffle_factors(*factors: Composition) -> None:
    for c in factors:
        if not c or (c[0] == 1 and len(c) > 1):
            raise NotConvergentError(
                f"shuffle: factor {format_composition(c)} is neither convergent nor (1)")


def _shuffle_of(x: Composition, y: Composition) -> dict[int, int]:
    """``_shuffle_sum`` of factors checked to be convergent or (1)."""
    _check_shuffle_factors(x, y)
    return _shuffle_sum(_encode_int(x), _encode_int(y))


def shuffle(x, y) -> LinComb:
    """Shuffle product of compositions, read as words.

    Both factors must be convergent, except that the factor (1) is
    allowed (the bare word "1"); its products carry one divergent term
    that regularization cancels.
    """
    return _bilinear(x, y, _shuffle_of)


def _dsr_sum(g, z) -> dict[int, int]:
    """The body of ``dsr`` as {code: coefficient}."""
    g = g if isinstance(g, Composition) else Composition(g)
    z = z if isinstance(z, Composition) else Composition(z)
    if not z.convergent():
        raise ValueError(f"dsr: z must be convergent, got {format_composition(z)}")
    _check_shuffle_factors(g, z)
    x, y = _encode_int(g), _encode_int(z)
    body = _shuffle_sum(x, y)
    for t, n in _stuffle_sum(x, y).items():
        c = body.get(t, 0) - n
        if c:
            body[t] = c
        else:
            del body[t]
    divergent = 3 << (sum(g) + sum(z) - 1)  # the least code whose word starts with 1
    if max(body, default=0) >= divergent:
        raise InternalConsistencyError(
            f"divergent residue in dsr({format_composition(g)}, {format_composition(z)}): "
            f"{_kept((_decode_int(t), c) for t, c in body.items() if t >= divergent)}"
        )
    return body


def dsr(g, z) -> LinComb:
    """Double-shuffle relation body: shuffle(g, z) - stuffle(g, z).

    For g = (1) the single divergent term must cancel exactly; a residue
    is an internal error, never a value.
    """
    return _decoded(_dsr_sum(g, z))
