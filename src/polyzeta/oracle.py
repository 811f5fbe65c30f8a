"""Ground-truth products: quasi-shuffle on compositions, shuffle on words.

These are the standard inductive recursions, extended bilinearly to
formal rational combinations.  Everything else in the package is
validated against them.

What is memoized, for the life of the process: the products of proper
suffix pairs, in ``_stuffle`` (compositions as tuples) and
``_shuffle_words`` (words as strings), each entry two parallel tuples of
terms and multiplicities.  A public product (``stuffle``, ``shuffle``,
``shuffle_words``, ``dsr``) is summed fresh from the memoized products
of its arguments' suffix pairs, so the memo holds no top-level product
and each call builds its own terms.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import Iterable, Iterator, Mapping

from .core import Composition, Word, decode_word, encode_word, format_composition

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

    The constructor is the one accumulator of the package: products,
    sums and relation bodies all hand it (term, coefficient) pairs, in a
    mapping or any iterable, and a term may repeat.  It adds the
    coefficients of each term, drops the zero sums, turns a sum with
    denominator 1 back into its numerator and, on every construction,
    checks that one weight remains (the entry sum of a Composition, the
    length of a Word).  It does not validate the terms themselves: a
    Composition was checked, or built valid, when it was made.  A
    coefficient that is not already an ``int`` or a ``Fraction`` is
    converted exactly with ``Fraction(c)`` before it is added, so
    ``"1/3"`` is a third and ``0.1`` is the binary value of the float,
    not a tenth.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping | Iterable[tuple] | None = None):
        data: dict = {}
        all_ints = True
        if terms:
            if type(terms) is dict or isinstance(terms, Mapping):
                terms = terms.items()
            for t, c in terms:
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
        """True iff some term is a non-convergent composition."""
        return any(
            isinstance(t, Composition) and not t.convergent() for t in self._terms
        )

    def divergent_part(self) -> "LinComb":
        return LinComb(
            {
                t: c
                for t, c in self._terms.items()
                if isinstance(t, Composition) and not t.convergent()
            }
        )

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


def coeff_dict(c: int | Fraction) -> dict[str, str]:
    """The JSON form of a coefficient: numerator and denominator as strings."""
    return {"num": str(c.numerator), "den": str(c.denominator)}


# the memo is keyed by the argument pair in ascending order
def _memo(product, x, y):
    return product(x, y) if x <= y else product(y, x)


def _stuffle_sum(x: tuple, y: tuple) -> dict[tuple, int]:
    """The quasi-shuffle of x and y as {term: multiplicity}."""
    if not x or not y:
        return {x + y: 1}
    if x > y:  # commutative; the order the memo sums in
        x, y = y, x
    out: dict[tuple, int] = {}
    for head, (ts, ns) in ((x[0], _memo(_stuffle, x[1:], y)),
                           (y[0], _memo(_stuffle, x, y[1:])),
                           (x[0] + y[0], _memo(_stuffle, x[1:], y[1:]))):
        for t, n in zip(ts, ns):
            t = (head,) + t
            out[t] = out.get(t, 0) + n
    return out


@lru_cache(maxsize=None)
def _stuffle(x: tuple, y: tuple) -> tuple[tuple[tuple, ...], tuple[int, ...]]:
    out = _stuffle_sum(x, y)
    return tuple(out), tuple(out.values())


def _shuffle_sum(u: str, v: str) -> dict[str, int]:
    """The shuffle of the words u and v as {word: multiplicity}."""
    if not u or not v:
        return {u + v: 1}
    if u > v:
        u, v = v, u
    out: dict[str, int] = {}
    for head, (ts, ns) in ((u[0], _memo(_shuffle_words, u[1:], v)),
                           (v[0], _memo(_shuffle_words, u, v[1:]))):
        for t, n in zip(ts, ns):
            t = head + t
            out[t] = out.get(t, 0) + n
    return out


@lru_cache(maxsize=None)
def _shuffle_words(u: str, v: str) -> tuple[tuple[str, ...], tuple[int, ...]]:
    out = _shuffle_sum(u, v)
    return tuple(out), tuple(out.values())


def _as_lincomb(x) -> LinComb:
    if isinstance(x, LinComb):
        return x
    if isinstance(x, Composition):
        return LinComb({x: 1})
    return LinComb({Composition(x): 1})


def _bilinear(x, y, product) -> LinComb:
    """Extend a product of two terms bilinearly to combinations;
    ``product(tx, ty)`` yields the distinct (term, multiplicity) pairs of
    one product of terms."""
    if type(x) is Composition and type(y) is Composition:
        return LinComb._make(dict(product(x, y)))
    lx, ly = _as_lincomb(x), _as_lincomb(y)

    def pairs():
        for tx, cx in lx.items():
            for ty, cy in ly.items():
                c = cx * cy
                for t, n in product(tx, ty):
                    yield t, c * n

    return LinComb(pairs())


def _stuffle_terms(tx: Composition, ty: Composition) -> Iterator[tuple[Composition, int]]:
    for t, n in _stuffle_sum(tuple(tx), tuple(ty)).items():
        yield Composition._make(t), n  # sums of entries >= 1


def stuffle(x, y) -> LinComb:
    """Quasi-shuffle product of compositions, extended bilinearly."""
    return _bilinear(x, y, _stuffle_terms)


def shuffle_words(u: Word, v: Word) -> LinComb:
    """Shuffle product of binary words; coefficient mass C(|u|+|v|, |u|)."""
    if not isinstance(u, Word):
        u = Word(u)
    if not isinstance(v, Word):
        v = Word(v)
    return LinComb({Word(t): c for t, c in _shuffle_sum(str(u), str(v)).items()})


_ONE = Composition((1,))


def _shuffle_encode(c: Composition) -> Word:
    # (1) is the single-letter word "1"; anything else must be convergent
    if c == _ONE:
        return Word("1")
    return encode_word(c)


def _shuffle_terms(tx: Composition, ty: Composition) -> Iterator[tuple[Composition, int]]:
    for wt, n in _shuffle_sum(str(_shuffle_encode(tx)), str(_shuffle_encode(ty))).items():
        yield decode_word(wt), n  # both words end in 1, so every interleaving does


def shuffle(x, y) -> LinComb:
    """Shuffle product on compositions via the word encoding.

    Both factors must be convergent, except that the factor (1) is
    allowed (encoded as the bare word "1"); its products carry one
    divergent term that regularization cancels.
    """
    return _bilinear(x, y, _shuffle_terms)


def dsr(g, z) -> LinComb:
    """Double-shuffle relation body: shuffle(g, z) - stuffle(g, z).

    For g = (1) the single divergent term must cancel exactly; a residue
    is an internal error, never a value.
    """
    g = g if isinstance(g, Composition) else Composition(g)
    z = z if isinstance(z, Composition) else Composition(z)
    if not z.convergent():
        raise ValueError(f"dsr: z must be convergent, got {format_composition(z)}")
    body = dict(_shuffle_terms(g, z))
    for t, n in _stuffle_terms(g, z):
        c = body.get(t, 0) - n
        if c:
            body[t] = c
        else:
            del body[t]
    out = LinComb._make(body)  # one weight, summed: the constructor's work is done
    if out.has_divergent():
        raise InternalConsistencyError(
            f"divergent residue in dsr({format_composition(g)}, "
            f"{format_composition(z)}): {out.divergent_part()}"
        )
    return out
