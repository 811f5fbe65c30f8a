"""Ground-truth products: quasi-shuffle and shuffle, both on compositions.

These are the standard inductive recursions, extended bilinearly to
formal rational combinations.  Everything else in the package is
validated against them.  The shuffle reads a composition as its word
(``core.encode_word``) one letter at a time, so no word is built.

What is memoized, for the life of the process: the products of proper
suffix pairs, in ``_stuffle`` (suffixes of the compositions) and
``_shuffle_words`` (suffixes of the words, read as compositions), each
entry two parallel tuples of terms and multiplicities.  A product with
the empty factor is the other factor and is never stored.  A public
product (``stuffle``, ``shuffle``, ``shuffle_words``, ``dsr``) is summed
fresh from the memoized products of its arguments' suffix pairs, so the
memo holds no top-level product and each call builds its own terms.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import Iterable, Iterator, Mapping

from .core import Composition, NotConvergentError, Word, format_composition

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
    mapping or any iterable, and a term may repeat (the products plain
    tuples, then one Composition per summed term).  It adds the
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


# the memo is keyed by the argument pair in ascending order; a product
# with an empty factor is the other factor, and gets no entry
def _memo(product, x, y):
    if not x or not y:
        return (x + y,), (1,)
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


def _shuffle_sum(x: tuple, y: tuple) -> dict[tuple, int]:
    """The shuffle of the words of x and y as {composition: multiplicity}.

    (a, *rest) is the word 0^(a-1) 1 word(rest): its first letter is 0 when
    a > 1, leaving (a-1, *rest), and a term takes the 0 back as 1 more on
    its first entry; else 1, leaving rest, taken back as an entry 1 in
    front.  Words that end in 1 shuffle to words that do: compositions."""
    if not x or not y:
        return {x + y: 1}
    if x > y:
        x, y = y, x
    out: dict[tuple, int] = {}
    for c, other in ((x, y), (y, x)):
        a = c[0]
        ts, ns = _memo(_shuffle_words, (a - 1,) + c[1:] if a > 1 else c[1:], other)
        ts = [(t[0] + 1,) + t[1:] for t in ts] if a > 1 else [(1,) + t for t in ts]
        if out and (x[0] > 1) == (y[0] > 1):  # both first letters alike: terms meet
            for t, n in zip(ts, ns):
                out[t] = out.get(t, 0) + n
        else:  # the terms of one branch are distinct, and apart from the other's
            out.update(zip(ts, ns))
    return out


@lru_cache(maxsize=None)
def _shuffle_words(x: tuple, y: tuple) -> tuple[tuple[tuple, ...], tuple[int, ...]]:
    out = _shuffle_sum(x, y)
    return tuple(out), tuple(out.values())


def _as_lincomb(x) -> LinComb:
    return x if isinstance(x, LinComb) else LinComb({Composition(x): 1})


def _bilinear(x, y, product) -> LinComb:
    """Extend a product of two terms bilinearly to combinations;
    ``product(tx, ty)`` is one product of terms as {tuple: multiplicity}."""
    if type(x) is Composition and type(y) is Composition:
        return _kept(product(x, y).items())
    lx, ly = _as_lincomb(x), _as_lincomb(y)
    return _kept(_summed((t, cx * cy * n) for tx, cx in lx.items()
                         for ty, cy in ly.items() for t, n in product(tx, ty).items()).items())


def stuffle(x, y) -> LinComb:
    """Quasi-shuffle product of compositions, extended bilinearly."""
    return _bilinear(x, y, _stuffle_sum)


def shuffle_words(u: Word, v: Word) -> LinComb:
    """Shuffle product of binary words; coefficient mass C(|u|+|v|, |u|).

    Runs on the words' compositions, in the kernel of ``shuffle``: each
    ``0^(a-1) 1`` is an entry a, so a leading 1 is an entry 1 and the
    empty word the empty composition.  A word that ends in 0 has no
    composition and raises ``ValueError``.
    """
    words = Word(u), Word(v)
    for w in words:
        if w[-1:] == "0":
            raise ValueError(f"shuffle_words: word {w!r} ends in 0 and has no composition")
    x, y = (tuple(len(run) + 1 for run in w.split("1")[:-1]) for w in words)
    return LinComb({Word("".join("0" * (e - 1) + "1" for e in t)): n
                    for t, n in _shuffle_sum(x, y).items()})


def _shuffle_checked(x: Composition, y: Composition) -> dict[tuple, int]:
    """``_shuffle_sum`` of factors checked to be convergent or (1)."""
    for c in (x, y):
        if not c or (c[0] == 1 and len(c) > 1):
            raise NotConvergentError(
                f"shuffle: factor {format_composition(c)} is neither convergent nor (1)")
    return _shuffle_sum(x, y)


def shuffle(x, y) -> LinComb:
    """Shuffle product of compositions, read as words.

    Both factors must be convergent, except that the factor (1) is
    allowed (the bare word "1"); its products carry one divergent term
    that regularization cancels.
    """
    return _bilinear(x, y, _shuffle_checked)


def _dsr_sum(g, z) -> dict[tuple, int]:
    """The body of ``dsr`` as {tuple: coefficient}."""
    g = g if isinstance(g, Composition) else Composition(g)
    z = z if isinstance(z, Composition) else Composition(z)
    if not z.convergent():
        raise ValueError(f"dsr: z must be convergent, got {format_composition(z)}")
    body = _shuffle_checked(g, z)
    for t, n in _stuffle_sum(g, z).items():
        c = body.get(t, 0) - n
        if c:
            body[t] = c
        else:
            del body[t]
    if any(t[0] == 1 for t in body):
        raise InternalConsistencyError(
            f"divergent residue in dsr({format_composition(g)}, "
            f"{format_composition(z)}): {_kept(body.items()).divergent_part()}"
        )
    return body


def dsr(g, z) -> LinComb:
    """Double-shuffle relation body: shuffle(g, z) - stuffle(g, z).

    For g = (1) the single divergent term must cancel exactly; a residue
    is an internal error, never a value.
    """
    return _kept(_dsr_sum(g, z).items())
