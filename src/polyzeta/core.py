"""Polyzeta data model.

A polyzeta index is a *composition*: a finite tuple of positive integers
``(s_1, ..., s_d)``.  The index is convergent iff ``s_1 >= 2``.  Every
convergent composition can be written block-wise as
``(a_1, 1^b_1, ..., a_h, 1^b_h)`` with all ``a_i >= 2`` and ``b_j >= 0``
(the "ab normal form"), and encoded as the binary word
``0^(a_1-1) 1 1^b_1 ... 0^(a_h-1) 1 1^b_h`` used for shuffle products.

Everything here is immutable and pure.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

__all__ = [
    "Composition",
    "ABForm",
    "Word",
    "Signature",
    "ParseError",
    "NotConvergentError",
    "parse_composition",
    "format_composition",
    "signature",
    "to_ab",
    "from_ab",
    "encode_word",
    "decode_word",
    "dual",
    "is_self_dual",
]


class ParseError(ValueError):
    """Raised when a composition string cannot be parsed."""


class NotConvergentError(ValueError):
    """Raised when an operation needs a convergent composition (s_1 >= 2)."""


class Composition(tuple):
    """An immutable tuple of positive integers indexing a polyzeta.

    The empty composition is allowed (it is the product unit, not a
    polyzeta).  A leading entry 1 makes the composition non-convergent;
    such values are storable but rejected by the operations that only
    make sense for convergent indices.

    ``Composition(entries)`` converts every entry with ``int`` and
    rejects a non-integral entry (2.9, ``Fraction(5, 2)``) and an entry
    below 1; so do :func:`parse_composition` and the relation-cache
    reader, which go through it.  ``Composition._make`` wraps a tuple as
    it is, for the package's own term builders, whose entries are ints
    >= 1 by construction.
    """

    __slots__ = ()

    def __new__(cls, entries: Iterable[int] = ()) -> "Composition":
        given = tuple(entries)
        entries = tuple(map(int, given))
        if entries != given:  # some entry is a digit string, or a number int() moved
            for g, e in zip(given, entries):
                if e != g and not isinstance(g, str):
                    raise ValueError(f"composition entry {g!r} is not an integer")
        if entries and min(entries) < 1:
            raise ValueError(f"composition entries must be >= 1, got {entries}")
        return super().__new__(cls, entries)

    _make = classmethod(tuple.__new__)  # trusted: no conversion, no check of the entries

    @property
    def weight(self) -> int:
        return sum(self)

    @property
    def depth(self) -> int:
        return len(self)

    @property
    def height(self) -> int:
        return sum(1 for e in self if e >= 2)

    def convergent(self) -> bool:
        return len(self) > 0 and self[0] >= 2

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Composition({tuple(self)!r})"

    def __str__(self) -> str:
        return format_composition(self)


class Word(str):
    """A binary word over {0, 1}, the shuffle-side encoding.

    Admissible words (first letter 0, last letter 1) biject with
    convergent compositions.  Non-admissible words with leading 1s occur
    transiently inside regularized products and still decode (each
    leading 1 peels off as an entry 1).
    """

    __slots__ = ()

    def __new__(cls, letters: str = "") -> "Word":
        s = str(letters)
        if any(ch not in "01" for ch in s):
            raise ValueError(f"word letters must be 0 or 1, got {s!r}")
        return super().__new__(cls, s)

    @property
    def weight(self) -> int:
        return len(self)

    def admissible(self) -> bool:
        return len(self) > 0 and self[0] == "0" and self[-1] == "1"


class Signature(NamedTuple):
    """Weight, depth and height of a convergent polyzeta."""

    weight: int
    depth: int
    height: int


class ABForm(tuple):
    """Block normal form: a tuple of (a_i, b_i) pairs, a_i >= 2, b_i >= 0."""

    __slots__ = ()

    def __new__(cls, blocks: Iterable[tuple[int, int]]) -> "ABForm":
        blocks = tuple((int(a), int(b)) for a, b in blocks)
        if not blocks:
            raise ValueError("an ab-form has at least one block")
        for a, b in blocks:
            if a < 2 or b < 0:
                raise ValueError(f"invalid block ({a},{b}): need a >= 2, b >= 0")
        return super().__new__(cls, blocks)

    @property
    def height(self) -> int:
        return len(self)

    @property
    def weight(self) -> int:
        return sum(a + b for a, b in self)

    @property
    def depth(self) -> int:
        return sum(1 + b for _, b in self)


def parse_composition(text: str) -> Composition:
    """Parse comma-separated entries with optional ``^k`` repetition suffixes.

    ``"4,1^3"`` -> (4,1,1,1); ``"5,1^0,3"`` -> (5,3); plain entries pass
    through.  Raises ParseError naming the offending token.
    """
    if text is None or text.strip() == "":
        raise ParseError("empty composition text")
    entries: list[int] = []
    for raw in text.split(","):
        tok = raw.strip()
        if not tok:
            raise ParseError(f"empty token in {text!r}")
        base, _, exp = tok.partition("^")
        try:
            value = int(base)
        except ValueError:
            raise ParseError(f"bad entry {tok!r}") from None
        if value < 1:
            raise ParseError(f"entry must be >= 1 in token {tok!r}")
        if _:
            try:
                count = int(exp)
            except ValueError:
                raise ParseError(f"bad repetition suffix in token {tok!r}") from None
            if count < 0:
                raise ParseError(f"repetition must be >= 0 in token {tok!r}")
        else:
            count = 1
        entries.extend([value] * count)
    if not entries:
        raise ParseError(f"composition {text!r} expands to no entries")
    return Composition(entries)


def format_composition(c: Composition) -> str:
    """Canonical text form: runs of >= 2 ones compressed as ``1^k``."""
    if len(c) == 0:
        return "()"
    parts: list[str] = []
    i = 0
    while i < len(c):
        if c[i] == 1:
            j = i
            while j < len(c) and c[j] == 1:
                j += 1
            run = j - i
            parts.append("1" if run == 1 else f"1^{run}")
            i = j
        else:
            parts.append(str(c[i]))
            i += 1
    return ",".join(parts)


def _require_convergent(c: Iterable[int], what: str) -> Composition:
    """``c`` as a Composition, checked to be convergent."""
    if not isinstance(c, Composition):
        c = Composition(c)
    if len(c) == 0:
        raise NotConvergentError(f"{what}: empty composition is not a polyzeta")
    if c[0] == 1:
        raise NotConvergentError(f"{what}: leading entry 1 in {format_composition(c)}")
    return c


def signature(c: Composition) -> Signature:
    """Return (weight, depth, height); rejects non-convergent input."""
    c = _require_convergent(c, "signature")
    return Signature(c.weight, c.depth, c.height)


def to_ab(c: Composition) -> ABForm:
    """Convergent composition -> block form (a_1,b_1),...,(a_h,b_h)."""
    c = _require_convergent(c, "to_ab")
    blocks: list[tuple[int, int]] = []
    i = 0
    while i < len(c):
        a = c[i]
        i += 1
        b = 0
        while i < len(c) and c[i] == 1:
            b += 1
            i += 1
        blocks.append((a, b))
    return ABForm(blocks)


def from_ab(f: ABForm) -> Composition:
    """Block form -> composition; exact inverse of :func:`to_ab`."""
    entries: list[int] = []
    for a, b in f:
        entries.append(a)
        entries.extend([1] * b)
    return Composition(entries)


def encode_word(c: Composition) -> Word:
    """Convergent composition -> admissible binary word.

    Each block (a, 1^b) maps to ``0^(a-1) 1 1^b``.
    """
    c = _require_convergent(c, "encode_word")
    return Word("".join("0" * (e - 1) + "1" for e in c))


def decode_word(v: Word) -> Composition:
    """Binary word -> composition; exact inverse of :func:`encode_word`.

    Words with leading 1s decode to non-convergent compositions (each
    leading 1 becomes an entry 1); a word ending in 0 has no preimage.
    """
    if v[-1:] == "0":
        raise ValueError(f"word {v!r} ends in 0 and decodes to no composition")
    return Composition._make([len(run) + 1 for run in v.split("1")[:-1]])


def _encode_int(c: tuple[int, ...]) -> int:
    """Any composition, convergent or not, as one int: the binary digits
    of its word ``0^(s_1-1) 1 ... 0^(s_d-1) 1`` under a leading 1.

    The empty composition is 1 and the weight is ``bit_length() - 1``.
    Each entry e appends its letters 0^(e-1) 1: a shift by e, then a 1.
    So an entry e in front of a composition of weight W adds 2^(W+e): the
    new leading 1, while the old one stays as the letter 1 that ends e.
    """
    code = 1
    for e in c:
        code = (code << e) | 1
    return code


def _decode_int(code: int) -> Composition:
    """Exact inverse of :func:`_encode_int`."""
    return Composition._make([len(run) + 1 for run in bin(code)[3:].split("1")[:-1]])


def dual(c: Composition) -> Composition:
    """The duality involution on convergent polyzetas.

    Read the blocks backwards, turning every 1-run ``1^b`` into a single
    entry ``b+2`` and every entry ``a`` into the run ``1^(a-2)``.  Weight
    and height are preserved; depth maps to weight - depth.
    """
    c = _require_convergent(c, "dual")
    entries: list[int] = []
    for a, b in reversed(to_ab(c)):
        entries.append(b + 2)
        entries.extend([1] * (a - 2))
    return Composition(entries)


def is_self_dual(c: Composition) -> bool:
    return dual(c) == c

