import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given

from conftest import compositions
from polyzeta.core import (
    ABForm,
    Composition,
    NotConvergentError,
    ParseError,
    Word,
    _decode_int,
    _encode_int,
    decode_word,
    dual,
    encode_word,
    format_composition,
    from_ab,
    is_self_dual,
    parse_composition,
    signature,
    to_ab,
)
from polyzeta.ordering import enumerate_weight


class TestComposition:
    @pytest.mark.parametrize("entries", [(2, 1, 3), (2.0, 1, 3.0), ("2", "1", 3), [2, True, "3"]])
    def test_integral_entries_convert(self, entries):
        c = Composition(entries)
        assert c == (2, 1, 3) and all(type(e) is int for e in c)

    @pytest.mark.parametrize("bad", [2.9, Fraction(5, 2), 1.5, 0.5])
    def test_non_integral_entry_raises(self, bad):
        # int() would truncate each of these to an entry that looks valid (0.5 to 0)
        with pytest.raises(ValueError, match=re.escape(f"entry {bad!r} is not an integer")):
            Composition((2, bad))

    @pytest.mark.parametrize("bad", [(2, 0), (2, -1.0), ("0",)])
    def test_entry_below_one_raises(self, bad):
        with pytest.raises(ValueError, match="must be >= 1"):
            Composition(bad)

    def test_make_wraps_as_is(self):
        assert Composition.__dict__["_make"].__func__ is tuple.__new__
        c = Composition._make((2, 1))
        assert type(c) is Composition and c == (2, 1)


class TestParse:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("3,1,4,1", (3, 1, 4, 1)),
            ("4,1^3", (4, 1, 1, 1)),
            ("5,1^0,3,1^0,2,1^0", (5, 3, 2)),
            ("2", (2,)),
            (" 2 , 1 ", (2, 1)),
            ("2^3", (2, 2, 2)),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_composition(text) == Composition(expected)

    @pytest.mark.parametrize("bad", ["", "  ", "2,,1", "0", "-1", "2,x", "2^", "2^-1", "1^2"])
    def test_parse_errors(self, bad):
        if bad == "1^2":
            assert parse_composition(bad) == Composition((1, 1))
            return
        with pytest.raises(ParseError):
            parse_composition(bad)

    def test_roundtrip_format(self):
        for text in ["4,1^3", "2,2,1^4", "6,2", "2,1,2,1", "2"]:
            c = parse_composition(text)
            assert format_composition(c) == text
            assert parse_composition(format_composition(c)) == c

    def test_format_single_one_run(self):
        assert format_composition(Composition((2, 1))) == "2,1"
        assert format_composition(Composition((2, 1, 1))) == "2,1^2"


class TestSignature:
    @pytest.mark.parametrize(
        "entries,sig",
        [((2, 1, 2, 1, 1), (7, 5, 2)), ((6, 2), (8, 2, 2)), ((2,), (2, 1, 1))],
    )
    def test_values(self, entries, sig):
        assert tuple(signature(Composition(entries))) == sig

    def test_rejects_divergent(self):
        with pytest.raises(NotConvergentError, match="leading entry 1"):
            signature(Composition((1, 2)))

    @pytest.mark.parametrize("entries", [(2, 1, 3), [2, 1, 3]], ids=["tuple", "list"])
    def test_plain_sequence(self, entries):
        """A tuple or list is accepted, as dual, to_ab and encode_word accept it."""
        assert signature(entries) == (6, 3, 2)
        with pytest.raises(NotConvergentError, match="leading entry 1"):
            signature(type(entries)((1, 2)))

    def test_bounds(self):
        for w in range(2, 9):
            for c in enumerate_weight(w):
                _, d, h = signature(c)
                assert 1 <= h <= d <= w - 1


class TestABForm:
    @pytest.mark.parametrize(
        "entries,blocks",
        [
            ((3, 1, 2, 1, 1), ((3, 1), (2, 2))),
            ((5, 3, 2), ((5, 0), (3, 0), (2, 0))),
            ((2,), ((2, 0),)),
        ],
    )
    def test_to_ab(self, entries, blocks):
        assert tuple(to_ab(Composition(entries))) == blocks

    def test_from_ab(self):
        assert from_ab(ABForm([(2, 0)])) == Composition((2,))

    @given(compositions())
    def test_roundtrip(self, c):
        assert from_ab(to_ab(c)) == c

    def test_rejects_divergent(self):
        with pytest.raises(NotConvergentError):
            to_ab(Composition((1, 3)))


class TestWordEncoding:
    @pytest.mark.parametrize(
        "entries,word",
        [((2,), "01"), ((2, 1), "011"), ((3, 1, 4, 1), "001100011")],
    )
    def test_encode(self, entries, word):
        # word length always equals the weight
        assert encode_word(Composition(entries)) == word
        assert decode_word(Word(word)) == Composition(entries)

    @given(compositions())
    def test_roundtrip(self, c):
        w = encode_word(c)
        assert w.admissible()
        assert len(w) == c.weight
        assert w.count("1") == c.depth
        assert decode_word(w) == c

    def test_leading_ones_decode(self):
        assert decode_word(Word("1101")) == Composition((1, 1, 2))

    def test_trailing_zero_rejected(self):
        with pytest.raises(ValueError):
            decode_word(Word("010"))

    def test_decode_matches_reference_loop(self):
        # every 0/1 word of length <= 12 ending in 1, leading 1s included
        def reference(v):
            entries, zeros = [], 0
            for ch in v:
                if ch == "0":
                    zeros += 1
                else:
                    entries.append(zeros + 1)
                    zeros = 0
            return tuple(entries)

        for n in range(12):
            for head in product("01", repeat=n):
                v = "".join(head) + "1"
                got = decode_word(Word(v))
                assert type(got) is Composition
                assert got == reference(v), v

    def test_exhaustive_bijection_small(self):
        for w in range(2, 11):
            words = {encode_word(c) for c in enumerate_weight(w)}
            assert len(words) == 2 ** (w - 2)
            for v in words:
                assert encode_word(decode_word(v)) == v


def all_compositions(w: int):
    """Every composition of w, convergent or not: one per set of cuts among
    the w - 1 gaps of w units (the empty one at w = 0)."""
    if w == 0:
        yield Composition()
        return
    for cuts in product((False, True), repeat=w - 1):
        entries, run = [], 1
        for cut in cuts:
            if cut:
                entries.append(run)
                run = 0
            run += 1
        yield Composition(entries + [run])


class TestIntCode:
    """The code of a composition: its word's binary digits under a leading 1."""

    def test_empty_is_one(self):
        assert _encode_int(Composition()) == 1 and _decode_int(1) == ()

    def test_roundtrip_every_composition_to_weight_12(self):
        seen = set()
        for w in range(13):
            for c in all_compositions(w):
                code = _encode_int(c)
                back = _decode_int(code)
                assert type(back) is Composition and back == c
                assert code.bit_length() - 1 == w
                if c.convergent():
                    assert bin(code)[3:] == encode_word(c)
                seen.add(code)
        assert seen == set(range(1, 2 ** 13, 2))  # each odd int below 2^13, once

    @pytest.mark.parametrize("entries, code", [((2,), 0b101), ((1,), 0b11), ((2, 1), 0b1011),
                                               ((1, 1, 2), 0b11101)])
    def test_examples(self, entries, code):
        assert _encode_int(Composition(entries)) == code


class TestDuality:
    @pytest.mark.parametrize(
        "entries,expected",
        [
            ((3,), (2, 1)),
            ((6, 2), (2, 2, 1, 1, 1, 1)),
            ((2, 2), (2, 2)),
            ((4, 1, 2), (2, 3, 1, 1)),
        ],
    )
    def test_examples(self, entries, expected):
        assert dual(Composition(entries)) == Composition(expected)

    def test_self_dual(self):
        assert is_self_dual(Composition((2, 2)))
        assert not is_self_dual(Composition((3,)))
        assert not is_self_dual(Composition((4, 1, 2)))

    PAPER_PAIRS = {
        3: [((3,), (2, 1))],
        4: [((4,), (2, 1, 1)), ((2, 2), (2, 2))],
        5: [
            ((5,), (2, 1, 1, 1)),
            ((4, 1), (3, 1, 1)),
            ((3, 2), (2, 2, 1)),
            ((2, 3), (2, 1, 2)),
        ],
        6: [
            ((6,), (2, 1, 1, 1, 1)),
            ((5, 1), (3, 1, 1, 1)),
            ((4, 2), (2, 2, 1, 1)),
            ((3, 3), (2, 1, 2, 1)),
            ((2, 4), (2, 1, 1, 2)),
            ((3, 1, 2), (2, 3, 1)),
        ],
    }

    @pytest.mark.parametrize("w", [3, 4, 5, 6])
    def test_small_weight_tables(self, w):
        for a, b in self.PAPER_PAIRS[w]:
            assert dual(Composition(a)) == Composition(b)

    @given(compositions())
    def test_involution(self, c):
        assert dual(dual(c)) == c

    @given(compositions())
    def test_signature_law(self, c):
        w, d, h = signature(c)
        wd, dd, hd = signature(dual(c))
        assert (wd, dd, hd) == (w, w - d, h)

    def test_self_duals_only_even_weight(self):
        for w in range(2, 12):
            selfdual = [c for c in enumerate_weight(w) if is_self_dual(c)]
            if w % 2 == 1:
                assert selfdual == []
            elif w >= 2:
                assert selfdual
