import random
import re
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import compositions
from polyzeta import oracle
from polyzeta.closedforms import LEFT_FACTORS, closed_dsr
from polyzeta.cli import main
from polyzeta.core import (Composition, NotConvergentError, Word, _decode_int, _encode_int,
                           decode_word, encode_word, format_composition)
from polyzeta.oracle import LinComb, dsr, shuffle, shuffle_words, stuffle
from polyzeta.ordering import enumerate_weight

C = Composition


class TestLinComb:
    def test_zero_coefficients_dropped(self):
        lc = LinComb({C((2,)): 1}) - LinComb({C((2,)): 1})
        assert len(lc) == 0 and not lc

    def test_mixed_weights_rejected(self):
        with pytest.raises(ValueError, match="mixed weights"):
            LinComb({C((2,)): 1, C((3,)): 1})

    def test_divergent_flagging(self):
        lc = LinComb({C((1, 2)): 1, C((3,)): -1})
        assert lc.has_divergent()
        assert lc.divergent_part() == LinComb({C((1, 2)): 1})

    def test_divergent_terms_lead_with_one(self):
        lc = LinComb({C((1, 1, 2)): 2, C((1, 3)): -1, C((2, 2)): 1, C((4,)): 5})
        assert lc.has_divergent()
        assert lc.divergent_part() == LinComb({C((1, 1, 2)): 2, C((1, 3)): -1})
        # a Word never counts, whatever its first letter; nor does the unit
        for lc in (LinComb({Word("101"): 1, Word("011"): 2}), LinComb({C(()): 1}), LinComb()):
            assert not lc.has_divergent() and lc.divergent_part() == LinComb()

    def test_arithmetic(self):
        a = LinComb({C((3,)): Fraction(1, 2)})
        b = LinComb({C((3,)): Fraction(1, 2), C((2, 1)): 1})
        assert (a + a) == LinComb({C((3,)): 1})
        assert (b - a) == LinComb({C((2, 1)): 1})
        assert 2 * a == LinComb({C((3,)): 1})

    def test_str(self):
        lc = LinComb({C((3, 1, 1, 4, 1)): 3, C((2, 2, 1, 4, 1)): 1})
        assert str(lc) == "3*(3,1^2,4,1) + (2,2,1,4,1)"
        assert str(LinComb()) == "0"
        assert str(LinComb({C((3,)): -1, C((2, 1)): 1})) == "-(3) + (2,1)"

    def test_iterates_its_terms(self):
        # a dict's protocol: `in`, list() and for see the terms, and end
        # (through __getitem__ alone each of them would loop forever)
        lc = LinComb({C((2, 1)): 1, C((3,)): -2})
        assert C((3,)) in lc and (3,) in lc and C((2, 1)) in lc
        assert C((1, 2)) not in lc and C((4,)) not in lc
        assert list(lc) == [C((2, 1)), C((3,))]
        seen = []
        for t in lc:
            seen.append(t)
        assert seen == list(lc.terms())
        assert list(LinComb()) == [] and C((3,)) not in LinComb()


POOL = enumerate_weight(5)  # eight terms of one weight, so repeats are common
COEFFS = st.one_of(
    st.integers(-3, 3),
    st.fractions(-4, 4, max_denominator=6),
    st.fractions(-4, 4, max_denominator=6).map(str),
    st.floats(-4, 4, allow_nan=False, allow_infinity=False),
)


@st.composite
def pair_lists(draw):
    """(term, coeff) pairs with repeats, plus exact cancellations of some."""
    pairs = draw(st.lists(st.tuples(st.sampled_from(POOL), COEFFS), max_size=12))
    cancel = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return pairs + [(t, -Fraction(c)) for (t, c), k in zip(pairs, cancel) if k]


def naive(pairs) -> dict:
    acc: dict = {}
    for t, c in pairs:
        acc[t] = acc.get(t, Fraction(0)) + Fraction(c)
    return {t: c for t, c in acc.items() if c}


def canonical(c) -> bool:
    """A stored coefficient: a non-zero int, or a Fraction that is not one."""
    return c != 0 and (type(c) is int or (type(c) is Fraction and c.denominator > 1))


def add(a: dict, b: dict, sign=1) -> dict:
    return naive(list(a.items()) + [(t, sign * c) for t, c in b.items()])


class TestLinCombAccumulator:
    """The constructor against a naive fold of Fraction(c)."""

    @settings(max_examples=200, deadline=None)
    @given(pair_lists())
    def test_construct(self, pairs):
        lc = LinComb(pairs)
        assert lc.terms() == naive(pairs)
        assert all(canonical(c) for _, c in lc.items())
        assert LinComb(dict(lc.items())) == lc

    @settings(max_examples=100, deadline=None)
    @given(pair_lists(), pair_lists(), COEFFS.filter(lambda k: not isinstance(k, str)))
    def test_arithmetic(self, pa, pb, k):
        a, b = LinComb(pa), LinComb(pb)
        for lc, want in (
            (a + b, add(a.terms(), b.terms())),
            (a - b, add(a.terms(), b.terms(), -1)),
            (k * a, naive((t, Fraction(k) * c) for t, c in a.items())),
        ):
            assert lc.terms() == want
            assert all(canonical(c) for _, c in lc.items())

    @settings(max_examples=50, deadline=None)
    @given(pair_lists(), COEFFS)
    def test_mixed_weights_raise(self, pairs, c):
        assume(naive(pairs) and Fraction(c))
        with pytest.raises(ValueError, match="mixed weights"):
            LinComb(pairs + [(C((4,)), c)])


CONVERGENT = {w: enumerate_weight(w) for w in range(2, 7)}


@st.composite
def product_pairs(draw):
    """Two convergent compositions of total weight <= 8."""
    wx = draw(st.integers(2, 6))
    wy = draw(st.integers(2, 8 - wx))
    return draw(st.sampled_from(CONVERGENT[wx])), draw(st.sampled_from(CONVERGENT[wy]))


@settings(max_examples=100, deadline=None)
@given(product_pairs())
def test_product_coefficients_are_ints(pair):
    x, y = pair
    bodies = [stuffle(x, y), shuffle(x, y), dsr(y, x)]
    bodies += [closed_dsr(g, x) for g, lf in LEFT_FACTORS.items()
               if lf.weight + x.weight <= 8]
    for body in bodies:
        assert body and all(type(c) is int for _, c in body.items())


class TestStuffle:
    def test_paper_expansion(self):
        got = stuffle(C((1,)), C((4, 1, 1)))
        want = LinComb(
            {
                C((5, 1, 1)): 1,
                C((4, 2, 1)): 1,
                C((4, 1, 2)): 1,
                C((1, 4, 1, 1)): 1,
                C((4, 1, 1, 1)): 3,
            }
        )
        assert got == want

    def test_depth_one_pair(self):
        assert stuffle(C((2,)), C((3,))) == LinComb(
            {C((5,)): 1, C((2, 3)): 1, C((3, 2)): 1}
        )

    def test_unit(self):
        z = C((2, 1))
        assert stuffle(C(()), z) == LinComb({z: 1})
        assert stuffle(z, C(())) == LinComb({z: 1})

    @given(compositions(max_depth=3), compositions(max_depth=3))
    @settings(max_examples=60)
    def test_commutative(self, x, y):
        assert stuffle(x, y) == stuffle(y, x)

    @given(compositions(max_entry=3, max_depth=2), compositions(max_entry=3, max_depth=2),
           compositions(max_entry=3, max_depth=2))
    @settings(max_examples=30, deadline=None)
    def test_associative(self, x, y, z):
        assert stuffle(stuffle(x, y), z) == stuffle(x, stuffle(y, z))

    def test_depth_one_mass_law(self):
        for y in enumerate_weight(6):
            assert stuffle(C((3,)), y).mass() == 2 * y.depth + 1

    @given(compositions(max_depth=3), compositions(max_depth=3))
    @settings(max_examples=40)
    def test_weight_additive(self, x, y):
        assert stuffle(x, y).weight == x.weight + y.weight


class TestShuffleWords:
    def test_examples(self):
        assert shuffle_words(Word("01"), Word("01")) == LinComb(
            {Word("0101"): 2, Word("0011"): 4}
        )
        assert shuffle_words(Word("1"), Word("01")) == LinComb(
            {Word("101"): 1, Word("011"): 2}
        )
        assert shuffle_words(Word(""), Word("0011")) == LinComb({Word("0011"): 1})

    @given(compositions(max_depth=3), compositions(max_depth=3))
    @settings(max_examples=40)
    def test_mass(self, x, y):
        from polyzeta.core import encode_word

        u, v = encode_word(x), encode_word(y)
        assert shuffle_words(u, v).mass() == comb(len(u) + len(v), len(u))

    def test_empty_and_leading_one_words_multiply(self):
        # words, not compositions: the empty word is the unit, and a word
        # with leading 1s is a factor like any other that ends in 1
        assert shuffle_words(Word(""), Word("")) == LinComb({Word(""): 1})
        assert shuffle_words(Word("11"), Word("1")) == LinComb({Word("111"): 3})
        assert shuffle_words(Word("1"), Word("101")) == LinComb({Word("1101"): 2, Word("1011"): 2})

    @pytest.mark.parametrize("u, v", [("10", "1"), ("01", "0"), ("0", "")])
    def test_rejects_a_word_ending_in_0(self, u, v):
        bad = u if u.endswith("0") else v
        with pytest.raises(ValueError, match=f"'{bad}'"):
            shuffle_words(Word(u), Word(v))

    def test_commutative_exhaustive_small(self):
        words = ["01", "011", "0011", "001", "1"]
        for u in words:
            for v in words:
                assert shuffle_words(Word(u), Word(v)) == shuffle_words(Word(v), Word(u))


class TestShuffle:
    def test_paper_expansion(self):
        got = shuffle(C((1,)), C((3, 1, 4, 1)))
        want = LinComb(
            {
                C((3, 1, 1, 4, 1)): 3,
                C((3, 1, 4, 1, 1)): 3,
                C((1, 3, 1, 4, 1)): 1,
                C((2, 2, 1, 4, 1)): 1,
                C((3, 1, 3, 2, 1)): 1,
                C((3, 1, 2, 3, 1)): 1,
            }
        )
        assert got == want

    def test_two_by_two(self):
        assert shuffle(C((2,)), C((2,))) == LinComb({C((2, 2)): 2, C((3, 1)): 4})

    def test_mass(self):
        assert shuffle(C((2,)), C((3,))).mass() == comb(5, 2)
        rng = random.Random(1)
        pool = [c for w in range(2, 8) for c in enumerate_weight(w)]
        for _ in range(25):
            x, y = rng.choice(pool), rng.choice(pool)
            assert shuffle(x, y).mass() == comb(x.weight + y.weight, x.weight)

    def test_depth_law(self):
        for wx in range(2, 5):
            for x in enumerate_weight(wx):
                for y in enumerate_weight(4):
                    for t, _ in shuffle(x, y).items():
                        assert t.depth == x.depth + y.depth

    def test_associative_small(self):
        xs = [C((2,)), C((3,)), C((2, 1))]
        for x in xs:
            for y in xs:
                for z in xs:
                    assert shuffle(shuffle(x, y), z) == shuffle(x, shuffle(y, z))


NOT_SHUFFLE_FACTORS = [(), (1, 2), (1, 1), (1, 3, 1)]  # empty, or leading 1 other than (1)


class TestShuffleFactors:
    """The factors the shuffle of compositions accepts: convergent ones
    and (1); anything else is a NotConvergentError naming the factor."""

    @pytest.mark.parametrize("bad", NOT_SHUFFLE_FACTORS)
    @pytest.mark.parametrize("product", [shuffle, dsr])
    def test_rejects_a_left_factor(self, product, bad):
        named = re.escape(f"factor {format_composition(C(bad))} ")
        with pytest.raises(NotConvergentError, match=named):
            product(C(bad), C((2, 1)))

    @pytest.mark.parametrize("bad", NOT_SHUFFLE_FACTORS)
    def test_rejects_a_right_factor(self, bad):
        named = re.escape(f"factor {format_composition(C(bad))} ")
        with pytest.raises(NotConvergentError, match=named):
            shuffle(C((2, 1)), C(bad))
        with pytest.raises(NotConvergentError):
            shuffle(C((3,)), LinComb({C(bad): 1}))

    def test_accepts_one(self):
        assert shuffle(C((1,)), C((1,))) == LinComb({C((1, 1)): 2})
        assert shuffle(C((2,)), C((1,))) == shuffle(C((1,)), C((2,)))


class TestDsr:
    def test_euler(self):
        assert dsr(C((1,)), C((2,))) == LinComb({C((2, 1)): 1, C((3,)): -1})

    def test_weight_four(self):
        assert dsr(C((2,)), C((2,))) == LinComb({C((3, 1)): 4, C((4,)): -1})

    def test_regularization_cancels(self):
        for w in range(2, 9):
            for z in enumerate_weight(w):
                body = dsr(C((1,)), z)
                assert not body.has_divergent()

    def test_rejects_divergent_z(self):
        with pytest.raises(ValueError):
            dsr(C((1,)), C((1, 2)))

    @pytest.fixture
    def stuffle_without_divergent_terms(self, monkeypatch):
        """A top-level stuffle that loses its divergent terms, so the
        shuffle's divergent term (1, *z) is left as a residue.  The memos
        it fills are dropped before and after."""
        real = oracle._stuffle_sum
        monkeypatch.setattr(oracle, "_stuffle_sum", lambda x, y: {
            t: n for t, n in real(x, y).items() if _decode_int(t)[0] > 1})
        for memo in (oracle._stuffle, oracle._shuffle_words):
            memo.cache_clear()
        yield
        for memo in (oracle._stuffle, oracle._shuffle_words):
            memo.cache_clear()

    @pytest.mark.usefixtures("stuffle_without_divergent_terms")
    def test_divergent_residue_is_an_inconsistency(self, capsys):
        # the residue is named as text, never as a raw code
        residue = re.escape("divergent residue in dsr(1, 2,1): (1,2,1)")
        with pytest.raises(oracle.InternalConsistencyError, match=residue) as err:
            dsr(C((1,)), C((2, 1)))
        assert str(_encode_int((1, 2, 1))) not in str(err.value)
        code = main(["reconcile", "--g", "1", "--side", "dsr", "--max-weight", "5"])
        captured = capsys.readouterr()
        assert code == 3 and not captured.out and "Traceback" not in captured.err
        assert captured.err.startswith(
            "internal inconsistency: divergent residue in dsr(1, 2): (1,2)")
        assert captured.err.count("\n") == 1


def ref_stuffle(x: tuple, y: tuple) -> dict:
    """The quasi-shuffle recursion, without a memo."""
    if not x or not y:
        return {x + y: 1}
    out: dict = {}
    for head, rest in ((x[0], ref_stuffle(x[1:], y)), (y[0], ref_stuffle(x, y[1:])),
                       (x[0] + y[0], ref_stuffle(x[1:], y[1:]))):
        for t, n in rest.items():
            out[(head,) + t] = out.get((head,) + t, 0) + n
    return out


def ref_shuffle(u: str, v: str) -> dict:
    """The shuffle recursion on words, without a memo."""
    if not u or not v:
        return {u + v: 1}
    out: dict = {}
    for head, rest in ((u[0], ref_shuffle(u[1:], v)), (v[0], ref_shuffle(u, v[1:]))):
        for t, n in rest.items():
            out[head + t] = out.get(head + t, 0) + n
    return out


def test_products_match_an_unmemoised_recursion():
    # every ordered pair, so both argument orders of the memo key are met;
    # the string recursion on the words referees the composition kernel
    ones = [(C((1,)), y) for wy in range(2, 7) for y in CONVERGENT[wy]]
    for x, y in ones + [(x, y) for wx in range(2, 7) for wy in range(2, 9 - wx)
                        for x in CONVERGENT[wx] for y in CONVERGENT[wy]]:
        assert stuffle(x, y).terms() == ref_stuffle(x, y)
        u = "1" if x == (1,) else encode_word(x)
        words = ref_shuffle(u, encode_word(y))
        assert shuffle_words(u, encode_word(y)).terms() == words
        assert shuffle(x, y).terms() == {decode_word(t): n for t, n in words.items()}
        assert shuffle(y, x).terms() == shuffle(x, y).terms()


def word_suffixes(x: tuple) -> list[tuple]:
    """The suffixes of x's word 0^(a_1-1) 1 ... 0^(a_d-1) 1, as compositions."""
    return [(k,) + x[i + 1:] for i in range(len(x)) for k in range(1, x[i] + 1)] + [()]


def coded_pair(a: tuple, b: tuple) -> tuple[int, int]:
    """A memo key: the int codes of a and b, smaller first."""
    return tuple(sorted((_encode_int(a), _encode_int(b))))


def sub_pairs(xs: list, ys: list, top: tuple) -> set:
    """The coded argument pairs that the recursion of the product of
    (x, y) = top meets below it: pairs of suffixes from xs and ys, none of
    them empty (a product with the unit is not memoised)."""
    pairs = {coded_pair(a, b) for a in xs for b in ys if a and b}
    pairs.discard(coded_pair(*top))
    return pairs


@pytest.mark.parametrize("x, y", [((3, 1, 2), (2, 1)), ((2, 1, 1), (2, 1, 1)), ((2, 2), (5,))])
@pytest.mark.parametrize("product", ["stuffle", "shuffle", "shuffle_words", "dsr"])
def test_memo_keeps_sub_products_only(x, y, product):
    memos = {"stuffle": oracle._stuffle, "shuffle": oracle._shuffle_words}
    for memo in memos.values():
        memo.cache_clear()
    if product == "shuffle_words":
        shuffle_words(encode_word(C(x)), encode_word(C(y)))
    else:
        getattr(oracle, product)(C(x), C(y))
    sides = {"stuffle": ["stuffle"], "dsr": ["stuffle", "shuffle"]}.get(product, ["shuffle"])
    for side, memo in memos.items():
        if side not in sides:
            assert memo.cache_info().currsize == 0
            continue
        suffixes = (lambda c: [c[i:] for i in range(len(c) + 1)]) if side == "stuffle" \
            else word_suffixes
        want = sub_pairs(suffixes(x), suffixes(y), (x, y))
        info = memo.cache_info()
        assert info.currsize == len(want)
        for pair in want:  # each a hit: the memo holds these pairs, none with an empty side
            memo(*pair)
        assert memo.cache_info().misses == info.misses
        memo(*coded_pair(x, y))  # the product's own pair is a miss
        assert memo.cache_info().misses == info.misses + 1
