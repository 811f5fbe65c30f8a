import itertools
import random

import pytest

from polyzeta import engine, ordering
from polyzeta.core import Composition, NotConvergentError, _encode_int, format_composition, to_ab
from polyzeta.ordering import (
    EQUAL,
    GREATER,
    LESS,
    by_code,
    compare,
    enumerate_weight,
    index_of,
    order_key,
    positions,
)

W3 = ["3", "2,1"]
W4 = ["4", "3,1", "2,2", "2,1^2"]
W5 = ["5", "4,1", "3,2", "2,3", "3,1^2", "2,2,1", "2,1,2", "2,1^3"]
# weight-6 column 13 of the printed table has a weight-5 misprint; the
# enumeration below carries the consistent value (3,1,1,1) in that slot
W6 = [
    "6", "5,1", "4,2", "3,3", "2,4",
    "4,1^2", "3,2,1", "2,3,1", "3,1,2", "2,1,3", "2,2,2",
    "3,1^3", "2,2,1^2", "2,1,2,1", "2,1^2,2", "2,1^4",
]


@pytest.mark.parametrize("w,table", [(3, W3), (4, W4), (5, W5), (6, W6)])
def test_small_weight_tables(w, table):
    assert [format_composition(c) for c in enumerate_weight(w)] == table


@pytest.mark.parametrize(
    "a,b,rel",
    [
        ((4, 1), (3, 2), LESS),       # depth ties, heights 1 < 2
        ((2, 2, 1), (2, 1, 2), LESS),  # 1-placements (0,1) beat (1,0) revlex
        ((3, 2), (2, 3), LESS),        # a-vectors (3,2) beat (2,3) lex
        ((5,), (2, 1, 1, 1), LESS),    # depth dominates
        ((2, 2), (2, 2), EQUAL),
        ((2, 3), (3, 2), GREATER),
    ],
)
def test_compare(a, b, rel):
    assert compare(Composition(a), Composition(b)) == rel


def test_compare_rejects_unequal_weights():
    with pytest.raises(ValueError, match="different weights"):
        compare(Composition((3,)), Composition((2, 2)))


def test_counts():
    for w in range(2, 13):
        comps = enumerate_weight(w)
        assert len(comps) == 2 ** (w - 2)
        assert len(set(comps)) == len(comps)
    assert len(enumerate_weight(10)) == 256


def test_enumerate_rejects_small_weight():
    with pytest.raises(ValueError):
        enumerate_weight(1)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("call, weight", [
    (enumerate_weight, 6.0),
    (positions, 6.0),
    (by_code, 6.0),
    (engine.generate_relations, 7.0),
])
def test_non_integer_weight_rejected(monkeypatch, warm, call, weight):
    # the same TypeError whether or not the int weight is memoised, where
    # the float would find it (6.0 == 6 and hash(6.0) == hash(6))
    monkeypatch.setattr(ordering, "_enum_cache", {})
    monkeypatch.setattr(ordering, "_index_cache", {})
    if warm:
        positions(int(weight))
    with pytest.raises(TypeError, match=f"a weight is an int, got {weight}"):
        call(weight)


def test_positions():
    for w in range(2, 15):
        comps = enumerate_weight(w)
        table = positions(w)
        assert list(table) == list(comps)
        assert list(table.values()) == list(range(len(comps)))
        assert all(comps[table[tuple(c)]] is c for c in comps)


def test_by_code():
    for w in range(2, 15):
        comps = enumerate_weight(w)
        table = by_code(w)
        assert list(table.values()) == list(comps)
        assert all(table[_encode_int(c)] is c for c in comps)
    # a divergent code, or one of another weight, decodes and is not stored
    for c in [Composition((1, 2, 1)), Composition((2, 2))]:
        assert by_code(5)[_encode_int(c)] == c
    assert len(by_code(5)) == 8


def test_relation_terms_follow_a_refill(monkeypatch):
    monkeypatch.setattr(ordering, "_enum_cache", {})
    monkeypatch.setattr(ordering, "_index_cache", {})
    old = enumerate_weight(9)
    positions(9)
    by_code(9)
    del ordering._enum_cache[9]  # as test_concurrency.py does
    comps = enumerate_weight(9)
    assert comps is not old
    own = {id(c) for c in comps}
    for rs in (engine.generate_relations(9, include_duality=True),
               engine.generate_relations(9, mode="oracle")):
        assert all(id(t) in own for r in rs.relations for t, _ in r.body.items())


def test_strictly_increasing():
    for w in range(2, 11):
        comps = enumerate_weight(w)
        keys = [order_key(c) for c in comps]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)  # injective: ties impossible


def _brute_force(w):
    """Every convergent composition of w, unordered: one per set of cuts
    among the w - 1 gaps of w units, the first gap never cut."""
    for cuts in itertools.product((False, True), repeat=w - 2):
        entries, run = [], 2
        for cut in cuts:
            if cut:
                entries.append(run)
                run = 0
            run += 1
        yield Composition(entries + [run])


def _reference_key(c):
    """The order's definition over the block form (a_i, b_i)."""
    f = to_ab(c)
    return (
        c.depth,
        c.height,
        tuple(-b for _, b in reversed(f)),
        tuple(-a for a, _ in f),
    )


def test_enumeration_matches_definition():
    for w in range(2, 17):
        assert enumerate_weight(w) == tuple(sorted(_brute_force(w), key=_reference_key))


def test_order_key_matches_definition():
    for w in range(2, 15):
        for c in _brute_force(w):
            assert order_key(c) == _reference_key(c)


def test_order_key_accepts_tuple_and_list():
    key = order_key(Composition((2, 1, 3)))
    assert order_key([2, 1, 3]) == key
    assert order_key((2, 1, 3)) == key
    for bad in ((1, 2), ()):
        with pytest.raises(NotConvergentError):
            order_key(bad)


def test_inductive_structure():
    # bumping the last entry or appending a 1 produces weight w+1, each
    # exactly once, jointly exhausting it
    for w in range(2, 12):
        grown = set()
        for c in enumerate_weight(w):
            for child in (Composition(c[:-1] + (c[-1] + 1,)), Composition(c + (1,))):
                assert child not in grown
                grown.add(child)
        assert grown == set(enumerate_weight(w + 1))


def test_index_of():
    assert index_of(Composition((4,))) == 0
    assert index_of(Composition((2, 1, 1))) == 3
    assert index_of(Composition((2, 1, 2))) == 6
    for w in range(2, 9):
        for i, c in enumerate(enumerate_weight(w)):
            assert index_of(c) == i


def test_total_antisymmetric():
    for w in range(3, 9):
        comps = enumerate_weight(w)
        for c1, c2 in itertools.combinations(comps, 2):
            r = compare(c1, c2)
            assert r in (LESS, GREATER)
            assert compare(c2, c1) == -r
        for c in comps:
            assert compare(c, c) == EQUAL


def test_transitive_small():
    for w in range(3, 7):
        comps = enumerate_weight(w)
        for a, b, c in itertools.permutations(comps, 3):
            if compare(a, b) == LESS and compare(b, c) == LESS:
                assert compare(a, c) == LESS


def test_transitive_sampled():
    rng = random.Random(7)
    for w in (8, 9, 10):
        comps = enumerate_weight(w)
        for _ in range(2000):
            a, b, c = (rng.choice(comps) for _ in range(3))
            if compare(a, b) != GREATER and compare(b, c) != GREATER:
                assert compare(a, c) != GREATER
