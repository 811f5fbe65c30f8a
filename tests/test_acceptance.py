"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All bounds are fixed here, not tuned at runtime.
"""

import itertools
import random
import time
from dataclasses import replace
from fractions import Fraction
from math import comb

from polyzeta.closedforms import (
    LEFT_FACTORS,
    closed_dsr,
    closed_shuffle,
    closed_stuffle,
)
from polyzeta.core import (
    Composition,
    dual,
    decode_word,
    encode_word,
    format_composition,
    is_self_dual,
    signature,
)
from polyzeta.counting import family_term_counts, hoffman_dim, is_hoffman, n_total, n_wd
from polyzeta.engine import (
    expected_relation_count,
    generate_relations,
    hoffman_reduce,
    verify_numeric,
)
from polyzeta.numeric import eval_mzv
from polyzeta.oracle import LinComb, dsr, shuffle, stuffle
from polyzeta.ordering import EQUAL, GREATER, LESS, compare, enumerate_weight

C = Composition


def report(n, label, started):
    print(f"ACCEPTANCE {n}: PASS - {label} ({time.time() - started:.1f}s)")


def test_criterion_1_paper_examples():
    """Worked expansions, duality lists, orderings, counting tables; < 1 s."""
    t0 = time.time()
    assert stuffle(C((1,)), C((4, 1, 1))) == LinComb(
        {C((5, 1, 1)): 1, C((4, 2, 1)): 1, C((4, 1, 2)): 1,
         C((1, 4, 1, 1)): 1, C((4, 1, 1, 1)): 3}
    )
    assert shuffle(C((1,)), C((3, 1, 4, 1))) == LinComb(
        {C((3, 1, 1, 4, 1)): 3, C((3, 1, 4, 1, 1)): 3, C((1, 3, 1, 4, 1)): 1,
         C((2, 2, 1, 4, 1)): 1, C((3, 1, 3, 2, 1)): 1, C((3, 1, 2, 3, 1)): 1}
    )
    duality_lists = {
        3: {(3,): (2, 1)},
        4: {(4,): (2, 1, 1), (2, 2): (2, 2)},
        5: {(5,): (2, 1, 1, 1), (4, 1): (3, 1, 1), (3, 2): (2, 2, 1), (2, 3): (2, 1, 2)},
        6: {(6,): (2, 1, 1, 1, 1), (5, 1): (3, 1, 1, 1), (4, 2): (2, 2, 1, 1),
            (3, 3): (2, 1, 2, 1), (2, 4): (2, 1, 1, 2), (3, 1, 2): (2, 3, 1)},
    }
    for w, pairs in duality_lists.items():
        for a, b in pairs.items():
            assert dual(C(a)) == C(b)
        # and these pairs exhaust the weight (each polyzeta in some pair)
        listed = set()
        for a, b in pairs.items():
            listed.update({C(a), C(b)})
        assert listed == {
            c for c in enumerate_weight(w)
            if c in listed or dual(c) in listed
        }
    orderings = {
        3: ["3", "2,1"],
        4: ["4", "3,1", "2,2", "2,1^2"],
        5: ["5", "4,1", "3,2", "2,3", "3,1^2", "2,2,1", "2,1,2", "2,1^3"],
    }
    for w, table in orderings.items():
        assert [format_composition(c) for c in enumerate_weight(w)] == table
    rows = {
        6: [1, 4, 6, 4, 1],
        7: [1, 5, 10, 10, 5, 1],
        8: [1, 6, 15, 20, 15, 6, 1],
        9: [1, 7, 21, 35, 35, 21, 7, 1],
        10: [1, 8, 28, 56, 70, 56, 28, 8, 1],
    }
    for w, row in rows.items():
        assert [n_wd(w, d) for d in range(1, w)] == row
        assert n_total(w) == sum(row)
    assert [n_total(w) for w in (6, 7, 8, 9, 10)] == [16, 32, 64, 128, 256]
    assert time.time() - t0 < 1.0
    report(1, "worked expansions, duality lists, orderings, counting tables", t0)


def test_criterion_2_closed_equals_oracle():
    """Exhaustive sweep weight(z) + weight(g) <= 12, all twelve forms."""
    t0 = time.time()
    checked = 0
    for g, gc in LEFT_FACTORS.items():
        for wz in range(2, 13 - gc.weight):
            for z in enumerate_weight(wz):
                assert closed_stuffle(g, z) == stuffle(gc, z), (g, "stuffle", z)
                assert closed_shuffle(g, z) == shuffle(gc, z), (g, "shuffle", z)
                assert closed_dsr(g, z) == dsr(gc, z), (g, "dsr", z)
                checked += 3
    assert time.time() - t0 < 600
    report(2, f"closed forms == oracle on {checked} products up to total weight 12", t0)


def test_criterion_3_regularization_cancellation():
    """dsr((1), z) carries no divergent term for all z of weight <= 11."""
    t0 = time.time()
    for wz in range(2, 12):
        for z in enumerate_weight(wz):
            body = dsr(C((1,)), z)  # raises on any divergent residue
            assert not body.has_divergent()
            assert not closed_dsr("1", z).has_divergent()
    report(3, "no divergent residue in the regularized relations to weight 11", t0)


def test_criterion_4_counting_identities():
    """Six-family totals, relation-set sizes, shuffle mass on random pairs."""
    t0 = time.time()
    for wz in range(2, 13):
        for z in enumerate_weight(wz):
            w = wz + 2
            assert family_term_counts(z).total == w * (w - 1) // 2
    for w in range(5, 13):
        assert len(generate_relations(w)) == expected_relation_count(w) == 2 ** (w - 2)
    rng = random.Random(20240915)
    pool = [c for w in range(2, 13) for c in enumerate_weight(w)]
    pairs = 0
    while pairs < 40:
        x, y = rng.choice(pool), rng.choice(pool)
        if x.weight + y.weight > 14:
            continue
        assert shuffle(x, y).mass() == comb(x.weight + y.weight, x.weight)
        pairs += 1
    report(4, "six-family totals, relation counts 5..12, shuffle masses", t0)


def test_criterion_5_rank_dimension():
    """Exact ranks and Hoffman free sets for w = 4..12; every duality
    relation maps to zero through the certified table, so it lies in the
    row space of the four families and cannot change the rank."""
    t0 = time.time()
    for w in range(4, 13):
        rep = hoffman_reduce(w)
        assert rep.rank == 2 ** (w - 2) - hoffman_dim(w), w
        assert rep.ok, rep.as_dict()
        assert all(is_hoffman(c) for c in rep.free_columns)
        duals = generate_relations(w, families=(), include_duality=True).relations
        assert duals
        for d in duals:
            assert not rep.result.substitute(d.body), (w, d.source)
    assert time.time() - t0 < 300
    report(5, "ranks 4..12 all equal 2^(w-2) - delta_w; duality relations in the row space", t0)


def test_criterion_6_numeric_referee():
    """Proven residual bounds: relations at w <= 10, Euler, the w=4
    reduction table, and a relation perturbed by 1e-12 is caught."""
    t0 = time.time()
    worst = 0.0
    for w in range(4, 11):
        rep = verify_numeric(generate_relations(w), 1e-12)
        assert rep.ok, rep.failures
        worst = max(worst, max(r for _, _, r in rep.residuals))
    euler = eval_mzv(C((2, 1)), 1e-6).value - eval_mzv(C((3,)), 1e-6).value
    assert abs(euler) <= 1e-6
    rep4 = hoffman_reduce(4)
    for piv, expr in rep4.result.table.items():
        lhs = eval_mzv(piv, 1e-4).value
        rhs = sum(float(x) * eval_mzv(f, 1e-4).value for f, x in expr.items())
        assert abs(lhs - rhs) <= 1e-4, piv
    rs = generate_relations(6)
    rel = next(r for r in rs.relations if len(r.body) > 2)
    term, _ = next(rel.body.items())
    bad = replace(rel, body=rel.body + LinComb({term: Fraction(1, 10**12)}))
    rep = verify_numeric(replace(rs, relations=[rel, bad]), 1e-15)
    assert [(f, s) for f, s, _ in rep.failures] == [(bad.family, bad.source)]
    assert time.time() - t0 < 120
    report(6, f"relations at w<=10 vanish (worst ratio {worst:.1e} at tol 1e-12), "
              f"Euler residual {abs(euler):.1e}, w=4 table confirmed, "
              f"a 1e-12 perturbation caught at tol 1e-15", t0)


def test_criterion_7_structural_invariants():
    """Duality, encoding, ordering laws at their stated exhaustive ranges."""
    t0 = time.time()
    even_selfdual_only = True
    for w in range(2, 15):
        for c in enumerate_weight(w):
            assert dual(dual(c)) == c
            ww, d, h = signature(c)
            wd, dd, hd = signature(dual(c))
            assert (wd, dd, hd) == (ww, ww - d, h)
            v = encode_word(c)
            assert v.admissible() and decode_word(v) == c
            if is_self_dual(c) and w % 2 == 1:
                even_selfdual_only = False
    assert even_selfdual_only
    for w in range(2, 11):
        comps = enumerate_weight(w)
        assert len(comps) == 2 ** (w - 2)
        for c1, c2 in itertools.combinations(comps, 2):
            r = compare(c1, c2)
            assert r in (LESS, GREATER)
            assert compare(c2, c1) == -r
        for c in comps:
            assert compare(c, c) == EQUAL
    # transitivity: exhaustive at small weights, sampled above
    for w in range(3, 7):
        comps = enumerate_weight(w)
        for a, b, c in itertools.permutations(comps, 3):
            if compare(a, b) == LESS and compare(b, c) == LESS:
                assert compare(a, c) == LESS
    rng = random.Random(11)
    for w in (8, 9, 10):
        comps = enumerate_weight(w)
        for _ in range(4000):
            a, b, c = (rng.choice(comps) for _ in range(3))
            if compare(a, b) != GREATER and compare(b, c) != GREATER:
                assert compare(a, c) != GREATER
    assert time.time() - t0 < 60
    report(7, "duality involution + signature law + encoding bijection to w=14, "
              "order laws to w=10", t0)
