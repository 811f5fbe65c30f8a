import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyzeta.core import Composition, format_composition
from polyzeta.counting import hoffman_dim, is_hoffman
from polyzeta.engine import (
    PRIMES,
    RationalMatrix,
    assemble_matrix,
    exact_rref,
    expected_relation_count,
    generate_relations,
    hoffman_reduce,
    verify_numeric,
)
from polyzeta.oracle import InternalConsistencyError
from polyzeta.ordering import enumerate_weight

C = Composition
GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


def sparse(rows):
    """Dense rows -> the sparse rows of a RationalMatrix."""
    return [{j: Fraction(x) for j, x in enumerate(r) if x} for r in rows]


def naive_rref(rows, ncols):
    """Plain rational Gauss-Jordan on dense rows: pivot columns and the
    table {pivot: {free: coefficient}}, by column index."""
    rows = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    table = {}
    for k, c in enumerate(pivots):
        table[c] = {
            j: -rows[k][j]
            for j in range(ncols)
            if j not in pivots and rows[k][j]
        }
    return pivots, table


def assert_matches_naive(rows, ncols):
    cols = tuple(enumerate_weight((ncols - 1).bit_length() + 2))[:ncols]
    m = RationalMatrix(cols[0].weight, cols, sparse(rows), [("t", cols[0])] * len(rows))
    red = exact_rref(m)
    pivots, table = naive_rref(rows, ncols)
    assert red.rank == len(pivots)
    assert [cols[c] for c in pivots] == red.pivot_columns
    assert red.free_columns == [c for k, c in enumerate(cols) if k not in pivots]
    assert red.table == {
        cols[c]: {cols[j]: x for j, x in sorted(expr.items())}
        for c, expr in table.items()
    }


class TestGenerate:
    def test_counts_by_family(self):
        rs = generate_relations(7)
        per = {}
        for r in rs.relations:
            per[r.family] = per.get(r.family, 0) + 1
        assert per == {"1": 16, "2": 8, "3": 4, "21": 4}
        assert len(rs) == 32 == expected_relation_count(7)

    def test_count_law(self):
        for w in range(5, 11):
            assert len(generate_relations(w)) == 2 ** (w - 2)

    def test_small_weight_skips(self):
        rs = generate_relations(4)
        assert {r.family for r in rs.relations} == {"1", "2"}
        assert len(rs.notices) == 2  # 3 and 21 have no sources at weight 4

    def test_weight_five_single_family(self):
        rs = generate_relations(5, families=("1",))
        assert len(rs) == 4

    def test_duality_only_weight_six(self):
        rs = generate_relations(6, families=(), include_duality=True)
        # sixteen polyzetas, four self-dual, six two-element orbits
        assert len(rs) == 6
        for r in rs.relations:
            assert r.family == "duality"
            assert sorted(r.body.terms().values()) == [Fraction(-1), Fraction(1)]

    def test_modes_agree(self):
        for w in range(4, 9):
            ra = generate_relations(w, mode="closed")
            rb = generate_relations(w, mode="oracle")
            assert [(r.family, r.source) for r in ra.relations] == [
                (r.family, r.source) for r in rb.relations
            ]
            for x, y in zip(ra.relations, rb.relations):
                assert x.body == y.body

    def test_no_divergent_terms(self):
        for r in generate_relations(8).relations:
            assert not r.body.has_divergent()

    def test_integer_coefficients(self):
        for r in generate_relations(9).relations:
            assert all(c.denominator == 1 for _, c in r.body.items())


class TestMatrix:
    def test_columns_and_shape(self):
        rs = generate_relations(4)
        m = assemble_matrix(rs)
        assert [format_composition(c) for c in m.columns] == ["4", "3,1", "2,2", "2,1^2"]
        assert m.shape == (3, 4)

    def test_hoffman_last_order(self):
        rs = generate_relations(4)
        m = assemble_matrix(rs, hoffman_last=True)
        assert [format_composition(c) for c in m.columns] == ["4", "3,1", "2,1^2", "2,2"]

    def test_empty_relation_set(self):
        rs = generate_relations(6, families=())
        m = assemble_matrix(rs)
        assert m.shape == (0, 16)
        red = exact_rref(m)
        assert red.rank == 0 and len(red.free_columns) == 16

    def test_entries_match_bodies(self):
        rs = generate_relations(5)
        m = assemble_matrix(rs)
        col = {c: k for k, c in enumerate(m.columns)}
        for row, rel in zip(m.rows, rs.relations):
            for t, c in rel.body.items():
                assert row[col[t]] == c


class TestRref:
    def test_identity_like(self):
        m = RationalMatrix(
            weight=4,
            columns=tuple(enumerate_weight(4)),
            rows=[{0: Fraction(2)}, {2: Fraction(3)}],
            row_meta=[("t", C((4,)))] * 2,
        )
        red = exact_rref(m)
        assert red.rank == 2
        assert [format_composition(c) for c in red.pivot_columns] == ["4", "2,2"]
        assert red.table[C((4,))] == {}

    def test_weight_four_table(self):
        rep = hoffman_reduce(4)
        assert rep.rank == 3
        t = rep.result.table
        q = Fraction
        assert t[C((4,))] == {C((2, 2)): q(4, 3)}
        assert t[C((3, 1))] == {C((2, 2)): q(1, 3)}
        assert t[C((2, 1, 1))] == {C((2, 2)): q(4, 3)}

    def test_resubstitution_is_zero(self):
        for w in (5, 6, 7):
            rs = generate_relations(w)
            red = exact_rref(assemble_matrix(rs, hoffman_last=True))
            for rel in rs.relations:
                assert red.substitute(rel.body) == {}

    def test_rank_invariant_under_row_order(self):
        rs = generate_relations(6)
        m = assemble_matrix(rs)
        base = exact_rref(m).rank
        rng = random.Random(3)
        for _ in range(3):
            rows = m.rows[:]
            rng.shuffle(rows)
            shuffled = RationalMatrix(m.weight, m.columns, rows, m.row_meta)
            assert exact_rref(shuffled).rank == base

    def test_rank_invariant_under_column_block_move(self):
        rs = generate_relations(7)
        a = exact_rref(assemble_matrix(rs, hoffman_last=False)).rank
        b = exact_rref(assemble_matrix(rs, hoffman_last=True)).rank
        assert a == b

    def test_against_plain_gauss_jordan(self):
        # the modular pass must agree with a naive rational RREF on
        # arbitrary (often singular) matrices
        rng = random.Random(99)
        for _ in range(30):
            nrows = rng.randint(1, 6)
            rows = [
                [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(8)]
                for _ in range(nrows)
            ]
            if rng.random() < 0.5 and nrows >= 2:
                rows[-1] = [2 * x for x in rows[0]]  # force a dependency
            assert_matches_naive(rows, 8)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_sparse_random_against_naive(self, data):
        ncols = data.draw(st.integers(1, 16), label="ncols")
        entry = st.fractions(-50, 50, max_denominator=30).filter(bool)
        rows = [
            [r.get(j, Fraction(0)) for j in range(ncols)]
            for r in data.draw(st.lists(
                st.dictionaries(st.integers(0, ncols - 1), entry, max_size=4),
                max_size=12,
            ), label="rows")
        ]
        # rank-deficient: append combinations of the rows drawn so far
        for _ in range(data.draw(st.integers(0, 3), label="dependent")):
            if not rows:
                break
            a, b = data.draw(st.sampled_from(rows)), data.draw(st.sampled_from(rows))
            k = data.draw(st.fractions(-5, 5, max_denominator=7))
            rows.append([x + k * y for x, y in zip(a, b)])
        assert_matches_naive(rows, ncols)

    def test_unlucky_prime(self):
        # 1 + p makes the first row equal the second mod the first prime
        p = PRIMES[0]
        rows = [[1 + p, 1, 0, 2], [1, 1, 0, 2], [0, 0, 3, 1]]
        assert_matches_naive(rows, 4)
        # a multiple of p: the whole first column vanishes mod p
        rows = [[p, 1, 0], [0, 1, 1], [0, 2, 2]]
        assert_matches_naive(rows, 3)

    def test_primes_exhausted_raises(self):
        # every prime sees rank 1 where the rank over Q is 2: the table is
        # never certified, so none is returned
        big = math.prod(PRIMES)
        cols = tuple(enumerate_weight(4))
        m = RationalMatrix(4, cols, sparse([[big, 1], [0, 1]]), [("t", cols[0])] * 2)
        with pytest.raises(InternalConsistencyError):
            exact_rref(m)

    def test_table_lifted_from_several_primes(self):
        # entries of about 400 bits need seven primes before they lift
        big = 3 ** 250
        assert_matches_naive([[big + 1, 0, 7], [0, 5, big - 2]], 3)

    def test_fractional_rows(self):
        m = RationalMatrix(
            weight=4,
            columns=tuple(enumerate_weight(4)),
            rows=[
                {0: Fraction(1, 2), 1: Fraction(1, 3)},
                {0: Fraction(1, 2), 1: Fraction(1, 3), 3: Fraction(5)},
            ],
            row_meta=[("t", C((4,)))] * 2,
        )
        red = exact_rref(m)
        assert red.rank == 2
        assert red.table[C((4,))] == {C((3, 1)): Fraction(-2, 3)}


class TestHoffmanReduce:
    @pytest.mark.parametrize("w", range(4, 9))
    def test_rank_and_free_set(self, w):
        rep = hoffman_reduce(w)
        assert rep.ok
        assert rep.rank == 2 ** (w - 2) - hoffman_dim(w)
        assert all(is_hoffman(c) for c in rep.free_columns)
        assert len(rep.free_columns) == hoffman_dim(w)

    def test_weight_five_free_set(self):
        rep = hoffman_reduce(5)
        assert rep.rank == 6
        assert sorted(rep.free_columns) == [C((2, 3)), C((3, 2))]

    def test_duality_does_not_change_rank_small(self):
        for w in (5, 6, 7):
            assert hoffman_reduce(w).rank == hoffman_reduce(w, include_duality=True).rank

    @pytest.mark.parametrize("w", (9, 10, 11))
    def test_golden_table_digest(self, w):
        want = json.loads(GOLDEN.read_text())["tables"][str(w)]
        table = hoffman_reduce(w).result.table
        doc = {
            format_composition(p): {
                format_composition(f): [str(x.numerator), str(x.denominator)]
                for f, x in expr.items()
            }
            for p, expr in table.items()
        }
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == want

    def test_failure_is_reported_not_raised(self):
        rep = hoffman_reduce(6, families=("1",))
        assert not rep.ok
        assert rep.rank < rep.expected_rank
        doc = rep.as_dict()
        assert doc["ok"] is False


class TestVerifyNumeric:
    def test_weight_five(self):
        rs = generate_relations(5)
        rep = verify_numeric(rs, 1e-3)
        assert rep.ok
        assert max(r for _, _, r in rep.residuals) <= 1e-3
        assert set(rep.worst_by_family) == {"1", "2", "3", "21"}
