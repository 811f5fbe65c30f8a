import hashlib
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyzeta import cli, closedforms, engine
from polyzeta.cli import main
from polyzeta.closedforms import LEFT_FACTORS
from polyzeta.core import Composition, dual, format_composition
from polyzeta.counting import hoffman_dim, is_hoffman
from polyzeta.engine import (
    PRIMES,
    RationalMatrix,
    Relation,
    RelationSet,
    assemble_matrix,
    exact_rref,
    expected_relation_count,
    generate_relations,
    hoffman_reduce,
    reduce_relations,
    verify_numeric,
)
from polyzeta.numeric import ToleranceUnreachable, eval_mzv
from polyzeta.oracle import InternalConsistencyError
from polyzeta.ordering import enumerate_weight, order_key, positions

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
    """exact_rref agrees with naive_rref; returns the ReductionResult."""
    cols = tuple(enumerate_weight((ncols - 1).bit_length() + 2))[:ncols]
    m = RationalMatrix(cols[0].weight, cols, sparse(rows))
    red = exact_rref(m)
    pivots, table = naive_rref(rows, ncols)
    assert red.rank == len(pivots)
    assert [cols[c] for c in pivots] == red.pivot_columns
    assert red.free_columns == [c for k, c in enumerate(cols) if k not in pivots]
    assert red.table == {
        cols[c]: {cols[j]: x for j, x in sorted(expr.items())}
        for c, expr in table.items()
    }
    return red


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

    @pytest.mark.parametrize("w", range(2, 13))
    def test_duality_pairs_match_brute_force(self, w):
        # one relation per unordered non-self-dual pair, sourced at the
        # member that order_key puts first
        pairs = {tuple(sorted({z, dual(z)}, key=order_key)) for z in enumerate_weight(w)}
        want = sorted((p for p in pairs if len(p) == 2), key=lambda p: order_key(p[0]))
        rs = generate_relations(w, families=(), include_duality=True)
        assert [(r.family, r.source, r.body.terms()) for r in rs.relations] == [
            ("duality", a, {a: 1, b: -1}) for a, b in want
        ]

    def test_families_named_once(self):
        with pytest.raises(ValueError, match="relation family '1' given more than once"):
            generate_relations(5, families=("1", "2", "1"))
        with pytest.raises(TypeError, match="not the str '21'"):
            generate_relations(9, families="21")

    def test_modes_agree(self):
        for w in range(4, 14):
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

    def test_divergent_residue_is_an_inconsistency(self, monkeypatch, tmp_path, capsys):
        # a (1) generator that keeps the divergent front unit, which the
        # dsr must cancel, is caught where the body is summed
        real = closedforms._GENERATORS[("1", "dsr")]

        def dsr_1_with_front(e):
            real(e)
            e.family("1->front", 1, 0, ((1,) + e.z, 1))

        monkeypatch.setitem(closedforms._GENERATORS, ("1", "dsr"), dsr_1_with_front)
        with pytest.raises(InternalConsistencyError, match="divergent residue"):
            generate_relations(5, ("1",))
        code = main(["relations", "--weight", "5", "--families", "1",
                     "--data-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 3 and "Traceback" not in err
        assert err.startswith("internal inconsistency: ") and err.count("\n") == 1

    @pytest.mark.parametrize("w", range(3, 13))
    def test_terms_are_the_enumerations_own(self, monkeypatch, tmp_path, w):
        own = {id(c) for c in enumerate_weight(w)}
        sets = [generate_relations(w), generate_relations(w, mode="oracle"),
                generate_relations(w, include_duality=True)]
        # the same set read back from a warm --data-dir entry
        args = SimpleNamespace(weight=w, families=tuple(LEFT_FACTORS), duality=True,
                               data_dir=str(tmp_path))
        cli._load_or_generate(args)
        monkeypatch.setattr(cli, "generate_relations", None)  # a miss would now raise
        sets.append(cli._load_or_generate(args))
        for rs in sets:
            assert all(id(t) in own for r in rs.relations for t, _ in r.body.items())

    def test_term_outside_the_enumeration_is_an_inconsistency(self, monkeypatch, capsys):
        # a planted body term of the right weight that no polyzeta of it is
        real = closedforms._GENERATORS[("2", "dsr")]

        def dsr_2_planted(e):
            real(e)
            e.terms.append(((1,) * (2 + sum(e.z)), 1))

        monkeypatch.setitem(closedforms._GENERATORS, ("2", "dsr"), dsr_2_planted)
        with pytest.raises(InternalConsistencyError, match=r"\(1\^5\) is not a convergent"):
            generate_relations(5)
        code = main(["reduce", "--weight", "5"])
        captured = capsys.readouterr()
        assert code == 3 and not captured.out and "Traceback" not in captured.err
        assert captured.err.startswith("internal inconsistency: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("mode", ["closed", "oracle"])
    @pytest.mark.parametrize("w", [9, 10])
    def test_no_composition_per_term(self, monkeypatch, w, mode):
        # bodies are summed over plain tuples, and each summed term is the
        # enumeration's own object: once it is built, no Composition is made
        for k in range(2, w + 1):
            positions(k)
        made = []
        make = Composition._make

        def counting_make(cls, entries):
            made.append(entries)
            return make(entries)

        monkeypatch.setattr(Composition, "_make", classmethod(counting_make))
        rs = generate_relations(w, mode=mode)
        assert len(rs) == expected_relation_count(w) and made == []

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
            shuffled = RationalMatrix(m.weight, m.columns, rows)
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
        # the first prime never certifies, and the second one does
        p = PRIMES[0]
        for rows in (
            # 1 + p makes the first row equal the second mod p: rank 2, not 3
            [[1 + p, 1, 0, 2], [1, 1, 0, 2], [0, 0, 3, 1]],
            # rows proportional mod p only: rank 1, not 2
            [[1, 2, 3], [2, 4 + p, 6]],
            # a multiple of p: the whole first column vanishes mod p, and
            # the rank stays 2 with pivots [1, 2] instead of [0, 1]
            [[p, 1, 0], [0, 1, 1], [0, 2, 2]],
            # full rank, pivots [1, 2] instead of [0, 1], with 130-bit
            # entries: the lifted table maps every row to zero, and only the
            # echelon part of the certificate rejects it
            [[3 * p, 0, 2**130 + 1], [0, 5, 7]],
        ):
            red = assert_matches_naive(rows, len(rows[0]))
            assert red.primes == PRIMES[:2]
            assert len(red.lift_steps) == 2

    def test_primes_exhausted_raises(self):
        # every prime sees rank 1 where the rank over Q is 2: the table is
        # never certified, so none is returned
        big = math.prod(PRIMES)
        cols = tuple(enumerate_weight(4))
        m = RationalMatrix(4, cols, sparse([[big, 1], [0, 1]]))
        with pytest.raises(InternalConsistencyError):
            exact_rref(m)

    def test_table_lifted_from_several_primes(self):
        # numerators and denominators of about 400 (800) bits need 27 (53)
        # p-adic digits before they reconstruct, and the lift stops there
        for big, steps in ((3 ** 250, 27), (3 ** 500, 53)):
            red = assert_matches_naive([[big + 1, 0, 7], [0, 5, big - 2]], 3)
            assert red.primes == PRIMES[:1]
            assert red.lift_steps == (steps,)

    def test_primes_are_distinct_primes(self):
        assert len(set(PRIMES)) == len(PRIMES) == 4
        assert all(p < 2**30 for p in PRIMES)
        rng = random.Random(0)
        for p in PRIMES:
            # Miller-Rabin, 40 rounds: p - 1 = d * 2^s with d odd
            s = ((p - 1) & (1 - p)).bit_length() - 1
            d = (p - 1) >> s
            for _ in range(40):
                x = pow(rng.randrange(2, p - 1), d, p)
                if x in (1, p - 1):
                    continue
                for _ in range(s - 1):
                    x = x * x % p
                    if x == p - 1:
                        break
                else:
                    pytest.fail(f"2^30 - {2**30 - p} is composite")

    def test_fractional_rows(self):
        m = RationalMatrix(
            weight=4,
            columns=tuple(enumerate_weight(4)),
            rows=[
                {0: Fraction(1, 2), 1: Fraction(1, 3)},
                {0: Fraction(1, 2), 1: Fraction(1, 3), 3: Fraction(5)},
            ],
        )
        red = exact_rref(m)
        assert red.rank == 2
        assert red.table[C((4,))] == {C((3, 1)): Fraction(-2, 3)}


class TestCertify:
    """``engine._certify`` on its own: the echelon part and the zero part."""

    @staticmethod
    def indexed_w8():
        """The w=8 four-family relations as integer rows and their table,
        both by column index of the assembled order."""
        m = assemble_matrix(generate_relations(8))
        col = {c: k for k, c in enumerate(m.columns)}
        table = {
            col[c]: {col[f]: x for f, x in expr.items()}
            for c, expr in exact_rref(m).table.items()
        }
        rows = []
        for row in m.rows:
            den = math.lcm(*(Fraction(x).denominator for x in row.values()))
            rows.append({j: int(x * den) for j, x in row.items()})
        return rows, table

    def test_two_denominators(self):
        q = Fraction
        rows = [{0: 2, 2: 1}, {1: 3, 3: 1}]
        assert engine._certify(rows, {0: {2: q(-1, 2)}, 1: {3: q(-1, 3)}})

    def test_w8_table(self):
        assert engine._certify(*self.indexed_w8())

    def test_moved_entry_is_rejected(self):
        rows, table = self.indexed_w8()
        entries = [(c, j) for c, expr in table.items() for j in expr]
        for seed in range(4):
            c, j = random.Random(seed).choice(entries)
            moved = {p: dict(expr) for p, expr in table.items()}
            moved[c][j] += Fraction(1, 691)
            assert not engine._certify(rows, moved)

    def test_row_outside_the_row_space_is_rejected(self):
        rows, table = self.indexed_w8()
        free = min(j for j in range(len(enumerate_weight(8))) if j not in table)
        assert not engine._certify([*rows, {free: 1}], table)

    def test_table_not_in_echelon_form_is_rejected(self):
        # the row maps to zero through the table, but pivot 1 names the
        # free column 0 on its left
        assert not engine._certify([{0: 1, 1: 1}], {1: {0: Fraction(-1)}})

    def test_table_naming_a_pivot_is_rejected(self):
        # pivot 0 names pivot 1, which is not a free column
        rows = [{0: 1, 1: 1, 2: -1}, {1: 1, 2: 1}]
        table = {0: {1: Fraction(-1), 2: Fraction(1)}, 1: {2: Fraction(-1)}}
        assert not engine._certify(rows, table)

    @pytest.mark.parametrize("e", (8, 61, 300))
    def test_carry_between_slots_is_rejected(self, e):
        # a row leaves -2^e in one free column and 1 in the next (both ways
        # round), so its packed sum would be 0 if a slot were e bits wide;
        # M*L is at least 2^e and needs e + 1 bits
        q = Fraction
        for rows, table in (
            ([{0: 1}], {0: {2: q(-2**e), 3: q(1)}}),
            ([{0: 1}], {0: {2: q(1), 3: q(-2**e)}}),
            ([{0: 1, 1: 1}], {0: {2: q(-2**(e - 1)), 3: q(1)}, 1: {2: q(-2**(e - 1))}}),
            ([{0: 3}], {0: {2: q(-2**e, 3), 3: q(1, 3)}}),
        ):
            assert not engine._certify(rows, table)

    def test_entries_of_several_hundred_bits(self):
        rng = random.Random(5)
        a, b, c, d, e = (rng.getrandbits(400) | 1 << 399 for _ in range(5))
        rows = [{0: a, 2: b}, {1: c, 2: d, 3: e}, {0: 2 * a, 2: 2 * b}]
        table = {0: {2: Fraction(-b, a)}, 1: {2: Fraction(-d, c), 3: Fraction(-e, c)}}
        assert max(x.denominator.bit_length() for x in table[1].values()) > 350
        assert engine._certify(rows, table)
        table[1][3] += Fraction(1, 691)
        assert not engine._certify(rows, table)


class TestHoffmanReduce:
    @pytest.mark.parametrize("w", range(4, 9))
    def test_rank_and_free_set(self, w):
        rep = hoffman_reduce(w)
        assert rep.ok
        assert rep.rank == 2 ** (w - 2) - hoffman_dim(w)
        assert all(is_hoffman(c) for c in rep.free_columns)
        assert len(rep.free_columns) == hoffman_dim(w)
        assert rep.result.primes == PRIMES[:1]

    def test_weight_five_free_set(self):
        rep = hoffman_reduce(5)
        assert rep.rank == 6
        assert sorted(rep.free_columns) == [C((2, 3)), C((3, 2))]

    def test_duality_does_not_change_rank_small(self):
        for w in (5, 6, 7):
            with_duality = reduce_relations(generate_relations(w, include_duality=True))
            assert hoffman_reduce(w).rank == with_duality.rank

    @pytest.mark.parametrize("w", (9, 10, 11))
    def test_golden_table_digest(self, w):
        want = json.loads(GOLDEN.read_text())["tables"][str(w)]
        red = hoffman_reduce(w).result
        assert red.primes == PRIMES[:1]
        table = red.table
        doc = {
            format_composition(p): {
                format_composition(f): [str(x.numerator), str(x.denominator)]
                for f, x in expr.items()
            }
            for p, expr in table.items()
        }
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == want

    @pytest.mark.parametrize("w, free, table", [
        (2, [(2,)], {}),
        (3, [(3,)], {(2, 1): {(3,): 1}}),
    ])
    def test_weights_two_and_three(self, w, free, table):
        # w=2 has no relations at all; w=3 has one, zeta(2,1) = zeta(3)
        rep = reduce_relations(generate_relations(w))
        assert rep.rank == rep.expected_rank == 2 ** (w - 2) - hoffman_dim(w)
        assert rep.free_columns == [C(f) for f in free]
        assert rep.result.table == {
            C(p): {C(f): Fraction(x) for f, x in expr.items()} for p, expr in table.items()
        }
        assert rep.ok

    def test_weight_below_two_rejected(self):
        with pytest.raises(ValueError):
            hoffman_reduce(1)

    @pytest.mark.parametrize("w", (7, 8, 9))
    def test_table_invariant_under_non_hoffman_order(self, w):
        # with the {2,3} columns last, N = the other columns comes out all
        # pivots in any order, and then the table cannot depend on it
        m = assemble_matrix(generate_relations(w), hoffman_last=True)
        n = sum(not is_hoffman(c) for c in m.columns)
        natural = exact_rref(m)
        assert natural.pivot_columns == list(m.columns[:n])
        rng = random.Random(w)
        for _ in range(3):
            order = rng.sample(range(n), n) + list(range(n, len(m.columns)))
            position = {k: i for i, k in enumerate(order)}
            red = exact_rref(RationalMatrix(
                w,
                tuple(m.columns[k] for k in order),
                [{position[j]: x for j, x in row.items()} for row in m.rows],
            ))
            assert sorted(red.pivot_columns, key=m.columns.index) == natural.pivot_columns
            assert red.free_columns == natural.free_columns
            assert red.table == natural.table

    @pytest.mark.parametrize("families, duality", [
        (tuple(LEFT_FACTORS), False),
        (("1",), False),
        (tuple(LEFT_FACTORS), True),
    ], ids=("four-families", "family-1", "duality"))
    def test_one_elimination_per_reduction(self, monkeypatch, families, duality):
        calls = []

        def spy(m, order=None):
            calls.append(m.shape)
            return exact_rref(m, order)

        monkeypatch.setattr(engine, "exact_rref", spy)
        rs = generate_relations(6, families, duality)
        rep = reduce_relations(rs)
        assert calls == [assemble_matrix(rs).shape]
        # family 1 alone leaves non-{2,3} columns free, and still one run
        assert bool(rep.non_hoffman_free) == (families == ("1",))

    def test_fractional_body_reduces_as_the_integer_one(self):
        # a row of Fractions is scaled to integers; the reduction is the same
        rs = generate_relations(8)
        first, *rest = rs.relations
        first = Relation(Fraction(1, 3) * first.body, first.family, first.source)
        assert any(type(x) is Fraction for x in first.body.terms().values())
        plain = reduce_relations(rs)
        scaled = reduce_relations(RelationSet(8, [first, *rest], rs.families, rs.duality))
        assert scaled.rank == plain.rank and scaled.free_columns == plain.free_columns
        assert reduce_digest(scaled) == reduce_digest(plain)  # the table, in order

    def test_lift_gets_the_matrix_rows(self, monkeypatch):
        # the rows of ints that reduce_relations builds are the only copy:
        # exact_rref hands the matrix's own dicts to the lift
        seen, lift_ = {}, engine._lift

        def rref(m, order=None):
            seen["matrix"] = m.rows
            return exact_rref(m, order)

        def lift(rows, pivots, ncols, p):
            seen["lifted"] = rows
            return lift_(rows, pivots, ncols, p)

        monkeypatch.setattr(engine, "exact_rref", rref)
        monkeypatch.setattr(engine, "_lift", lift)
        reduce_relations(generate_relations(8))
        assert len(seen["lifted"]) == len(seen["matrix"]) == expected_relation_count(8)
        assert all(a is b for a, b in zip(seen["lifted"], seen["matrix"]))

    @staticmethod
    def count_calls(monkeypatch, *names):
        """Count the calls of engine functions, and keep what they return."""
        seen = {name: [] for name in names}
        for name in names:
            def counted(*args, real=getattr(engine, name), name=name):
                seen[name].append(real(*args))
                return seen[name][-1]
            monkeypatch.setattr(engine, name, counted)
        return seen

    @pytest.mark.parametrize("w", range(4, 11))
    def test_fill_order_keeps_the_table(self, monkeypatch, w):
        # the four families, factored in the fill-reducing order, give the
        # report and table, in order, of exact_rref on the same rows over
        # N by (depth descending, entries ascending), then the {2,3} block
        rs = generate_relations(w)
        seen = self.count_calls(monkeypatch, "_factor")
        shipped = reduce_relations(rs)
        assert len(seen["_factor"]) == 1  # kept, not factored again

        def in_the_defining_order(m, order):
            cols = tuple(m.columns[k] for k in order)
            non = [c for c in enumerate_weight(w) if not is_hoffman(c)]
            hoff = [c for c in enumerate_weight(w) if is_hoffman(c)]
            assert cols == tuple(sorted(non, key=lambda c: (-len(c), c)) + hoff)
            at = {k: i for i, k in enumerate(order)}
            return exact_rref(RationalMatrix(
                m.weight, cols, [{at[j]: x for j, x in row.items()} for row in m.rows]
            ))

        monkeypatch.setattr(engine, "exact_rref", in_the_defining_order)
        defining = reduce_relations(rs)
        assert len(seen["_factor"]) == 2
        assert defining.result.pivot_columns == shipped.result.pivot_columns
        assert defining.free_columns == shipped.free_columns
        assert reduce_digest(defining) == reduce_digest(shipped)  # the table, in order

    @pytest.mark.parametrize("w, families", [(6, ("1",)), (8, ("2", "3"))])
    def test_other_pivots_factor_again(self, monkeypatch, w, families):
        # N does not come out all pivots: the rows are factored once more
        # in the defining order, and lifted once
        seen = self.count_calls(monkeypatch, "_factor", "_lift")
        rep = reduce_relations(generate_relations(w, families))
        assert rep.non_hoffman_free
        assert len(seen["_factor"]) == 2 and len(seen["_lift"]) == 1

    @pytest.mark.parametrize("w, l_max, u_max", [(10, 3008, 4060), (11, 12362, 13099)])
    def test_fill_of_the_elimination_order(self, monkeypatch, w, l_max, u_max):
        # the L and U entries of the one factorization of the four
        # families; a column order that adds work fails here
        seen = self.count_calls(monkeypatch, "_factor")
        reduce_relations(generate_relations(w))
        (pivots,) = seen["_factor"]
        assert sum(len(piv.mults) for piv in pivots) <= l_max
        assert sum(len(piv.upper) for piv in pivots) <= u_max

    @pytest.mark.parametrize("duality", (False, True))
    @pytest.mark.parametrize("w", range(5, 9))
    def test_family_subsets_reduce_consistently(self, w, duality):
        # whatever free set the elimination order picks for a rank-deficient
        # subset, the report must be a valid reduction of its relations
        cols = enumerate_weight(w)
        for k in range(1, len(LEFT_FACTORS)):
            for families in itertools.combinations(LEFT_FACTORS, k):
                rs = generate_relations(w, families, duality)
                rep = reduce_relations(rs)
                red = rep.result
                assert all(red.substitute(r.body) == {} for r in rs.relations)
                assert rep.rank == exact_rref(assemble_matrix(rs)).rank == len(red.table)
                assert sorted(red.pivot_columns + rep.free_columns) == sorted(cols)
                assert set(red.pivot_columns) == set(red.table)
                free = set(rep.free_columns)
                assert rep.non_hoffman_free == [c for c in rep.free_columns if not is_hoffman(c)]
                assert rep.missing_hoffman == [c for c in cols if is_hoffman(c) and c not in free]

    def test_failure_is_reported_not_raised(self):
        rep = reduce_relations(generate_relations(6, families=("1",)))
        assert not rep.ok
        assert rep.rank < rep.expected_rank
        doc = rep.as_dict()
        assert doc["ok"] is False


REDUCE_GOLDEN = Path(__file__).resolve().parent / "golden" / "reduce_digests.json"

# case -> (weight, families, duality)
REDUCE_CASES = {
    **{str(w): (w, tuple(LEFT_FACTORS), False) for w in range(9, 14)},
    "8/1": (8, ("1",), False),
    "8/2,3": (8, ("2", "3"), False),
    "8/21": (8, ("21",), False),
    "9+duality": (9, tuple(LEFT_FACTORS), True),
    # tall: rank 448 with 64 free columns, so a lift of many steps
    "11/1,2,3": (11, ("1", "2", "3"), False),
}


def reduce_digest(rep):
    """sha256 over the report and the whole table in its own order: the
    pivots as the table lists them, each with its free columns and
    coefficients as the inner dict lists them."""
    table = [
        [format_composition(p), [[format_composition(f), str(x)] for f, x in expr.items()]]
        for p, expr in rep.result.table.items()
    ]
    doc = {
        "report": rep.as_dict(),
        "pivots": [format_composition(c) for c in rep.result.pivot_columns],
        "table": table,
    }
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


@pytest.mark.parametrize("case", REDUCE_CASES)
def test_reduce_golden(case):
    """Report, pivot order and every table entry in order are frozen for
    the full families at w=9..13, four failing family subsets and the
    duality relations."""
    want = json.loads(REDUCE_GOLDEN.read_text())["digests"][case]
    rs = generate_relations(*REDUCE_CASES[case])
    assert reduce_digest(reduce_relations(rs)) == want


class TestVerifyNumeric:
    def test_unreachable_tolerance_is_a_failure(self, monkeypatch):
        # 1e-3 needs cutoffs near 30; a cap of 8 leaves bounds above it
        def unreachable(term):
            try:
                eval_mzv(term, 1e-3, 8)
            except ToleranceUnreachable:
                return True
            return False

        rs = generate_relations(6)
        monkeypatch.setattr(engine.numeric, "MAX_TERMS", 8)
        rep = verify_numeric(rs, 1e-3)
        want = {(r.family, r.source) for r in rs.relations
                if any(unreachable(t) for t, _ in r.body.items())}
        assert want and want <= {(f, s) for f, s, _ in rep.failures}
        assert len(rep.residuals) == len(rs.relations)
        assert all(math.isfinite(r) for _, _, r in rep.residuals)

    def test_weight_five(self):
        rs = generate_relations(5)
        rep = verify_numeric(rs, 1e-3)
        assert rep.ok
        assert max(r for _, _, r in rep.residuals) <= 1e-3
        assert {family for family, _, _ in rep.residuals} == {"1", "2", "3", "21"}
