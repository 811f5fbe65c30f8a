import dataclasses
import hashlib
import json
import random
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

from polyzeta import closedforms
from polyzeta.cli import main
from polyzeta.closedforms import (
    LEFT_FACTORS,
    PRINT_CORRECTIONS,
    closed_dsr,
    closed_shuffle,
    closed_stuffle,
    closed_terms,
    reconcile,
    reconcile_one,
    sources,
)
from polyzeta.core import Composition, NotConvergentError, Word, decode_word, signature
from polyzeta.counting import family_term_counts
from polyzeta.oracle import LinComb, dsr, shuffle, stuffle
from polyzeta.ordering import enumerate_weight

C = Composition
SIDES = ("stuffle", "shuffle", "dsr")
ORACLE = {"stuffle": stuffle, "shuffle": shuffle, "dsr": dsr}
CLOSED = {"stuffle": closed_stuffle, "shuffle": closed_shuffle, "dsr": closed_dsr}


GOLDEN = Path(__file__).resolve().parent / "golden" / "closed_terms.json"


def sweep(g, side, max_total_weight):
    gw = LEFT_FACTORS[g].weight
    for wz in range(2, max_total_weight - gw + 1):
        yield from enumerate_weight(wz)


class TestAgainstOracle:
    @pytest.mark.parametrize("g", ("1", "2", "3", "21"))
    @pytest.mark.parametrize("side", SIDES)
    def test_matches_oracle(self, g, side):
        op = {"stuffle": closed_stuffle, "shuffle": closed_shuffle, "dsr": closed_dsr}[side]
        for z in sweep(g, side, 10):
            assert op(g, z) == ORACLE[side](LEFT_FACTORS[g], z), (g, side, tuple(z))

    def test_paper_stuffle_example(self):
        got = closed_stuffle("1", C((4, 1, 1)))
        assert got == stuffle(C((1,)), C((4, 1, 1)))
        assert got[C((4, 1, 1, 1))] == 3

    def test_weight_four_dsr(self):
        assert closed_dsr("1", C((2,))) == LinComb({C((2, 1)): 1, C((3,)): -1})
        assert closed_dsr("2", C((2,))) == LinComb({C((3, 1)): 4, C((4,)): -1})

    def test_two_stuffle_example(self):
        assert closed_stuffle("2", C((2,))) == LinComb({C((4,)): 1, C((2, 2)): 2})

    def test_no_divergent_in_dsr(self):
        for g in ("1", "2", "3", "21"):
            for z in sweep(g, "dsr", 9):
                assert not closed_dsr(g, z).has_divergent()


class TestAnnotations:
    @pytest.mark.parametrize("g", ("1", "2", "3", "21"))
    @pytest.mark.parametrize("side", SIDES)
    def test_predicted_signatures(self, g, side):
        for z in sweep(g, side, 9):
            for t in closed_terms(g, side, z):
                comp = t.composition
                assert t.depth == comp.depth
                assert t.height == comp.height

    def test_regularized_family_signatures(self):
        # the four families of the subtracted weight-1 relation sit at
        # (d,h), (d,h+1), (d+1,h), (d+1,h+1)
        for z in sweep("1", "dsr", 9):
            _, d, h = signature(z)
            shifts = {
                (t.depth - d, t.height - h) for t in closed_terms("1", "dsr", z)
            }
            assert shifts <= {(0, 0), (0, 1), (1, 0), (1, 1)}
        # all four realized as soon as some b_j >= 1 and some a_i >= 3
        _, d, h = signature(C((3, 1)))
        shifts = {
            (t.depth - d, t.height - h) for t in closed_terms("1", "dsr", C((3, 1)))
        }
        assert shifts == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_shuffle_depth_law(self):
        for g in ("1", "2", "3", "21"):
            gd = LEFT_FACTORS[g].depth
            for z in sweep(g, "shuffle", 9):
                for t in closed_terms(g, "shuffle", z):
                    assert t.depth == z.depth + gd

    def test_stuffle_depth_range(self):
        for g in ("1", "2", "3", "21"):
            gd = LEFT_FACTORS[g].depth
            for z in sweep(g, "stuffle", 9):
                for t in closed_terms(g, "stuffle", z):
                    assert max(z.depth, gd) <= t.depth <= z.depth + gd


class TestSixFamilies:
    FAMILY_FIELDS = {
        "0->a,1->b": "a_b",
        "0->b1,1->b2": "b1_b2",
        "0->b,1->b(same)": "bb",
        "00->a,1->a": "aa",
        "0->a1,1->a2": "a1_a2",
        "0->b,1->a": "b_a",
    }

    def test_masses_match_counts(self):
        for wz in range(2, 9):
            for z in enumerate_weight(wz):
                counts = family_term_counts(z)
                masses: dict[str, int] = {}
                for t in closed_terms("2", "shuffle", z):
                    masses[t.family] = masses.get(t.family, 0) + t.coeff
                for fam, fieldname in self.FAMILY_FIELDS.items():
                    assert masses.get(fam, 0) == getattr(counts, fieldname), (z, fam)

    def test_family_partition(self):
        # distinct families may only meet on the documented overlap-free
        # boundaries; jointly they rebuild the full product
        for z in enumerate_weight(5):
            assert closed_shuffle("2", z) == shuffle(C((2,)), z)


class TestReconcile:
    @pytest.mark.parametrize("g", LEFT_FACTORS)
    def test_sweep_without_sources_is_refused(self, g):
        least = LEFT_FACTORS[g].weight + 2
        assert reconcile(g, "dsr", least)
        for max_weight in (least - 1, -3):
            with pytest.raises(ValueError, match=f"below {least}"):
                reconcile(g, "dsr", max_weight)

    @pytest.mark.parametrize("call", [
        lambda: reconcile("9", "dsr", 6), lambda: sources("9", 6),
        lambda: reconcile_one("9", "dsr", (2,)), lambda: closed_terms("9", "shuffle", (2,)),
    ], ids=["reconcile", "sources", "reconcile_one", "closed_terms"])
    def test_unknown_left_factor_is_named(self, call):
        with pytest.raises(ValueError, match="unknown left factor key '9'; use one of 1, 2, 3, 21"):
            call()

    @pytest.mark.parametrize("g", LEFT_FACTORS)
    @pytest.mark.parametrize("side", SIDES)
    def test_random_sources_above_the_cap(self, g, side):
        # the exhaustive sweep stops at RECONCILE_WEIGHT_CAP; a seeded sample
        # of random admissible words checks the closed forms at w=17..20
        # without enumerating any weight above 16
        assert closedforms.RECONCILE_WEIGHT_CAP < 17
        rng = random.Random(f"{g}/{side}")
        for i in range(15):
            wz = 17 + i % 4 - LEFT_FACTORS[g].weight
            bits = "".join(rng.choice("01") for _ in range(wz - 2))
            z = decode_word(Word("0" + bits + "1"))
            assert z.weight == wz
            rep = reconcile_one(g, side, z)
            assert rep.verdict != "mismatch", rep.as_dict()

    def test_exact_for_weight_one_and_two(self):
        for g in ("1", "2"):
            for side in SIDES:
                reports = reconcile(g, side, 9)
                assert all(r.verdict == "exact" for r in reports)

    def test_three_shuffle_needs_completion(self):
        reports = reconcile("3", "shuffle", 9)
        assert all(r.verdict in ("exact", "reconciled") for r in reports)
        engaged = {f for r in reports for f in r.corrections_engaged}
        assert "00->b1:3,1->b2" in engaged
        assert any(r.beyond_printed for r in reports)
        # the dropped-coefficient family needs three blocks, so weight 11
        rep = reconcile_one("3", "shuffle", C((2, 1, 2, 3)))
        assert "0->b,0->a1,1->a2" in rep.corrections_engaged

    def test_twentyone_stuffle_needs_completion(self):
        reports = reconcile("21", "stuffle", 8)
        assert all(r.verdict in ("exact", "reconciled") for r in reports)
        engaged = {f for r in reports for f in r.corrections_engaged}
        assert "2->front,1->b+1" in engaged

    def test_missing_family_example(self):
        # (2,1)*(2,1,1) contains (2,3,2), produced only by the same-block
        # double merge absent from the printed statement
        rep = reconcile_one("21", "stuffle", C((2, 1, 1)))
        assert rep.verdict == "reconciled"
        assert rep.beyond_printed.get(C((2, 3, 2))) == 1

    def test_printed_variant_drops_terms(self):
        # the printed guard on the split-both-zeros family loses the
        # multiplicity-2 part of the (3,2) coefficient in (2) shuffle (3)
        corrected = closed_shuffle("2", C((3,)))
        assert corrected == shuffle(C((2,)), C((3,)))
        assert reconcile_one("2", "shuffle", (3,)).beyond_printed == {C((3, 2)): 2}

    UNCORRECTED = [(g, side) for g in LEFT_FACTORS for side in SIDES
                   if not closedforms._CORRECTIONS[g, side]]

    def test_uncorrected_pairs(self):
        assert self.UNCORRECTED == [("1", "stuffle"), ("1", "shuffle"), ("1", "dsr"),
                                    ("2", "stuffle"), ("3", "stuffle")]

    @pytest.mark.parametrize("g, side", UNCORRECTED)
    def test_uncorrected_printed_is_corrected(self, g, side):
        # with no correction on record the print is the corrected expansion
        for rep in reconcile(g, side, 10):
            assert rep.beyond_printed == {} and rep.corrections_engaged == []

    def test_corrections_registry_nonempty(self):
        keys = {(c.g, c.side) for c in PRINT_CORRECTIONS}
        assert ("21", "stuffle") in keys and ("21", "shuffle") in keys
        assert ("3", "shuffle") in keys

    def test_one_emission_per_report(self, monkeypatch):
        # the corrected and the printed terms come from one generator run
        built = []

        class CountingEmitter(closedforms._Emitter):
            def __init__(self, blocks):
                built.append(blocks)
                super().__init__(blocks)

        monkeypatch.setattr(closedforms, "_Emitter", CountingEmitter)
        rep = reconcile_one("21", "dsr", C((2, 1, 1)))
        assert rep.verdict == "reconciled"
        assert len(built) == 1

    def test_report_serialization(self):
        rep = reconcile_one("3", "shuffle", C((2, 1)))
        doc = rep.as_dict()
        assert doc["verdict"] in ("exact", "reconciled")
        assert doc["missing"] == [] and doc["extra"] == [] and doc["mismatched"] == []

    def test_broken_generator_is_a_mismatch(self, monkeypatch, capsys):
        # drop the first family, raise one coefficient by 1 and add one stray
        # term: each shows in its own dict, and the sweep exits 1
        real = closedforms._GENERATORS[("2", "stuffle")]

        def broken(e):
            real(e)
            assert e.spans[0][3] == 0 and not e.printed
            n = e.spans[1][3]  # the first family, "2->a", is terms[:n], one term per block
            del e.terms[:n]
            e.spans = [(*span, first - n) for *span, first in e.spans[1:]]
            t, c = e.terms[0]
            e.terms[0] = (t, c + 1)
            # (2) * z has depth at most depth(z) + 1 <= w - 2: (2,1^(w-2)) is no term
            e.terms.append(((2,) + (1,) * (sum(t) - 2), 1))

        monkeypatch.setitem(closedforms._GENERATORS, ("2", "stuffle"), broken)
        rep = reconcile_one("2", "stuffle", C((2, 1)))
        assert rep.verdict == "mismatch"
        assert rep.missing and rep.mismatched and rep.extra
        # the report's terms are Compositions, though the sums ran over tuples;
        # (2) stuffle has no print correction, so (21) dsr fills beyond_printed
        corrected = reconcile_one("21", "dsr", C((2, 1, 1)))
        assert corrected.beyond_printed
        for d in (rep.missing, rep.extra, rep.mismatched, corrected.beyond_printed):
            assert all(type(t) is Composition for t in d)
        assert main(["reconcile", "--g", "2", "--side", "stuffle", "--max-weight", "6"]) == 1
        assert "mismatch=" in capsys.readouterr().out


class TestTermConstruction:
    """The generators and the oracle build their terms without validation;
    every term must still be what ``Composition(...)`` would accept."""

    @staticmethod
    def assert_valid(t):
        assert type(t) is Composition
        assert min(t) >= 1
        assert t == Composition(list(t))

    @pytest.mark.parametrize("g", ("1", "2", "3", "21"))
    def test_terms_are_valid_compositions(self, g):
        for z in sweep(g, "dsr", 11):
            for side in SIDES:
                for t in closed_terms(g, side, z):
                    self.assert_valid(t.composition)
                for t in CLOSED[side](g, z):
                    self.assert_valid(t)
                for t, _ in ORACLE[side](LEFT_FACTORS[g], z).items():
                    self.assert_valid(t)

    def test_combination_products_hold_compositions(self):
        x = LinComb({C((3,)): 1, C((2, 1)): -2})
        for product in (stuffle, shuffle):
            got = product(x, C((2,)))
            assert got == product(C((3,)), C((2,))) + -2 * product(C((2, 1)), C((2,)))
            for t in got:
                self.assert_valid(t)

    def test_family_terms_only_on_request(self, monkeypatch):
        # the products and relation bodies are summed from the emitted pairs;
        # only closed_terms builds FamilyTerm records
        built = []
        init = closedforms.FamilyTerm.__init__

        def counting_init(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(closedforms.FamilyTerm, "__init__", counting_init)
        for g in LEFT_FACTORS:
            for z in sources(g, 9):
                closed_dsr(g, z)
        assert built == []
        terms = closed_terms("21", "dsr", C((2, 1, 1)))
        assert len(built) == len(terms) > 0
        assert all(type(t) is closedforms.FamilyTerm for t in terms)

    def test_mixed_weights_still_raise(self, monkeypatch):
        # a generator that appends a term of weight w - 1 is refused
        real = closedforms._GENERATORS[("2", "dsr")]

        def short(e):
            real(e)
            w = sum(e.terms[0][0])
            e.terms.append(((2,) + (1,) * (w - 3), 1))

        monkeypatch.setitem(closedforms._GENERATORS, ("2", "dsr"), short)
        with pytest.raises(ValueError, match="mixed weights"):
            closed_dsr("2", C((2, 1)))


class TestIntegerCoefficients:
    def test_relation_coefficients_integral(self):
        for g in ("1", "2", "3", "21"):
            for z in sweep(g, "dsr", 9):
                for _, coeff in closed_dsr(g, z).items():
                    assert Fraction(coeff).denominator == 1


ABSENT_FROM_PRINT = ("missing-family", "index-typo", "unreadable")


def printed_terms(g, side, z):
    """Reference reading of the print: the emitted terms with their printed
    coefficients, less the terms printed with 0 and the families the print
    lacks.  A dsr inherits the corrections of both of its sides."""
    sides = SIDES if side == "dsr" else (side,)
    absent = {c.family for c in PRINT_CORRECTIONS
              if c.g == g and c.side in sides and c.kind in ABSENT_FROM_PRINT}
    # where the print's coefficient differs, by term index
    printed = closedforms._emission(g, side, z, "closed_terms").printed
    return [dataclasses.replace(t, coeff=p) for n, t in enumerate(closed_terms(g, side, z))
            if (p := printed.get(n, t.coeff)) and t.family.removeprefix("-") not in absent]


def closed_terms_digest(g, side, variant, max_total_weight):
    """sha256 over every emitted term of the sweep, in emission order;
    ``variant="printed"`` hashes the print's terms instead."""
    terms_of = closed_terms if variant == "corrected" else printed_terms
    h = hashlib.sha256()
    for z in sweep(g, side, max_total_weight):
        h.update(f"z {list(z)}\n".encode())
        for t in terms_of(g, side, z):
            row = (t.family, tuple(t.composition), t.coeff, t.depth, t.height)
            h.update(f"{row!r}\n".encode())
    return h.hexdigest()


def test_closed_terms_golden():
    """Families, order, coefficients and predicted signatures are frozen:
    a renamed, reordered or re-signed family changes a digest even when
    the summed product stays the same."""
    doc = json.loads(GOLDEN.read_text())
    w = doc["max_total_weight"]
    got = {
        f"{g}/{side}/{variant}": closed_terms_digest(g, side, variant, w)
        for g in LEFT_FACTORS for side in SIDES for variant in ("corrected", "printed")
    }
    assert got == doc["digests"]


def test_no_term_has_coefficient_zero():
    """A family skips the placements that its coefficient counts as 0."""
    zero = [(g, side, tuple(z), t.family, tuple(t.composition))
            for g in LEFT_FACTORS for side in SIDES for z in sweep(g, side, 11)
            for t in closed_terms(g, side, z) if t.coeff == 0]
    assert zero == [], f"terms with coefficient 0 (g, side, z, family, term): {zero[:5]}"


EMISSION_GOLDEN = Path(__file__).resolve().parent / "golden" / "emission_digests.json"


def emission_digest(g, side, w):
    """sha256 over the emission of every source of total weight w: per z,
    its terms in order, its spans and its printed entries."""
    h = hashlib.sha256()
    for z in sources(g, w):
        e = closedforms._emission(g, side, z, "closed_terms")
        h.update(repr((tuple(z), e.terms, e.spans, sorted(e.printed.items()))).encode() + b"\n")
    return h.hexdigest()


def test_emission_golden():
    """The dsr emission at the benchmark's weight is frozen term by term,
    beyond the weights that ``closed_terms.json`` sweeps."""
    doc = json.loads(EMISSION_GOLDEN.read_text())
    w = doc["total_weight"]
    assert {f"{g}/dsr": emission_digest(g, "dsr", w) for g in LEFT_FACTORS} == doc["digests"]


RECONCILE_GOLDEN = Path(__file__).resolve().parent / "golden" / "reconcile_digests.json"


def reconcile_digest(g, side, max_weight):
    """sha256 over every report of the sweep: its serialized form and the
    engaged corrections in report order (``as_dict`` sorts them)."""
    h = hashlib.sha256()
    for rep in reconcile(g, side, max_weight):
        h.update(json.dumps(rep.as_dict(), sort_keys=True).encode() + b"\n")
        h.update(json.dumps(rep.corrections_engaged).encode() + b"\n")
    return h.hexdigest()


def test_reconcile_golden():
    """Every report of every (g, side) sweep is frozen, including the order
    in which the engaged corrections are listed."""
    doc = json.loads(RECONCILE_GOLDEN.read_text())
    w = doc["max_weight"]
    got = {f"{g}/{side}": reconcile_digest(g, side, w) for g in LEFT_FACTORS for side in SIDES}
    assert got == doc["digests"]


class TestConvergenceContract:
    """A right factor that is not convergent is refused by the operation
    called, with NotConvergentError (a usage error, exit 2, on the CLI)."""

    OPS = {**{f"closed_{side}": partial(op, "2") for side, op in CLOSED.items()},
           "closed_terms": partial(closed_terms, "2", "dsr"),
           "reconcile_one": partial(reconcile_one, "2", "dsr")}

    @pytest.mark.parametrize("name", OPS)
    @pytest.mark.parametrize("z, why", [((1, 2), "leading entry 1 in 1,2"),
                                        ((), "empty composition is not a polyzeta")])
    def test_refused_by_name(self, name, z, why):
        for arg in (z, C(z)):
            with pytest.raises(NotConvergentError) as info:
                self.OPS[name](arg)
            assert str(info.value) == f"{name}: {why}"

    @pytest.mark.parametrize("side", SIDES)
    def test_cli_exit_code(self, side, capsys):
        argv = ["closed", "--g", "2", "--side", side]
        assert main([*argv, "1,2"]) == 2
        assert capsys.readouterr().err == f"error: closed_{side}: leading entry 1 in 1,2\n"
        assert main([*argv, ""]) == 2  # the CLI has no text for the empty composition
        assert capsys.readouterr().err == "error: empty composition text\n"
