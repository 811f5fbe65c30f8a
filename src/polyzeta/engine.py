"""Relation sets per weight, exact rational reduction, Hoffman-basis check.

A relation is the body of one double-shuffle difference (or one duality
pair) at a fixed weight.  Relations assemble into sparse rational rows
over the ordered basis of that weight.  ``exact_rref`` reduces them
modulo large primes, lifts the reduction table to Q by the Chinese
remainder theorem and rational reconstruction, and certifies it over Q:
every relation must map to zero through the table, which proves the
rank and the pivot set.  The table expresses every pivot (dependent)
polyzeta through the free (basis) ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .closedforms import LEFT_FACTORS, closed_dsr
from .core import Composition, dual
from .counting import hoffman_dim, is_hoffman
from .numeric import eval_mzv
from .oracle import InternalConsistencyError, LinComb, dsr as oracle_dsr
from .ordering import enumerate_weight, index_of

__all__ = [
    "GENERATOR_VERSION",
    "Relation",
    "RelationSet",
    "RationalMatrix",
    "ReductionResult",
    "HoffmanReport",
    "NumericReport",
    "generate_relations",
    "assemble_matrix",
    "exact_rref",
    "hoffman_reduce",
    "reduce_relations",
    "verify_numeric",
]

# bump when the generated relations could change (closed-form fixes, ordering)
GENERATOR_VERSION = "relations-v1"

ALL_FAMILIES = ("1", "2", "3", "21")


@dataclass(frozen=True)
class Relation:
    """One linear relation between convergent polyzetas of a fixed weight."""

    body: LinComb
    family: str  # "1" | "2" | "3" | "21" | "duality"
    source: Composition

    @property
    def weight(self) -> int:
        return self.body.weight


@dataclass
class RelationSet:
    weight: int
    relations: list[Relation]
    families: tuple[str, ...]
    duality: bool
    mode: str
    notices: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.relations)


def expected_relation_count(w: int) -> int:
    """2^(w-3) + 2^(w-4) + 2^(w-5) + 2^(w-5) relations for the four
    families at weight w >= 5 (equal to the 2^(w-2) polyzeta count)."""
    if w < 5:
        raise ValueError("the four-family count formula needs w >= 5")
    return 2 ** (w - 3) + 2 ** (w - 4) + 2 ** (w - 5) + 2 ** (w - 5)


def generate_relations(
    w: int,
    families: Iterable[str] = ALL_FAMILIES,
    include_duality: bool = False,
    mode: str = "closed",
) -> RelationSet:
    """Build the relation set of weight w.

    One relation per convergent source of weight w - weight(g) for each
    requested left factor g (skipped with a notice when the source weight
    would drop below 2), plus optionally one duality relation per
    non-self-dual pair.  ``mode`` picks the closed forms or the
    brute-force oracle as generator; the two must agree.
    """
    families = tuple(families)
    for f in families:
        if f not in LEFT_FACTORS:
            raise ValueError(f"unknown relation family {f!r}")
    if mode not in ("closed", "oracle"):
        raise ValueError(f"unknown mode {mode!r}")
    relations: list[Relation] = []
    notices: list[str] = []
    for f in families:
        g = LEFT_FACTORS[f]
        wz = w - g.weight
        if wz < 2:
            notices.append(
                f"family {f}: no sources at weight {w} (needs weight >= {g.weight + 2})"
            )
            continue
        for z in enumerate_weight(wz):
            body = closed_dsr(f, z) if mode == "closed" else oracle_dsr(g, z)
            if body.has_divergent():
                raise AssertionError(f"divergent relation body for family {f}, z={z}")
            relations.append(Relation(body, f, z))
    if include_duality:
        for z in enumerate_weight(w):
            zd = dual(z)
            if zd == z or index_of(zd) < index_of(z):
                continue
            relations.append(
                Relation(LinComb({z: 1, zd: -1}), "duality", z)
            )
    return RelationSet(w, relations, families, include_duality, mode, notices)


@dataclass
class RationalMatrix:
    """Sparse relation rows over the ordered column basis of one weight:
    one ``{column index: coefficient}`` dict per relation, without zero
    entries."""

    weight: int
    columns: tuple[Composition, ...]
    rows: list[dict[int, Fraction]]
    row_meta: list[tuple[str, Composition]]

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.columns))


def assemble_matrix(rs: RelationSet, hoffman_last: bool = False) -> RationalMatrix:
    """Coefficient matrix of a relation set; columns in the fixed-weight
    order, optionally with the {2,3}-entry columns moved to the right end
    (preserving relative order) so that pivots prefer the other columns."""
    columns = list(enumerate_weight(rs.weight))
    if hoffman_last:
        columns = [c for c in columns if not is_hoffman(c)] + [
            c for c in columns if is_hoffman(c)
        ]
    col_index = {c: k for k, c in enumerate(columns)}
    rows = [{col_index[t]: c for t, c in rel.body.items()} for rel in rs.relations]
    meta = [(rel.family, rel.source) for rel in rs.relations]
    return RationalMatrix(rs.weight, tuple(columns), rows, meta)


@dataclass
class ReductionResult:
    rank: int
    pivot_columns: list[Composition]
    free_columns: list[Composition]
    # pivot composition -> {free composition: coefficient}
    table: dict[Composition, dict[Composition, Fraction]]

    def substitute(self, body: LinComb) -> dict[Composition, Fraction]:
        """Rewrite a combination over the free columns only (zero iff the
        combination lies in the row space)."""
        acc: dict[Composition, Fraction] = {}

        def add(t: Composition, c: Fraction) -> None:
            s = acc.get(t, Fraction(0)) + c
            if s:
                acc[t] = s
            else:
                acc.pop(t, None)

        for term, coeff in body.items():
            if term in self.table:
                for free, x in self.table[term].items():
                    add(free, Fraction(coeff) * x)
            else:
                add(term, Fraction(coeff))
        return acc


# The primes just below 2^127.  One prime lifts every table up to w=11;
# w=12 needs two, its table having 70-bit numerators over 58-bit
# denominators.
PRIMES = tuple(2**127 - k for k in (1, 25, 39, 295, 309, 507, 511, 577))

# pivot column -> {free column: residue}: the pivot solved for the free
# columns modulo a prime or a product of primes
_Table = dict[int, dict[int, int]]


def _rref_mod(rows: list[dict[int, int]], ncols: int, p: int) -> _Table:
    """Sparse reduced row echelon form of integer rows mod p.

    Rows are taken by leading column, rightmost first.  Each one is
    reduced against the pivots found so far, always at its leftmost
    entry, until that entry lies in a new pivot column or the row
    vanishes.  Whatever the row order, the pivot set comes out as the set
    of leading columns of the row space, so only the column order fixes
    it.  The order sets the fill-in: a row whose leading column has no
    pivot yet becomes that pivot unreduced, so updates only arise where
    leading columns collide (at w=11 and 12 a third fewer than taking the
    shortest rows first).  Back-substitution, right to left, then clears
    the pivot columns from every pivot row.

    The row being reduced is held densely and only reduced mod p where it
    is read, which keeps the modular division out of the inner loop.
    """
    # pivot column -> the rest of its row, scaled to a unit pivot
    pivots: list[list[tuple[int, int]] | None] = [None] * ncols
    for int_row in sorted(rows, key=lambda r: -min(r, default=ncols)):
        acc = [0] * ncols
        for j, x in int_row.items():
            acc[j] = x
        for c in range(min(int_row, default=ncols), ncols):
            v = acc[c] % p
            if not v:
                continue
            prow = pivots[c]
            if prow is None:
                inv = pow(v, -1, p)
                pivots[c] = [
                    (j, y * inv % p) for j in range(c + 1, ncols) if (y := acc[j] % p)
                ]
                break
            for j, x in prow:
                acc[j] -= v * x
    free = [k for k in range(ncols) if pivots[k] is None]
    reduced: dict[int, list[tuple[int, int]]] = {}
    for c in range(ncols - 1, -1, -1):
        if pivots[c] is None:
            continue
        acc = [0] * ncols
        for j, x in pivots[c]:
            # a pivot right of c is already reduced: free columns only
            if j in reduced:
                for k, y in reduced[j]:
                    acc[k] -= x * y
            else:
                acc[j] += x
        reduced[c] = [(k, y) for k in free if (y := acc[k] % p)]
    # row c reads x_c + sum y*x_k = 0, so x_c = sum (p - y)*x_k mod p
    return {c: {k: p - y for k, y in red} for c, red in reduced.items()}


def _crt(acc: _Table, modulus: int, new: _Table, p: int) -> _Table:
    """Combine residues mod ``modulus`` with residues mod p (same pivots)."""
    lift = modulus * pow(modulus, -1, p)
    both = modulus * p
    out: _Table = {}
    for c, expr in acc.items():
        other = new[c]
        row = {}
        for j in expr.keys() | other.keys():
            a = expr.get(j, 0)
            row[j] = (a + (other.get(j, 0) - a) * lift) % both
        out[c] = row
    return out


def _rational(u: int, m: int) -> Fraction | None:
    """The n/d with n = u*d mod m and |n|, d <= sqrt(m/2), if any (Wang's
    rational reconstruction by the half-extended Euclidean algorithm)."""
    bound = math.isqrt(m // 2)
    r0, r1, t0, t1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if not 0 < abs(t1) <= bound or math.gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _reconstruct(acc: _Table, modulus: int) -> dict[int, dict[int, Fraction]] | None:
    """The table over Q whose residues are ``acc``, or None while the
    modulus is too small for some entry."""
    table = {}
    for c, expr in acc.items():
        row = {}
        for j, u in expr.items():
            x = _rational(u, modulus)
            if x is None:
                return None
            if x:
                row[j] = x
        table[c] = row
    return table


def _certify(rows: list[dict[int, int]], table: dict[int, dict[int, Fraction]]) -> bool:
    """True iff every integer row maps to zero through the table.

    Each table row is scaled by its own denominator, so the check runs in
    integers: for a row r and each free column j,
    L*r_j + sum over pivots c of r_c * (L/D_c) * (D_c * t_cj) must vanish,
    with D_c the denominator of table row c and L the lcm of the D_c that r
    meets.
    """
    scaled = {}
    for c, expr in table.items():
        d = math.lcm(*(x.denominator for x in expr.values()))
        scaled[c] = (d, [(j, x.numerator * (d // x.denominator)) for j, x in expr.items()])
    for row in rows:
        big = math.lcm(*(scaled[c][0] for c in row if c in scaled))
        acc: dict[int, int] = {}
        for c, x in row.items():
            if c in scaled:
                d, expr = scaled[c]
                f = x * (big // d)
                for j, n in expr:
                    acc[j] = acc.get(j, 0) + f * n
            else:
                acc[c] = acc.get(c, 0) + x * big
        if any(acc.values()):
            return False
    return True


def exact_rref(m: RationalMatrix) -> ReductionResult:
    """Exact reduction, computed modulo primes, lifted to Q, then certified.

    Each row is scaled to integers once.  For each prime of ``PRIMES`` the
    sparse reduced row echelon form mod p gives a pivot set and a table
    (every pivot column as a combination of the free ones).  Primes with
    the same pivot set are combined by the Chinese remainder theorem, and
    rational reconstruction lifts the combined table to Q.  A lifted table
    is returned only once every input row maps to zero through it: then
    rank_Q <= #pivots = rank_p <= rank_Q, so the rank, the pivot set (the
    leftmost one, as in the unique RREF) and the table are exact.

    A prime whose rank, or pivot set, is worse than the best seen so far
    is unlucky and skipped; a better one restarts the accumulation.  If
    the primes run out before a table passes the certificate,
    InternalConsistencyError is raised: no uncertified table is returned.
    """
    rows = []
    for row in m.rows:
        den = math.lcm(*(x.denominator for x in row.values()))
        rows.append({j: x.numerator * (den // x.denominator) for j, x in row.items()})
    best = acc = None
    modulus = 1
    for p in PRIMES:
        mod_table = _rref_mod(rows, len(m.columns), p)
        # over Q the pivot set is the largest, then leftmost, of all primes'
        key = (-len(mod_table), sorted(mod_table))
        if best is None or key < best:
            best, acc, modulus = key, mod_table, p
        elif key > best:
            continue
        else:
            acc, modulus = _crt(acc, modulus, mod_table, p), modulus * p
        table = _reconstruct(acc, modulus)
        if table is not None and _certify(rows, table):
            break
    else:
        raise InternalConsistencyError(
            f"no certified reduction from {len(PRIMES)} primes "
            f"(best rank mod p: {-best[0]})"
        )
    cols = m.columns
    pivot_cols = sorted(table)
    return ReductionResult(
        rank=len(pivot_cols),
        pivot_columns=[cols[c] for c in pivot_cols],
        free_columns=[c for k, c in enumerate(cols) if k not in table],
        table={
            cols[c]: {cols[j]: x for j, x in sorted(table[c].items())}
            for c in pivot_cols
        },
    )


@dataclass
class HoffmanReport:
    """Outcome of the basis check at one weight (failure is data, not an
    exception)."""

    weight: int
    families: tuple[str, ...]
    duality: bool
    rank: int
    expected_rank: int
    free_columns: list[Composition]
    non_hoffman_free: list[Composition]
    missing_hoffman: list[Composition]
    result: ReductionResult

    @property
    def ok(self) -> bool:
        return (
            self.rank == self.expected_rank
            and not self.non_hoffman_free
            and not self.missing_hoffman
        )

    def as_dict(self) -> dict:
        return {
            "weight": self.weight,
            "families": list(self.families),
            "duality": self.duality,
            "rank": self.rank,
            "expected_rank": self.expected_rank,
            "ok": self.ok,
            "free_columns": [list(c) for c in self.free_columns],
            "non_hoffman_free": [list(c) for c in self.non_hoffman_free],
            "missing_hoffman": [list(c) for c in self.missing_hoffman],
        }


def hoffman_reduce(
    w: int,
    families: Iterable[str] = ALL_FAMILIES,
    include_duality: bool = False,
    mode: str = "closed",
) -> HoffmanReport:
    """Generate the relations of weight w and check them with
    ``reduce_relations``."""
    return reduce_relations(generate_relations(w, families, include_duality, mode))


def reduce_relations(rs: RelationSet) -> HoffmanReport:
    """Assemble with the {2,3} columns last, reduce, and check that
    exactly the {2,3}-entry polyzetas remain free."""
    w = rs.weight
    if w < 4:
        raise ValueError("hoffman_reduce needs w >= 4")
    red = exact_rref(assemble_matrix(rs, hoffman_last=True))
    free = set(red.free_columns)
    return HoffmanReport(
        weight=w,
        families=rs.families,
        duality=rs.duality,
        rank=red.rank,
        expected_rank=2 ** (w - 2) - hoffman_dim(w),
        free_columns=red.free_columns,
        non_hoffman_free=[c for c in red.free_columns if not is_hoffman(c)],
        missing_hoffman=[c for c in enumerate_weight(w) if is_hoffman(c) and c not in free],
        result=red,
    )


@dataclass
class NumericReport:
    tol: float
    residuals: list[tuple[str, Composition, float]]  # family, source, ratio
    worst_by_family: dict[str, float]
    failures: list[tuple[str, Composition, float]]

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_numeric(rs: RelationSet, tol: float = 1e-3, max_terms: int = 10**8) -> NumericReport:
    """Evaluate every relation; the residual must vanish relative to the
    total evaluated mass sum |coeff| * |value|.

    Terms are evaluated at tolerance tol (the adaptive stop over-delivers
    by design, and every polyzeta value is >= 1, so the relative residual
    of a true relation stays well under tol).  The cap default is raised
    above the evaluator's own because deep 1-runs converge like powers of
    log.
    """
    residuals = []
    failures = []
    worst: dict[str, float] = {}
    for rel in rs.relations:
        total = 0.0
        signed = []
        for term, coeff in rel.body.items():
            v = eval_mzv(term, tol, max_terms).value
            signed.append(float(coeff) * v)
            total += abs(float(coeff)) * abs(v)
        ratio = abs(math.fsum(signed)) / total if total else 0.0
        residuals.append((rel.family, rel.source, ratio))
        worst[rel.family] = max(worst.get(rel.family, 0.0), ratio)
        if ratio > tol:
            failures.append((rel.family, rel.source, ratio))
    return NumericReport(tol, residuals, worst, failures)
