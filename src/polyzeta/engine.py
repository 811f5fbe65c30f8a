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
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from . import numeric
from .closedforms import LEFT_FACTORS, closed_dsr, sources
from .core import Composition, dual, format_composition
from .counting import hoffman_dim, is_hoffman
from .oracle import InternalConsistencyError, LinComb, dsr as oracle_dsr
from .ordering import enumerate_weight, positions

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


@dataclass(frozen=True)
class Relation:
    """One linear relation between convergent polyzetas of a fixed weight."""

    body: LinComb
    family: str  # "1" | "2" | "3" | "21" | "duality"
    source: Composition


@dataclass
class RelationSet:
    weight: int
    relations: list[Relation]
    families: tuple[str, ...]
    duality: bool

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
    families: Iterable[str] = tuple(LEFT_FACTORS),
    include_duality: bool = False,
    mode: str = "closed",
) -> RelationSet:
    """Build the relation set of weight w.

    One relation per convergent source of weight w - weight(g) for each
    requested left factor g (none when the source weight would drop below
    2), plus optionally one duality relation per non-self-dual pair, from
    its earlier member.  ``families`` names each family once.  ``mode``
    picks the closed forms or the brute-force oracle as generator; the two
    must agree.  ``mode="oracle"`` is the reference path that the tests
    compare against; it is not on the CLI.

    Every body term is ``enumerate_weight(w)``'s own object, found through
    ``ordering.positions(w)`` (which checks w first), so a set holds one
    object per distinct composition however many relations share it; a
    term outside the weight's enumeration raises InternalConsistencyError.
    """
    if isinstance(families, str):
        raise TypeError(f"families is a collection of names, not the str {families!r}")
    families = tuple(families)
    for f in families:
        if f not in LEFT_FACTORS:
            raise ValueError(f"unknown relation family {f!r}")
        if families.count(f) > 1:
            raise ValueError(f"relation family {f!r} given more than once")
    if mode not in ("closed", "oracle"):
        raise ValueError(f"unknown mode {mode!r}")
    at = positions(w)
    comps = enumerate_weight(w)
    relations: list[Relation] = []

    def interned(body: LinComb) -> LinComb:
        try:
            return LinComb._make({comps[at[t]]: c for t, c in body.items()})
        except KeyError as exc:
            raise InternalConsistencyError(
                f"relation term ({format_composition(exc.args[0])}) is not a "
                f"convergent polyzeta of weight {w}"
            ) from None

    for f in families:
        g = LEFT_FACTORS[f]
        for z in sources(f, w):
            body = closed_dsr(f, z) if mode == "closed" else oracle_dsr(g, z)
            relations.append(Relation(interned(body), f, z))
    if include_duality:
        for k, z in enumerate(comps):
            j = at[dual(z)]
            if j > k:  # each pair once, from its earlier member
                relations.append(Relation(LinComb._make({z: 1, comps[j]: -1}), "duality", z))
    return RelationSet(w, relations, families, include_duality)


@dataclass
class RationalMatrix:
    """Sparse relation rows over the ordered column basis of one weight:
    one ``{column index: coefficient}`` dict per relation, without zero
    entries."""

    weight: int
    columns: tuple[Composition, ...]
    rows: list[dict[int, int | Fraction]]

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
    return RationalMatrix(rs.weight, tuple(columns), rows)


@dataclass
class ReductionResult:
    rank: int
    pivot_columns: list[Composition]
    free_columns: list[Composition]
    # pivot composition -> {free composition: coefficient}
    table: dict[Composition, dict[Composition, Fraction]]

    def substitute(self, body: LinComb) -> dict[Composition, int | Fraction]:
        """Rewrite a combination over the free columns only (zero iff the
        combination lies in the row space); coefficients are ``Fraction``s
        only where the table has them."""
        return LinComb(
            (free, coeff * x)
            for term, coeff in body.items()
            for free, x in self.table.get(term, {term: 1}).items()
        ).terms()


# The 24 primes just below 2^127.  One prime lifts every four-family table
# up to w=11; w=12 needs two, its table having 70-bit numerators over 58-bit
# denominators.  The family subsets (1,2,3) and (1,2,21) at w=12 are far
# taller: their tables certify after 10 and 16 primes.
PRIMES = tuple(2**127 - k for k in (
    1, 25, 39, 295, 309, 507, 511, 577, 697, 735, 801, 957,
    1081, 1105, 1141, 1201, 1231, 1447, 1485, 1495, 1741, 1747, 2197, 2437,
))

# pivot column -> {free column: residue}: the pivot solved for the free
# columns modulo a prime or a product of primes
_Table = dict[int, dict[int, int]]


def _rref_mod(rows: list[dict[int, int]], ncols: int, p: int) -> _Table:
    """Sparse reduced row echelon form of integer rows mod p.

    Rows are taken by leading column, rightmost first.  Each one is
    reduced against the pivots found so far, always at its leftmost
    entry, until that entry lies in a new pivot column or the row
    vanishes.  Whatever the row order, the pivot set comes out as the set
    of leading columns of the row space: the leftmost column basis, fixed
    by the column order.  The column order also sets the fill-in, and so
    the cost.  A row whose leading column has no pivot yet becomes that
    pivot unreduced, so updates only arise where leading columns collide.
    ``reduce_relations`` therefore eliminates the non-{2,3} columns deepest
    first: for the full relation set at w=11 (12) one pass then takes
    0.58M (3.6M) inner updates instead of 1.83M (11.4M) in the assembled
    order.
    Back-substitution, right to left, then clears the pivot columns from
    every pivot row.

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


def hoffman_reduce(w: int) -> HoffmanReport:
    """``reduce_relations`` on the four families' relations of weight w."""
    return reduce_relations(generate_relations(w))


def reduce_relations(rs: RelationSet) -> HoffmanReport:
    """Assemble with the {2,3} columns last, reduce, and check that exactly
    the {2,3}-entry polyzetas remain free.  This is the one place that
    reduces a relation set.

    The non-{2,3} block N is eliminated deepest first (depth descending,
    then entries ascending), which makes far less fill than the assembled
    order (see ``_rref_mod``), and the {2,3} block last in its assembled
    order, in one ``exact_rref`` call.  Pivots, free columns and the keys
    of each table row are reported in the assembled order.  The order of N
    cannot change the table while N comes out all pivots (the four
    families at every weight tried): each table row is then the unique
    vector of the row space whose N-part is a unit vector.  Otherwise (a
    subset of the families, a rank deficit) the free set is the leftmost
    one of the elimination order.
    """
    w = rs.weight
    m = assemble_matrix(rs, hoffman_last=True)
    cols = m.columns
    n = sum(not is_hoffman(c) for c in cols)
    order = sorted(range(n), key=lambda k: (-len(cols[k]), cols[k])) + list(range(n, len(cols)))
    position = {k: i for i, k in enumerate(order)}
    table = exact_rref(RationalMatrix(
        w,
        tuple(cols[k] for k in order),
        [{position[j]: x for j, x in row.items()} for row in m.rows],
    )).table
    assembled = {c: k for k, c in enumerate(cols)}
    pivots = sorted(table, key=assembled.__getitem__)
    free = [c for c in cols if c not in table]
    red = ReductionResult(len(pivots), pivots, free, {
        c: dict(sorted(table[c].items(), key=lambda t: assembled[t[0]])) for c in pivots
    })
    return HoffmanReport(
        weight=w,
        families=rs.families,
        duality=rs.duality,
        rank=red.rank,
        expected_rank=2 ** (w - 2) - hoffman_dim(w),
        free_columns=free,
        non_hoffman_free=[c for c in free if not is_hoffman(c)],
        missing_hoffman=[c for c in enumerate_weight(w) if is_hoffman(c) and c in table],
        result=red,
    )


@dataclass
class NumericReport:
    tol: float
    residuals: list[tuple[str, Composition, float]]  # family, source, ratio
    failures: list[tuple[str, Composition, float]]

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_numeric(rs: RelationSet, tol: float = 1e-3) -> NumericReport:
    """Check every relation against proven enclosures of its terms, as
    ``numeric.residuals`` does; a residual is recorded as |R| / mass."""
    checked = numeric.residuals([rel.body for rel in rs.relations], tol)
    residuals = [(rel.family, rel.source, ratio) for rel, (ratio, _) in zip(rs.relations, checked)]
    failures = [r for r, (_, holds) in zip(residuals, checked) if not holds]
    return NumericReport(tol, residuals, failures)
