"""Relation sets per weight, exact rational reduction, Hoffman-basis check.

A relation is the body of one double-shuffle difference (or one duality
pair) at a fixed weight.  Relations assemble into sparse rational rows
over the ordered basis of that weight.  ``exact_rref`` factors them
once modulo a prime below 2^30, lifts the reduction table p-adically
(Dixon) and by rational reconstruction to Q, and returns it only once
``_certify`` has proved it exact.  The table expresses every pivot
(dependent) polyzeta through the free (basis) ones.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
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
    # every prime tried, in order (the last one certified), and the p-adic
    # digits lifted modulo each
    primes: tuple[int, ...]
    lift_steps: tuple[int, ...]

    def substitute(self, body: LinComb) -> dict[Composition, int | Fraction]:
        """Rewrite a combination over the free columns only (zero iff the
        combination lies in the row space); coefficients are ``Fraction``s
        only where the table has them."""
        return LinComb(
            (free, coeff * x)
            for term, coeff in body.items()
            for free, x in self.table.get(term, {term: 1}).items()
        ).terms()


# The four largest primes below 2^30, so that every residue fits in one
# CPython digit; each is 2^30 minus a small fold, which ``_lift`` uses to
# reduce packed residues.  The first one certifies every four-family table
# at w=4..14; a later one is tried only after an unlucky one.
PRIMES = tuple(2**30 - k for k in (35, 41, 83, 101))


@dataclass
class _Pivot:
    """One pivot of the elimination mod p: row ``source`` of the input
    became the pivot of column ``column`` after adding ``mults[i]`` (the
    multiplier, negated mod p) times the pivot row of column
    ``earlier[i]`` for each i, which left 1/``inv`` at the pivot.
    ``upper`` and ``umults`` are the entries of its unit pivot row in the
    other pivot columns, negated mod p."""

    column: int
    source: int
    earlier: array
    mults: array  # p - multiplier
    inv: int
    upper: array
    umults: array


def _factor(rows: list[dict[int, int]], ncols: int, p: int) -> list[_Pivot]:
    """Sparse forward elimination of integer rows mod p, recorded as
    A_RP = L*U with R the source rows and P the pivot columns.

    Rows are taken by leading column, rightmost first.  Each one is
    reduced against the pivots found so far, always at its leftmost
    entry, until that entry lies in a new pivot column or the row
    vanishes.  Whatever the row order, the pivot set comes out as the set
    of leading columns of the row space mod p: the leftmost column basis,
    fixed by the column order.  The column order also sets the fill-in,
    and so the cost.  A row whose leading column has no pivot yet becomes
    that pivot unreduced, so updates only arise where leading columns
    collide.
    ``reduce_relations`` therefore eliminates the non-{2,3} columns deepest
    first: for the full relation set at w=11 (12) one pass then takes
    0.58M (3.6M) inner updates instead of 1.83M (11.4M) in the assembled
    order.

    The row being reduced is held densely and only reduced mod p where it
    is read, which keeps the modular division out of the inner loop.
    Returns the pivots in the order they were found.
    """
    # pivot column -> the rest of its row, scaled to a unit pivot
    pivots: list[list[tuple[int, int]] | None] = [None] * ncols
    found = []
    for r, row in sorted(enumerate(rows), key=lambda t: -min(t[1], default=ncols)):
        acc = [0] * ncols
        for j, x in row.items():
            acc[j] = x
        earlier, mults = array("i"), array("i")
        for c in range(min(row, default=ncols), ncols):
            v = acc[c] % p
            if not v:
                continue
            prow = pivots[c]
            if prow is None:
                inv = pow(v, -1, p)
                pivots[c] = [
                    (j, y * inv % p) for j in range(c + 1, ncols) if (y := acc[j] % p)
                ]
                found.append((c, r, earlier, mults, inv))
                break
            earlier.append(c)
            mults.append(p - v)
            for j, x in prow:
                acc[j] -= v * x
    out = []
    for c, *lower in found:
        entries = [(j, p - y) for j, y in pivots[c] if pivots[j] is not None]
        out.append(_Pivot(
            c, *lower, array("i", (j for j, _ in entries)), array("i", (y for _, y in entries))
        ))
    return out


def _rational(u: int, m: int, bound: int) -> Fraction | None:
    """The n/d with n = u*d mod m and |n|, d <= bound, if any (Wang's
    rational reconstruction by the half-extended Euclidean algorithm; it
    is unique while bound <= sqrt(m/2))."""
    r0, r1, t0, t1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if not 0 < abs(t1) <= bound or math.gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _reconstruct(
    digits: list[array], p: int, pivots: list[int], free: list[int]
) -> dict[int, dict[int, Fraction]] | None:
    """The table over Q whose p-adic digits are ``digits`` (one array per
    step, pivot-major in the order of ``pivots``, each digit below 2^30),
    or None while p^k is too small for some entry.

    Row by row, the digits of a pivot are spread into slots wide enough
    for the whole sum and combined by Horner's rule in one int.  One
    denominator runs over the whole table: each entry is scaled by the lcm
    of the denominators found so far, so that only an entry with a new
    prime factor in its denominator takes the Euclidean algorithm.
    """
    m = p ** len(digits)
    bound = math.isqrt(m // 2)
    nf = len(free)
    words = (30 * len(digits)) // 32 + 1  # 32-bit words per slot
    size = 4 * words
    zeros = array("I", bytes(size * nf))
    den = 1
    table = {}
    for i, c in enumerate(pivots):
        t = 0
        for d in reversed(digits):
            spread = array("I", zeros)
            spread[::words] = d[i * nf:(i + 1) * nf]
            t = t * p + int.from_bytes(spread, "little")
        packed = t.to_bytes(size * nf, "little")
        row = {}
        for j, k in zip(free, range(0, size * nf, size)):
            u = int.from_bytes(packed[k:k + size], "little") * den % m
            # _rational's quick cases: den * entry is a small integer
            if u <= bound:
                n = u
            elif m - u <= bound:
                n = u - m
            else:
                x = _rational(u, m, bound)
                if x is None:
                    return None
                n = x.numerator
                den *= x.denominator
            if n:
                row[j] = Fraction(n, den)
        table[c] = row
    return table


def _certify(rows: list[dict[int, int]], table: dict[int, dict[int, Fraction]]) -> bool:
    """True iff ``table`` is the reduced row echelon form of the integer
    ``rows``, given that their rank is at least its number of pivots.

    The table maps each pivot c to its entries t_cj in the free columns j
    (the non-keys).  Echelon part: no table row c names a free j <= c.
    Zero part: every row r maps to zero, checked in integers over the lcm
    D of all the table's denominators: D*r_j + sum_c r_c*(D*t_cj) = 0 for
    each free j.  The zero part puts every row in the span of the table
    rows, so the rank is the number of pivots; the echelon part makes the
    table that span's reduced row echelon form, with the leftmost pivots.
    """
    if any(j <= c for c, expr in table.items() for j in expr):
        return False
    den = math.lcm(*(x.denominator for expr in table.values() for x in expr.values()))
    scaled = {
        c: [(j, x.numerator * (den // x.denominator)) for j, x in expr.items()]
        for c, expr in table.items()
    }
    for row in rows:
        acc: dict[int, int] = {}
        for c, x in row.items():
            if c in scaled:
                for j, n in scaled[c]:
                    acc[j] = acc.get(j, 0) + x * n
            else:
                acc[c] = acc.get(c, 0) + x * den
        if any(acc.values()):
            return False
    return True


def _lift(
    rows: list[dict[int, int]], ncols: int, p: int
) -> tuple[dict[int, dict[int, Fraction]] | None, int]:
    """The certified table from one factorization mod p, or None if p is
    unlucky; also the number of p-adic digits lifted.

    With R the source rows, P the pivot columns and F the free ones, the
    table T solves A_RP * T = -A_RF.  Dixon's lifting finds its p-adic
    digits: X_i = (A_RP)^-1 * B_i mod p through the recorded factors, and
    B_(i+1) = (B_i - A_RP * X_i) / p exactly, from B_0 = -A_RF.  Each
    right-hand side of |F| entries is packed into one int, in slots wide
    enough for every intermediate sum, so that a solve costs one bigint
    operation per factor entry and pivot, and no loop over the slots: as
    p = 2^30 - fold, a slot v = hi*2^30 + lo is brought below 2^30 by
    v -> lo + fold*hi on all slots at once.  A digit below 2^30 need not be
    below p; sum p^i X_i still solves the system mod p^k.

    The table is reconstructed when the step count reaches a power of two
    and checked by ``_certify``; the minor A_RP is invertible mod p, so
    rank_Q >= |P| as that check assumes.  Once p^k > 2*H^2, with H the
    Hadamard bound of the source rows, reconstruction is exact (numerators
    and denominators are minors of A_R); a prime that has not certified by
    then has a rank deficit or a pivot set that is not the leftmost one,
    and is unlucky.
    """
    pivots = _factor(rows, ncols, p)
    is_pivot = [False] * ncols
    for piv in pivots:
        is_pivot[piv.column] = True
    free = [j for j in range(ncols) if not is_pivot[j]]
    sources = [rows[piv.source] for piv in pivots]
    hadamard2 = math.prod(sum(x * x for x in row.values()) for row in sources)
    # |B_i| stays below b_max; offset is a multiple of p above it, so that
    # B_i + offset is a nonnegative slot; a solve adds at most ncols
    # products of two digits to it
    big = max((abs(x) for row in sources for x in row.values()), default=1)
    b_max = 2 * big * (ncols + 1)
    offset = p * (b_max // p + 1)
    width = 32 * -(-(offset + b_max + (ncols << 60)).bit_length() // 32)
    shifts = range(0, width * len(free), width)
    low = sum(((1 << 30) - 1) << k for k in shifts)
    high = sum(((1 << (width - 30)) - 1) << k for k in shifts)
    bias = sum(offset << k for k in shifts)
    fold = (1 << 30) - p

    def residues(v: int) -> int:
        """v with every slot below 2^30, each unchanged mod p."""
        while hi := (v >> 30) & high:
            v = (v & low) + fold * hi
        return v

    rhs = []  # B_i, packed, per pivot in the order found
    coeffs = []  # the source row's entries in pivot columns
    for row in sources:
        rhs.append(sum(-row[j] << k for j, k in zip(free, shifts) if j in row))
        entries = [(j, x) for j, x in row.items() if is_pivot[j]]
        coeffs.append((array("i", (j for j, _ in entries)), [x for _, x in entries]))
    backward = sorted(pivots, key=lambda piv: -piv.column)
    y, x = [0] * ncols, [0] * ncols
    digits: list[array] = []
    modulus, attempt = 1, 1
    while True:
        for piv, b in zip(pivots, rhs):
            acc = b + bias + sum(map(mul, piv.mults, map(y.__getitem__, piv.earlier)))
            y[piv.column] = residues(piv.inv * residues(acc))
        words = array("I")
        for piv in backward:
            xc = residues(y[piv.column] + sum(map(mul, piv.umults, map(x.__getitem__, piv.upper))))
            x[piv.column] = xc
            words.frombytes(xc.to_bytes(width // 8 * len(free), "little"))
        digits.append(words[::width // 32])
        rhs = [
            (b - sum(map(mul, vals, map(x.__getitem__, cols)))) // p
            for b, (cols, vals) in zip(rhs, coeffs)
        ]
        modulus *= p
        exact = modulus > 2 * hadamard2
        if len(digits) == attempt or exact:
            attempt *= 2
            table = _reconstruct(digits, p, [piv.column for piv in backward], free)
            if table is not None and _certify(rows, table):
                return table, len(digits)
            if exact:
                return None, len(digits)


def exact_rref(m: RationalMatrix) -> ReductionResult:
    """Exact reduction: one factorization modulo a prime, lifted p-adically
    to Q, then certified.

    Each row is scaled to integers once.  The sparse forward elimination
    mod p of ``PRIMES[0]`` gives a pivot set and its factors; Dixon's
    lifting and rational reconstruction then give the table (every pivot
    column as a combination of the free ones), which is returned only once
    ``_certify`` has proved it the exact reduced row echelon form: then the
    rank, the pivot set (the leftmost one) and the table are exact.

    A prime whose lift has not certified when reconstruction is exact is
    unlucky, and the next prime starts over; ``primes`` and ``lift_steps``
    of the result name every prime tried.  If the primes run out,
    InternalConsistencyError is raised: no uncertified table is returned.
    """
    rows = []
    for row in m.rows:
        den = math.lcm(*(x.denominator for x in row.values()))
        rows.append({j: x.numerator * (den // x.denominator) for j, x in row.items()})
    steps = []
    for p in PRIMES:
        table, k = _lift(rows, len(m.columns), p)
        steps.append(k)
        if table is not None:
            break
    else:
        raise InternalConsistencyError(
            f"no certified reduction from {len(PRIMES)} primes below 2^30"
        )
    cols = m.columns
    pivot_cols = sorted(table)
    return ReductionResult(
        rank=len(pivot_cols),
        pivot_columns=[cols[c] for c in pivot_cols],
        free_columns=[c for k, c in enumerate(cols) if k not in table],
        table={
            cols[c]: {cols[j]: x for j, x in table[c].items()}
            for c in pivot_cols
        },
        primes=PRIMES[:len(steps)],
        lift_steps=tuple(steps),
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
    order (see ``_factor``), and the {2,3} block last in its assembled
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
    out = exact_rref(RationalMatrix(
        w,
        tuple(cols[k] for k in order),
        [{position[j]: x for j, x in row.items()} for row in m.rows],
    ))
    table = out.table
    assembled = {c: k for k, c in enumerate(cols)}
    pivots = sorted(table, key=assembled.__getitem__)
    free = [c for c in cols if c not in table]
    red = ReductionResult(len(pivots), pivots, free, {
        c: dict(sorted(table[c].items(), key=lambda t: assembled[t[0]])) for c in pivots
    }, out.primes, out.lift_steps)
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
