"""Convergent polyzetas as intervals proven to contain them.

Method: the Hölder convolution at p = 2 (Borwein, Bradley, Broadhurst,
Lisoněk, *Special values of multiple polylogarithms*, arXiv:math/9910045).
Write s as the binary word a_1...a_w = 0^(s_1-1) 1 0^(s_2-1) 1 ...
Splitting the iterated integral of zeta(s) over [0, 1] at 1/2 gives

    zeta(s) = sum_{k=0..w} lam(rev-dual(a_1...a_k)) * lam(a_{k+1}...a_w),

where rev-dual reverses a word and swaps 0 and 1, and lam of a word
ending in 1, read as a composition t of depth m, is the multiple
polylogarithm at 1/2 (lam of the empty word is 1):

    lam(t) = Li_t(1/2) = sum_{n_1 > ... > n_m >= 1} 2^(-n_1) prod n_i^(-t_i).

Since s_1 >= 2, every word here ends in 1, every term is positive and
each series converges like 2^(-n).

Each lam is summed over n_1 <= N by one forward recursion in integers at
scale 2^-P, every division rounded down, so the sum is a lower bound.
The same loop counts the rounding loss in units of 2^-P, and a closed
bound covers the terms n_1 > N.  So ``eval_mzv`` returns an interval that
provably holds zeta(s), with no floating point inside it.  The products
for s and for dual(s) are the same, so the evaluation is no independent
check of duality.

``eval_mzv`` and the relation check ``residuals`` both enclose a batch of
polyzetas at one scale at a time, and keep nothing between calls.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .core import Composition, decode_word, format_composition
from .oracle import LinComb

__all__ = ["MAX_TERMS", "EvalResult", "ToleranceUnreachable", "check_tolerance", "eval_mzv",
           "residuals"]

MAX_TERMS = 10**7  # caps the cutoff N of every series; reached only near tol = 2^-(10^7)

# bits carried beyond log2(1/tol); the rounding loss of one value is a few
# thousand units of the last place at weight <= 12, well under 2^16
_GUARD = 16
_SWAP = str.maketrans("01", "10")


@dataclass(frozen=True)
class EvalResult:
    """zeta(s) lies in [(fixed - ulps) 2^-bits, (fixed + ulps) 2^-bits].

    ``value`` is the float nearest to fixed * 2^-bits, ``tail_estimate``
    bounds ulps * 2^-bits from above (so |zeta(s) - value| is at most
    tail_estimate plus half a unit in the last place of value), and
    ``terms_used`` is the largest cutoff N of the series summed.
    """

    value: float
    tail_estimate: float
    terms_used: int
    fixed: int
    ulps: int
    bits: int


class ToleranceUnreachable(RuntimeError):
    """The cutoff cap was hit first; carries the best-effort result."""

    def __init__(self, message: str, best: EvalResult):
        super().__init__(message)
        self.best = best


def check_tolerance(tol: float, max_terms: int = 1) -> None:
    """Raise ValueError unless tol is finite and positive and max_terms >= 1."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if max_terms < 1:
        raise ValueError(f"max_terms must be at least 1, got {max_terms!r}")


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _tail(t1: int, m: int, bits: int, n: int) -> int:
    """Bound, in units of 2^-bits, on the terms n_1 > n of Li_t(1/2), for t
    of depth m and first entry t1.

    The inner sum over n_1 > n_2 > ... > n_m is at most H^(m-1) / (m-1)!,
    with H = H_(n_1 - 1) <= bit_length(n_1).  Up to n_1 = K = max(2n, 4m)
    that gives 2^-n bit_length(K)^(m-1) / ((m-1)! (n+1)^t1).  Beyond K the
    cruder inner bound n_1^(m-1) lets consecutive terms shrink by at least
    e^(1/4)/2 < 0.65, so they sum to under 3 (K+1)^(m-1) 2^-(K+1).
    """
    k = max(2 * n, 4 * m)
    near = _ceil_div(k.bit_length() ** (m - 1) << bits,
                     math.factorial(m - 1) * (n + 1) ** t1 << n)
    far = _ceil_div(3 * (k + 1) ** (m - 1) << bits, 1 << (k + 1))
    return near + far


def _cutoff(t1: int, m: int, bits: int) -> int:
    """The least N whose tail bound is at most 2 units of 2^-bits."""
    n = 1
    while _tail(t1, m, bits, n) > 2:
        n += 1
    return n


def _lam(t: tuple[int, ...], bits: int, n: int) -> tuple[int, int]:
    """(V, E) with V <= 2^bits Li_t(1/2) <= V + E, summing n_1 <= n."""
    m = len(t)
    acc = [0] * m + [1 << bits]  # acc[i]: inner sum over the exponents t[i:]
    loss = [0] * (m + 1)  # its rounding loss, in units of 2^-bits
    total = lost = 0
    for k in range(1, n + 1):
        d = k ** t[0] << k
        total += acc[1] // d
        lost += _ceil_div(loss[1], d) + 1
        for i in range(1, m):  # acc[i + 1] still holds its value at k - 1
            d = k ** t[i]
            acc[i] += acc[i + 1] // d
            loss[i] += _ceil_div(loss[i + 1], d) + 1
    return total, lost + _tail(t[0], m, bits, n)


def _enclose(terms: Iterable[Composition], bits: int,
             max_terms: int) -> dict[Composition, tuple[EvalResult, bool]]:
    """Each term's Hölder sum at scale 2^-bits, and whether a cutoff hit the
    cap.  Each cutoff and each lam series is computed once per call."""
    cuts: dict[tuple[int, int], int] = {}  # by first entry and depth
    lams: dict[str, tuple[int, int, int, bool]] = {"": (1 << bits, 0, 0, False)}

    def factor(word: str) -> tuple[int, int, int, bool]:  # (V, E, N, capped) for lam(word)
        if word not in lams:
            t = decode_word(word)
            shape = (t[0], len(t))
            cuts[shape] = need = cuts.get(shape) or _cutoff(*shape, bits)
            n = min(need, max_terms)
            lams[word] = (*_lam(t, bits, n), n, need > n)
        return lams[word]

    out = {}
    for s in terms:
        word = "".join("0" * (e - 1) + "1" for e in s)
        flipped = word[::-1].translate(_SWAP)  # rev-dual(a_1..a_k) = flipped[w-k:]
        w = len(word)
        v = e = n_used = 0
        capped = False
        for k in range(w + 1):
            va, ea, na, ca = factor(flipped[w - k:])
            vb, eb, nb, cb = factor(word[k:])
            v += va * vb >> bits
            e += ((ea * vb + eb * va + ea * eb) >> bits) + 2
            n_used = max(n_used, na, nb)
            capped = capped or ca or cb
        # the sum lies in [v, v + e]; centre it at scale 2^-(bits + 1)
        fixed = 2 * v + e
        tail = math.nextafter(e / (2 << bits), math.inf)  # rounded up
        out[s] = EvalResult(fixed / (2 << bits), tail, n_used, fixed, e, bits + 1), capped
    return out


def _convergent(c: Composition) -> Composition:
    if not c.convergent():
        raise ValueError(f"eval_mzv: {format_composition(c)} is not convergent")
    return c


def eval_mzv(c: Composition, tol: float = 1e-6, max_terms: int = MAX_TERMS) -> EvalResult:
    """A convergent polyzeta with a proven bound, tail_estimate <= tol
    (see EvalResult).

    ``max_terms`` caps the cutoff N of every series.  If the bound at the
    cap still exceeds tol, raises ToleranceUnreachable with that (still
    proven) result attached.  Raises ValueError unless tol is finite and
    positive and max_terms >= 1.
    """
    c = _convergent(Composition(c))
    check_tolerance(tol, max_terms)
    bits = max(0, math.ceil(-math.log2(tol))) + _GUARD
    while True:
        r, capped = _enclose([c], bits, max_terms)[c]
        if r.tail_estimate <= tol:
            return r
        if capped:
            raise ToleranceUnreachable(
                f"eval_mzv({format_composition(c)}): tolerance {tol} "
                f"unreachable within {max_terms} terms",
                r,
            )
        bits += max(_GUARD, math.ceil(math.log2(r.tail_estimate / tol)) + 1)


def residuals(bodies: Sequence[LinComb], tol: float) -> list[tuple[float, bool]]:
    """(|R| / mass, holds) for each relation body = 0.

    At precision 2^-p each term is enclosed in [V_i - E_i, V_i + E_i], at
    the scale that ``eval_mzv`` starts from for tol = 2^-p.  The residual
    R = sum c_i V_i is summed exactly, so a true relation has |R| <= bound
    = sum |c_i| E_i, and a relation holds iff |R| <= bound and no term hit
    the cutoff cap ``MAX_TERMS`` (read at each call) short of 2^-p.  From
    p = log2(1/tol), a relation moves up until its bound is at most tol
    times the mass sum |c_i V_i|, so a false relation whose true residual
    exceeds twice that is always caught.  The relations pending at one p
    are enclosed in one batch.  Raises ValueError for a bad tol or a
    divergent term.
    """
    check_tolerance(tol)
    limit = Fraction(tol)
    out = [(0.0, True)] * len(bodies)
    pending = {max(0, math.ceil(-math.log2(tol))): range(len(bodies))}
    while pending:
        p = min(pending)
        rels = pending.pop(p)
        vals = _enclose({_convergent(s) for i in rels for s in bodies[i]}, p + _GUARD, MAX_TERMS)
        for i in rels:
            terms = [(c, *vals[s]) for s, c in bodies[i].items()]
            # R, bound and mass, all at one scale; Fractions if a coefficient is one
            r = sum(c * v.fixed for c, v, _ in terms)
            bound = sum(abs(c) * v.ulps for c, v, _ in terms)
            mass = sum(abs(c * v.fixed) for c, v, _ in terms)
            # as in eval_mzv, a capped term fails only if it misses 2^-p
            reached = not any(capped and v.tail_estimate > 2.0**-p for _, v, capped in terms)
            if reached and bound > limit * mass:
                step = max(8, math.ceil(math.log2(bound / (limit * mass))) + 1)
                pending.setdefault(p + step, []).append(i)
            else:
                out[i] = float(abs(r) / mass) if mass else 0.0, reached and abs(r) <= bound
    return out
