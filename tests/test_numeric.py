import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

from conftest import compositions
from polyzeta import numeric
from polyzeta.core import Composition, dual
from polyzeta.engine import Relation, RelationSet, generate_relations, verify_numeric
from polyzeta.numeric import (
    EvalResult,
    ToleranceUnreachable,
    eval_mzv,
)
from polyzeta.oracle import LinComb, stuffle
from polyzeta.ordering import enumerate_weight

C = Composition

PI = math.pi
ZETA2 = PI**2 / 6
ZETA3 = 1.2020569031595943
ZETA4 = PI**4 / 90


def _arctan_inv(x: int, k: int) -> Fraction:
    """The first k terms of the alternating series of arctan(1/x)."""
    return sum(Fraction((-1) ** j, (2 * j + 1) * x ** (2 * j + 1)) for j in range(k))


def _pi_interval(k: int = 100) -> tuple[Fraction, Fraction]:
    """Machin, pi = 16 arctan(1/5) - 4 arctan(1/239), in exact rationals:
    the partial sums with k and k + 1 terms bracket each arctan, so the
    interval (about 2^-470 wide) holds pi."""
    a = sorted((_arctan_inv(5, k), _arctan_inv(5, k + 1)))
    b = sorted((_arctan_inv(239, k), _arctan_inv(239, k + 1)))
    return 16 * a[0] - 4 * b[1], 16 * a[1] - 4 * b[0]


def _bernoulli(n: int) -> list[Fraction]:
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return b


PI_LO, PI_HI = _pi_interval()
BERNOULLI = _bernoulli(12)


def _even_zeta(k: int, pi: Fraction) -> Fraction:
    """zeta(2k) = |B_2k| (2 pi)^(2k) / (2 (2k)!), increasing in pi."""
    return abs(BERNOULLI[2 * k]) * (2 * pi) ** (2 * k) / (2 * math.factorial(2 * k))


def _encloses(r: EvalResult, lo: Fraction, hi: Fraction) -> bool:
    """[lo, hi] meets [(fixed - ulps) 2^-bits, (fixed + ulps) 2^-bits]."""
    scale = 1 << r.bits
    return Fraction(r.fixed - r.ulps, scale) <= hi and lo <= Fraction(r.fixed + r.ulps, scale)


def _overlap(a: EvalResult, b: EvalResult) -> bool:
    bits = max(a.bits, b.bits)
    fa, ua = a.fixed << (bits - a.bits), a.ulps << (bits - a.bits)
    fb, ub = b.fixed << (bits - b.bits), b.ulps << (bits - b.bits)
    return abs(fa - fb) <= ua + ub


def _anchor(c, f) -> None:
    """eval_mzv at 2^-200 holds f(pi) for pi in the Machin interval;
    f is increasing in pi."""
    r = eval_mzv(C(c), 2.0**-200)
    assert r.ulps << 200 <= 1 << r.bits  # the bound is at most 2^-200
    assert _encloses(r, f(PI_LO), f(PI_HI)), c


class TestEvalMzv:
    def test_depth_one_anchors(self):
        r = eval_mzv(C((2,)), 1e-6)
        assert abs(r.value - ZETA2) <= 1e-6
        assert abs(r.value - ZETA2) <= r.tail_estimate
        assert abs(eval_mzv(C((3,)), 1e-6).value - ZETA3) <= 1e-6
        assert abs(eval_mzv(C((4,)), 1e-6).value - ZETA4) <= 1e-6

    def test_euler_pair(self):
        a = eval_mzv(C((3,)), 1e-6).value
        b = eval_mzv(C((2, 1)), 1e-6).value
        assert abs(a - b) <= 2e-6

    def test_two_two(self):
        # (2)*(2) = (4) + 2(2,2), so zeta(2,2) = (zeta(2)^2 - zeta(4))/2
        v = eval_mzv(C((2, 2)), 1e-5).value
        z2 = eval_mzv(C((2,)), 1e-6).value
        z4 = eval_mzv(C((4,)), 1e-6).value
        assert abs(v - (z2 * z2 - z4) / 2) <= 1e-4

    def test_rejects_divergent(self):
        with pytest.raises(ValueError):
            eval_mzv(C((1, 2)), 1e-3)
        with pytest.raises(ValueError):
            eval_mzv(C((2,)), 0.0)

    @pytest.mark.parametrize("tol, max_terms", [
        (math.inf, 10), (math.nan, 10), (-1e-3, 10), (0.0, 10), (1e-3, 0), (1e-3, -5),
    ])
    def test_input_contract(self, tol, max_terms):
        with pytest.raises(ValueError):
            eval_mzv(C((2,)), tol, max_terms)

    def test_tolerance_unreachable(self):
        # 1e-9 needs a cutoff near 40; a cap of 10 leaves a bound near 1e-3
        with pytest.raises(ToleranceUnreachable) as err:
            eval_mzv(C((2, 1)), 1e-9, max_terms=10)
        best = err.value.best
        assert isinstance(best, EvalResult)
        assert best.terms_used == 10
        assert abs(best.value - ZETA3) < 1e-2
        assert abs(best.value - ZETA3) <= best.tail_estimate

    def test_tail_estimate_decreases(self):
        # the proven bound meets every tolerance, shrinks with it, and the
        # cutoff grows only linearly in log(1/tol): each series falls like 2^-n
        for comp in [C((2,)), C((2, 1)), C((2, 1, 1)), C((3, 1, 2)), C((2, 1, 1, 1, 1, 1))]:
            tails = []
            for p in (10, 30, 60, 120, 240):
                r = eval_mzv(comp, 2.0**-p)
                assert r.tail_estimate <= 2.0**-p
                assert r.terms_used <= p + 32, (comp, p)
                tails.append(r.tail_estimate)
            assert tails == sorted(tails, reverse=True)
            assert len(set(tails)) == len(tails)

    @settings(max_examples=40, deadline=None)
    @given(compositions(max_entry=4, max_depth=4))
    def test_monotone_refinement(self, c):
        # the intervals of one polyzeta at two precisions overlap
        a = eval_mzv(c, 2.0**-24)
        b = eval_mzv(c, 2.0**-90)
        assert b.bits > a.bits
        assert _overlap(a, b), c

    def test_even_zeta_anchors(self):
        for k in range(1, 6):
            _anchor((2 * k,), lambda pi, k=k: _even_zeta(k, pi))

    def test_twos_anchors(self):
        # zeta({2}^n) = pi^(2n) / (2n+1)!
        for n in range(1, 6):
            _anchor((2,) * n, lambda pi, n=n: pi ** (2 * n) / math.factorial(2 * n + 1))

    def test_three_one_anchor(self):
        _anchor((3, 1), lambda pi: pi**4 / 360)

    def test_two_ones_anchors(self):
        # zeta(2, 1^k) = zeta(k + 2), anchored where k + 2 is even
        for k in (0, 2, 4, 6, 8):
            _anchor((2,) + (1,) * k, lambda pi, k=k: _even_zeta(k // 2 + 1, pi))


def _check_relation(body, tol):
    """verify_numeric on the one relation body = 0."""
    w = body.weight or 2
    rel = Relation(body, "t", C((w,)))
    return verify_numeric(RelationSet(w, [rel], ("t",), False), tol)


class TestEvalLincomb:
    """A formal combination is evaluated by verify_numeric: its residual
    is summed exactly against the proven bounds of its terms.  At tol
    1e-7 a passing relation has |R| <= 1e-7 * mass, under the absolute
    bounds below for these masses (about 2.4 and 2.2)."""

    def test_euler_relation(self):
        rep = _check_relation(LinComb({C((2, 1)): 1, C((3,)): -1}), 1e-7)
        assert rep.ok and rep.residuals[0][2] <= 2e-6

    def test_weight_four_relation(self):
        rep = _check_relation(LinComb({C((3, 1)): 4, C((4,)): -1}), 1e-7)
        assert rep.ok and rep.residuals[0][2] <= 5e-6

    def test_empty_is_zero(self):
        rep = _check_relation(LinComb(), 1e-6)
        assert rep.ok and rep.residuals[0][2] == 0.0

    def test_divergent_rejected(self):
        with pytest.raises(ValueError, match="not convergent"):
            _check_relation(LinComb({C((1, 2)): 1}), 1e-3)


class TestConsistency:
    def test_product_homomorphism(self):
        # eval(x)*eval(y) == eval(stuffle(x, y)) within tolerance
        pairs = [
            (C((2,)), C((2,))),
            (C((2,)), C((3,))),
            (C((2, 1)), C((2,))),
            (C((3,)), C((2, 2))),
        ]
        for x, y in pairs:
            lhs = eval_mzv(x, 1e-6).value * eval_mzv(y, 1e-6).value
            rhs = math.fsum(float(c) * eval_mzv(t, 1e-5).value for t, c in stuffle(x, y).items())
            assert abs(lhs - rhs) <= 1e-4, (x, y)

    def test_duality_numerics(self):
        # the proven intervals of z and dual(z) overlap at 2^-60
        for w in range(3, 11):
            for z in enumerate_weight(w):
                a = eval_mzv(z, 2.0**-60)
                b = eval_mzv(dual(z), 2.0**-60)
                assert max(a.tail_estimate, b.tail_estimate) <= 2.0**-60
                assert _overlap(a, b), z


class TestPerCallState:
    """The referee's memos live for one call, so they are bounded by it."""

    def test_no_module_memo_grows(self):
        def sizes() -> dict[str, int]:
            out = {}
            for name, value in vars(numeric).items():
                if isinstance(value, dict) and not name.startswith("__"):
                    out[name] = len(value)
                elif hasattr(value, "cache_info"):
                    out[name] = value.cache_info().currsize
            return out

        before = sizes()
        eval_mzv(C((3, 1, 2)), 2.0**-77)
        verify_numeric(generate_relations(10), 3e-5)
        assert sizes() == before

    def test_each_series_summed_once_per_scale(self, monkeypatch):
        calls = Counter()
        lam = numeric._lam

        def counted(t, bits, n):
            calls[tuple(t), bits] += 1
            return lam(t, bits, n)

        monkeypatch.setattr(numeric, "_lam", counted)
        rep = verify_numeric(generate_relations(10), 1e-3)
        assert rep.ok and calls
        assert max(calls.values()) == 1


def test_import_leaves_numpy_out():
    # the package runs on the standard library alone
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = ("import sys, polyzeta, polyzeta.cli, polyzeta.numeric; "
            "sys.exit('numpy' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
