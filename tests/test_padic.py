import itertools
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from galdesk import padics as pa
from galdesk import padic_weights as pw
from series_payload import series_payload


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def log_oracle(residue: int, p: int, target_prec: int) -> int:
    """Direct alternating-series evaluation at much higher working precision."""
    work = target_prec + 16
    mod = p**work
    x = (residue - 1) % mod
    assert x % p == 0, "oracle needs a 1-unit"
    total = 0
    power = 1
    for k in range(1, work + 1):
        power = power * x % mod
        v = 0
        kk = k
        while kk % p == 0:
            kk //= p
            v += 1
        assert power % p**v == 0
        term = (power // p**v) * pow(kk, -1, mod) % mod
        total = (total + (term if k % 2 == 1 else -term)) % mod
    return total % p**target_prec


def hensel_root_count(coeffs: list[int], p: int, levels: int = 24) -> int:
    """Count roots in pZ_p by residue refinement with a Hensel stopping rule.

    coeffs are integer polynomial coefficients, constant term first.  Only
    sound for squarefree polynomials whose roots in pZ_p are simple.
    """
    def evaluate(x, mod):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % mod
        return acc

    def derivative(x, mod):
        acc = 0
        for i, c in reversed(list(enumerate(coeffs))):
            if i == 0:
                continue
            acc = (acc * x + i * c) % mod
        return acc

    def val(n, mod_exp):
        if n % p**mod_exp == 0:
            return mod_exp
        v = 0
        while n % p == 0:
            n //= p
            v += 1
        return v

    count = 0
    frontier = [(0, 1)]  # residues of pZ_p, starting from x = 0 mod p
    for _ in range(1, levels):
        nxt = []
        for x, lv in frontier:
            step = p**lv
            for t in range(p):
                y = x + t * step
                fy = evaluate(y, p ** (2 * levels))
                vf = val(fy, 2 * levels)
                dfy = derivative(y, p**levels)
                vd = val(dfy, levels)
                # Newton from y converges to a root inside this residue class
                # iff |f/f'^2| < 1 and the first step stays in the class.
                if vf > 2 * vd and vf - vd >= lv + 1:
                    count += 1
                elif vf >= lv + 1:
                    nxt.append((y, lv + 1))
        frontier = nxt
        if not frontier:
            break
    assert not frontier, "root isolation did not terminate"
    return count


# ---------------------------------------------------------------------------
# PadicInt basics
# ---------------------------------------------------------------------------

def test_precision_tracking():
    a = pa.PadicInt(5, 7, 8)
    b = pa.PadicInt(5, 3, 4)
    assert (a + b).prec == 4
    assert (a * b).prec == 4
    assert (a - b).prec == 4


def test_valuation():
    assert pa.PadicInt(5, 50, 4).valuation() == 2
    assert pa.PadicInt(5, 0, 4).valuation() is None
    assert pa.PadicInt(5, 7, 4).valuation() == 0


def test_divide_by_int():
    x = pa.PadicInt(5, 50, 4)
    y = x.divide_by_int(10)
    assert y.prec == 3 and y.residue == 5
    with pytest.raises(pa.PrecisionError):
        pa.PadicInt(5, 3, 4).divide_by_int(5)


def test_padic_refusals():
    with pytest.raises(pa.PrecisionError, match="mixed primes"):
        pa.PadicInt(5, 1, 4) + pa.PadicInt(7, 1, 4)
    with pytest.raises(pa.PrecisionError, match="inverse of a non-unit"):
        pa.PadicInt(5, 10, 4).unit_inverse()
    with pytest.raises(ZeroDivisionError):
        pa.PadicInt(5, 10, 4).divide_by_int(0)
    # p^v with v = prec leaves no digit; v = prec - 1 leaves one.
    with pytest.raises(pa.PrecisionError, match="exhausts the precision"):
        pa.PadicInt(5, 0, 2).divide_by_int(25)
    assert pa.PadicInt(5, 75, 3).divide_by_int(25) == pa.PadicInt(5, 3, 1)
    with pytest.raises(pa.PrecisionError, match="Teichmuller lift of 0"):
        pa.teichmuller(10, 5, 4)
    with pytest.raises(pa.PrecisionError, match="no Teichmuller part"):
        pa.teichmuller_part(pa.PadicInt(5, 10, 4))
    with pytest.raises(pa.PrecisionError, match="logarithm of a non-unit"):
        pa.log_unit(pa.PadicInt(5, 10, 4))


@given(st.sampled_from([5, 7, 11]), st.integers(1, 10**6), st.integers(1, 10**6))
@settings(max_examples=60, deadline=None)
def test_unit_inverse(p, a, b):
    if a % p == 0:
        a += 1
    x = pa.PadicInt(p, a, 6)
    assert (x * x.unit_inverse()).residue == 1


def test_teichmuller():
    w = pa.teichmuller(2, 5, 8)
    assert pow(w.residue, 4, 5**8) == 1
    assert w.residue % 5 == 2
    # The p - 1 roots of unity are distinct mod p, so any two differ by a unit.
    roots = [pa.teichmuller(a, 5, 6) for a in range(1, 5)]
    assert all(pow(z.residue, 4, 5**6) == 1 for z in roots)
    assert sorted(z.residue % 5 for z in roots) == [1, 2, 3, 4]


def iterated_teichmuller(a: int, p: int, prec: int) -> int:
    """The lift as prec + 1 successive p-th powers mod p^prec."""
    r, m = a % p**prec, p**prec
    for _ in range(prec + 1):
        r = pow(r, p, m)
    return r


# At 2^31 - 1 one lift to prec 64 is a power with a 2015-bit exponent mod a
# 1984-bit modulus, so that prime's grid is cut: every unit runs to prec 16,
# and 2 and 49 to 64.
TEICHMULLER_GRID = [(p, a, prec) for p in (3, 5, 7, 13) for a in range(1, p)
                    for prec in [*range(1, 65), 256]] + \
    [(2**31 - 1, a, prec) for a in range(1, 50)
     for prec in range(1, 65 if a in (2, 49) else 17)]


def test_teichmuller_is_the_iterated_lift():
    for p, a, prec in TEICHMULLER_GRID:
        assert pa.teichmuller(a, p, prec) == pa.PadicInt(p, iterated_teichmuller(a, p, prec), prec)


# ---------------------------------------------------------------------------
# Logarithm
# ---------------------------------------------------------------------------

def test_log_trivial_and_torsion():
    one = pa.PadicInt.one(5, 8)
    assert pa.log_one_unit(one).is_zero_at_prec()
    w = pa.teichmuller(2, 5, 8)
    assert pa.log_unit(w).is_zero_at_prec()
    for a in range(1, 5):
        assert pa.log_unit(pa.teichmuller(a, 5, 8)).is_zero_at_prec()


def test_log_1_plus_5_against_oracle():
    val = pa.log_one_unit(pa.PadicInt(5, 6, 8))
    assert val.prec >= 8 - 1
    assert val.valuation() == 1
    expected = log_oracle(6, 5, val.prec)
    assert val.residue % 5**val.prec == expected


def test_log_precision_loss():
    # The divisions by k <= n cost max v_p(k) = floor(log_p n) digits, no more.
    for p in (3, 5, 7):
        for n in range(1, 30):
            lost = max(k for k in range(n) if p**k <= n)
            assert pa.log_one_unit(pa.PadicInt(p, 1 + p, n)).prec == n - lost, (p, n)


def test_log_additivity_200_pairs():
    rng = random.Random(8)
    p, n = 5, 8
    for _ in range(200):
        u = pa.PadicInt(p, 1 + p * rng.randrange(1, p ** (n - 1)), n)
        v = pa.PadicInt(p, 1 + p * rng.randrange(1, p ** (n - 1)), n)
        lu, lv, luv = pa.log_one_unit(u), pa.log_one_unit(v), pa.log_one_unit(u * v)
        assert luv.eq_at_shared_precision(lu + lv)


def test_log_rejects_non_units():
    with pytest.raises(pa.PrecisionError):
        pa.log_unit(pa.PadicInt(5, 10, 4))
    with pytest.raises(pa.PrecisionError):
        pa.log_one_unit(pa.PadicInt(5, 2, 4))


# ---------------------------------------------------------------------------
# Dict-of-PadicInt series: the per-term arithmetic the dense layout replaced,
# kept as the oracle for it
# ---------------------------------------------------------------------------

def _oracle_monomials(nvars: int, max_degree: int):
    for total in range(max_degree + 1):
        for cuts in itertools.combinations(range(total + nvars - 1), nvars - 1):
            prev = -1
            parts = []
            for c in cuts:
                parts.append(c - prev - 1)
                prev = c
            parts.append(total + nvars - 2 - prev)
            yield tuple(parts)


@dataclass(eq=False)
class DictSeries:
    """Finitely many PadicInt coefficients on multi-indices of degree <= cap."""

    p: int
    nvars: int
    prec: int
    degree_cap: int
    coeffs: dict[tuple[int, ...], pa.PadicInt] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for idx, c in self.coeffs.items():
            idx = tuple(int(i) for i in idx)
            if len(idx) != self.nvars or any(i < 0 for i in idx):
                raise pw.SeriesError(f"bad exponent {idx}")
            if sum(idx) > self.degree_cap:
                continue
            if not isinstance(c, pa.PadicInt):
                c = pa.PadicInt(self.p, int(c), self.prec)
            clean[idx] = pa.PadicInt(c.p, c.residue, min(c.prec, self.prec))
        self.coeffs = clean

    def coeff(self, idx) -> pa.PadicInt:
        idx = tuple(idx)
        return self.coeffs.get(idx, pa.PadicInt.zero(self.p, self.prec))

    @property
    def constant_term(self) -> pa.PadicInt:
        return self.coeff(tuple(0 for _ in range(self.nvars)))

    def is_unit(self) -> bool:
        return self.constant_term.is_unit()

    def is_zero_at_prec(self) -> bool:
        return all(c.is_zero_at_prec() for c in self.coeffs.values())

    def _check_compatible(self, other: "DictSeries"):
        if (self.p, self.nvars) != (other.p, other.nvars):
            raise pw.SeriesError("incompatible series")

    def __add__(self, other: "DictSeries") -> "DictSeries":
        self._check_compatible(other)
        prec = min(self.prec, other.prec)
        cap = min(self.degree_cap, other.degree_cap)
        out = {}
        for idx in set(self.coeffs) | set(other.coeffs):
            out[idx] = self.coeff(idx) + other.coeff(idx)
        return DictSeries(self.p, self.nvars, prec, cap, out)

    def __neg__(self) -> "DictSeries":
        return DictSeries(self.p, self.nvars, self.prec, self.degree_cap,
                          {i: -c for i, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "DictSeries") -> "DictSeries":
        self._check_compatible(other)
        prec = min(self.prec, other.prec)
        cap = min(self.degree_cap, other.degree_cap)
        out: dict[tuple[int, ...], pa.PadicInt] = {}
        for i1, c1 in self.coeffs.items():
            for i2, c2 in other.coeffs.items():
                idx = tuple(a + b for a, b in zip(i1, i2))
                if sum(idx) > cap:
                    continue
                prod = c1 * c2
                out[idx] = out[idx] + prod if idx in out else prod
        return DictSeries(self.p, self.nvars, prec, cap, out)

    def scale(self, c: pa.PadicInt) -> "DictSeries":
        return DictSeries(self.p, self.nvars, min(self.prec, c.prec), self.degree_cap,
                          {i: x * c for i, x in self.coeffs.items()})

    def inverse(self) -> "DictSeries":
        """Unit-series inverse to the degree cap."""
        if not self.is_unit():
            raise pw.SeriesError("inverse of a non-unit series")
        c0_inv = self.constant_term.unit_inverse()
        out = {tuple(0 for _ in range(self.nvars)): c0_inv}
        for idx in _oracle_monomials(self.nvars, self.degree_cap):
            if sum(idx) == 0:
                continue
            acc = pa.PadicInt.zero(self.p, self.prec)
            for jdx, cj in self.coeffs.items():
                if sum(jdx) == 0:
                    continue
                kdx = tuple(a - b for a, b in zip(idx, jdx))
                if any(x < 0 for x in kdx):
                    continue
                if kdx in out:
                    acc = acc + cj * out[kdx]
            out[idx] = -(c0_inv * acc)
        return DictSeries(self.p, self.nvars, self.prec, self.degree_cap, out)

    def divide(self, other: "DictSeries") -> "DictSeries":
        return self * other.inverse()

    def specialize_to_axis(self, var: int) -> "DictSeries":
        """One-variable series: every other variable set to 0."""
        out = {}
        for idx, c in self.coeffs.items():
            if all(v == 0 for i, v in enumerate(idx) if i != var):
                out[(idx[var],)] = c
        return DictSeries(self.p, 1, self.prec, self.degree_cap, out)

    def serialize(self) -> dict:
        return {
            "p": self.p,
            "nvars": self.nvars,
            "prec": self.prec,
            "degree_cap": self.degree_cap,
            "coeffs": sorted(
                [[list(i), str(c.residue), c.prec] for i, c in self.coeffs.items()]
            ),
        }


# ---------------------------------------------------------------------------
# Series arithmetic
# ---------------------------------------------------------------------------

def series(p, nvars, prec, cap, terms):
    return pw.TruncatedSeries(p, nvars, prec, cap,
                              {tuple(i): pa.PadicInt(p, c, prec) for i, c in terms})


def test_series_inverse_roundtrip():
    g = series(5, 2, 6, 5, [((0, 0), 2), ((1, 0), 3), ((0, 2), 1)])
    prod = g * g.inverse()
    one = pw.TruncatedSeries(5, 2, 6, 5, {(0, 0): 1})
    assert (prod - one).is_zero_at_prec()


def test_series_inverse_needs_unit():
    g = series(5, 1, 6, 5, [((0,), 5), ((1,), 1)])
    with pytest.raises(pw.SeriesError):
        g.inverse()


def _series_equal(a, b):
    return (a - b).is_zero_at_prec()


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_series_ring_laws(data):
    p = data.draw(st.sampled_from([5, 7]))

    def mk():
        n_terms = data.draw(st.integers(0, 5))
        coeffs = {}
        for _ in range(n_terms):
            idx = (data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4)))
            coeffs[idx] = pa.PadicInt(p, data.draw(st.integers(0, p**5 - 1)), 5)
        return pw.TruncatedSeries(p, 2, 5, 4, coeffs)

    f, g, h = mk(), mk(), mk()
    assert _series_equal(f * g, g * f)
    assert _series_equal((f * g) * h, f * (g * h))
    assert _series_equal(f * (g + h), f * g + f * h)


def _draw_terms(data, p, nvars, prec, cap, unit_constant=False):
    """Terms up to one degree past the cap: PadicInts at their own precision
    (some above the series precision) or ints, with present zeros among them."""
    terms = {}
    for _ in range(data.draw(st.integers(0, 6))):
        idx = tuple(data.draw(st.integers(0, cap + 1)) for _ in range(nvars))
        n = data.draw(st.integers(1, prec + 2))
        r = data.draw(st.one_of(st.just(0), st.integers(0, p**n - 1)))
        terms[idx] = r if data.draw(st.booleans()) else pa.PadicInt(p, r, n)
    if unit_constant:
        n = data.draw(st.integers(1, prec + 2))
        terms[(0,) * nvars] = pa.PadicInt(p, data.draw(st.integers(1, p - 1)), n)
    return terms


def _both(data, p, nvars, unit_constant=False):
    prec = data.draw(st.integers(1, 9))
    cap = data.draw(st.integers(0, 5))
    terms = _draw_terms(data, p, nvars, prec, cap, unit_constant)
    return (pw.TruncatedSeries(p, nvars, prec, cap, terms),
            DictSeries(p, nvars, prec, cap, terms))


def _agree(dense, oracle):
    # Every residue is reduced mod p^prec of its own term; an absent term holds 0.
    assert all(0 <= r < dense.p ** int(n) for r, n in zip(dense.residues, dense.precs))
    assert series_payload(dense) == oracle.serialize()
    assert dense.is_zero_at_prec() == oracle.is_zero_at_prec()


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_dense_series_match_dict_oracle(data):
    p = data.draw(st.sampled_from([3, 5, 7]))
    nvars = data.draw(st.integers(1, 4))
    f, f0 = _both(data, p, nvars)
    g, g0 = _both(data, p, nvars)
    u, u0 = _both(data, p, nvars, unit_constant=True)
    _agree(f, f0)
    _agree(f + g, f0 + g0)
    _agree(f - g, f0 - g0)
    _agree(f * g, f0 * g0)
    _agree(-f, -f0)
    c = pa.PadicInt(p, data.draw(st.integers(0, p**6)), data.draw(st.integers(1, 10)))
    _agree(f.scale(c), f0.scale(c))
    _agree(u.inverse(), u0.inverse())
    _agree(f.divide(u), f0.divide(u0))
    var = data.draw(st.integers(0, nvars - 1))
    _agree(f.specialize_to_axis(var), f0.specialize_to_axis(var))
    idx = tuple(data.draw(st.integers(0, 2)) for _ in range(nvars))
    assert f.terms().get(idx) == f0.coeffs.get(idx)


def test_dense_times_dense_exact_at_nvars4_cap10():
    """Every one of the 1001 terms present, residues mod 7^16, so the pair
    products overflow int64.  The product equals the oracle's, and g times
    its inverse is exactly 1 with every term at full precision."""
    rng = random.Random(4)
    p, prec = 7, 16
    monomials = list(_oracle_monomials(4, 10))
    f_terms = {m: pa.PadicInt(p, rng.randrange(p**prec), prec) for m in monomials}
    g_terms = {m: pa.PadicInt(p, rng.randrange(p**prec), prec) for m in monomials}
    g_terms[monomials[0]] = pa.PadicInt(p, 3, prec)
    f, g = pw.TruncatedSeries(p, 4, prec, 10, f_terms), pw.TruncatedSeries(p, 4, prec, 10, g_terms)
    _agree(f * g, DictSeries(p, 4, prec, 10, f_terms) * DictSeries(p, 4, prec, 10, g_terms))
    one = g * g.inverse()
    assert series_payload(one)["coeffs"] == sorted([list(m), str(int(i == 0)), prec]
                                               for i, m in enumerate(monomials))


def test_series_budget():
    with pytest.raises(pw.SeriesError, match="budget"):
        pw.TruncatedSeries(5, 8, 8, 40, {(0,) * 8: 1})
    # C(29, 5) = 118,755 monomials, just over 10^5.
    with pytest.raises(pw.SeriesError, match="budget of 100000 monomials"):
        pw.TruncatedSeries(5, 5, 8, 24, {})
    with pytest.raises(pw.SeriesError):
        pw.TruncatedSeries(5, 70, 8, 1, {})
    assert len(pw.TruncatedSeries(5, 4, 8, 20, {}).residues) == 10626
    # 62 variables to degree 1: codes up to 2^62 - 1 still fit int64, and
    # the last axis is found by its code.
    edge = pw.TruncatedSeries(5, 62, 2, 1, {(0,) * 62: 1, (0,) * 61 + (1,): 2})
    assert len(edge.residues) == 63
    assert series_payload(edge.specialize_to_axis(61))["coeffs"] == [[[0], "1", 2], [[1], "2", 2]]
    with pytest.raises(pw.SeriesError, match="monomial codes overflow int64"):
        pw.TruncatedSeries(5, 40, 2, 2, {})  # 3^40 > 2^62
    with pytest.raises(pw.SeriesError, match="monomial codes overflow int64"):
        pw.TruncatedSeries(5, 27, 2, 4, {})  # 2^62 < 5^27 < 2^63: a sum of two codes overflows


def test_series_refuses_a_p_that_is_not_an_odd_prime():
    for p in (1, 2, 6, 25):
        with pytest.raises(pw.SeriesError, match="^p must be an odd prime$"):
            pw.TruncatedSeries(p, 1, 8, 4, {(0,): 1})


def test_series_refuses_bad_precisions_and_exponents():
    for prec in (0, 257):
        with pytest.raises(pw.SeriesError, match="series precision must be between 1 and 256"):
            pw.TruncatedSeries(5, 1, prec, 4, {})
    for idx in ((1,), (0, -1)):
        with pytest.raises(pw.SeriesError, match="bad exponent"):
            pw.TruncatedSeries(5, 2, 8, 4, {idx: 1})


def test_series_arithmetic_refuses_incompatible_series():
    one = pw.TruncatedSeries(5, 1, 8, 4, {(0,): 1})
    for other in (pw.TruncatedSeries(7, 1, 8, 4, {(0,): 1}),
                  pw.TruncatedSeries(5, 2, 8, 4, {(0, 0): 1})):
        with pytest.raises(pw.SeriesError, match="incompatible series"):
            one * other
        with pytest.raises(pw.SeriesError, match="incompatible series"):
            one - other


def test_sum_keeps_a_term_known_to_precision_one():
    rough = pw.TruncatedSeries(5, 1, 8, 4, {(1,): pa.PadicInt(5, 2, 1)})
    exact = pw.TruncatedSeries(5, 1, 8, 4, {(1,): 3})
    for total in (rough + exact, exact + rough):
        assert total.terms()[(1,)] == pa.PadicInt(5, 0, 1)


def test_series_rejects_other_primes():
    with pytest.raises(pw.SeriesError):
        pw.TruncatedSeries(5, 1, 8, 4, {(0,): pa.PadicInt(7, 1, 8)})
    with pytest.raises(pw.SeriesError):
        pw.TruncatedSeries(5, 1, 8, 4, {(0,): 1}).scale(pa.PadicInt(7, 1, 8))


def test_traced_series_methods_are_defined_on_the_class():
    """perfbench/tracing.py wraps these methods by reading vars(cls)."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import tracing
    finally:
        sys.path.pop(0)
    for name in tracing.METHODS["padic_weights"]["TruncatedSeries"]:
        assert name in vars(pw.TruncatedSeries), name


def test_dual_reduction():
    # Coefficients 37, 28 and 26 reduce to 2, 3 and 1 mod 5.
    g = series(5, 3, 6, 4, [((0, 0, 0), 37), ((0, 1, 0), 28), ((0, 2, 0), 4), ((1, 0, 0), 26)])
    assert g.dual_reduction(1) == (2, 3)
    assert g.dual_reduction(0) == (2, 1)
    assert g.dual_reduction(2) == (2, 0)


@pytest.mark.parametrize("method, var", [("dual_reduction", 2), ("dual_reduction", -1),
                                         ("specialize_to_axis", -1), ("specialize_to_axis", 2)])
def test_out_of_range_variable_is_refused(method, var):
    g = series(5, 2, 6, 4, [((0, 0), 2), ((1, 0), 3), ((0, 1), 4)])
    with pytest.raises(pw.SeriesError, match=f"no variable {var} in a series in 2 variables"):
        getattr(g, method)(var)


# The slot reads and the one-pass difference against the PadicInt routes they
# replace, at small primes and at one whose powers outgrow int64 at once.
ORACLE_PRIMES = [3, 5, 7, 2**31 - 1]


def _pinned_terms(data, p, nvars, prec, cap):
    """_draw_terms, with the constant and each linear monomial drawn apart:
    absent, a present zero, a unit or a multiple of p, at its own precision."""
    terms = _draw_terms(data, p, nvars, prec, cap)
    for m in [(0,) * nvars] + [tuple(int(k == i) for k in range(nvars)) for i in range(nvars)]:
        terms.pop(m, None)
        kind = data.draw(st.sampled_from(["absent", "zero", "unit", "multiple"]))
        if kind != "absent":
            r = {"zero": 0, "unit": data.draw(st.integers(1, p - 1)) + p * data.draw(st.integers(0, p)),
                 "multiple": p * data.draw(st.integers(1, p))}[kind]
            terms[m] = pa.PadicInt(p, r, data.draw(st.integers(1, prec + 2)))
    return terms


@given(st.data())
@settings(max_examples=150, deadline=None, database=None)
def test_unit_and_dual_reduction_match_the_padic_route(data):
    """is_unit and dual_reduction read slot 0 and the linear slot off the
    arrays; the oracle reads the dict series' PadicInts, a zero at the series
    precision for an absent term and for the linear term at cap 0."""
    p, nvars = data.draw(st.sampled_from(ORACLE_PRIMES)), data.draw(st.integers(1, 4))
    prec, cap = data.draw(st.integers(1, 9)), data.draw(st.integers(0, 3))
    terms = _pinned_terms(data, p, nvars, prec, cap)
    f, f0 = pw.TruncatedSeries(p, nvars, prec, cap, terms), DictSeries(p, nvars, prec, cap, terms)
    zero = (0,) * nvars
    assert f.is_unit() == f0.constant_term.is_unit()
    for var in range(nvars):
        e = tuple(int(k == var) for k in range(nvars))
        assert f.dual_reduction(var) == (f0.coeff(zero).residue % p, f0.coeff(e).residue % p)


def scale_then_subtract(f, h):
    """zeta0 and f - zeta0 h by scaling h and subtracting, with zeta0 lifted
    from the PadicInt constant terms."""
    zero = (0,) * f.nvars
    f0, h0 = f.terms()[zero], h.terms()[zero]
    zeta0 = pa.teichmuller(f0.residue * pow(h0.residue, -1, f.p), f.p, min(f.prec, h.prec))
    return zeta0, f - h.scale(zeta0)


def verdict_of_difference(zeta0, diff):
    """Constant when diff vanishes, else the first axis with a unit term and
    the first index of one, else Undetermined."""
    if diff.is_zero_at_prec():
        return pw.Constant(zeta0)
    for var in range(diff.nvars):
        axis = sorted(diff.specialize_to_axis(var).terms().items())
        if (degree := next((i for (i,), c in axis if c.is_unit()), None)) is not None:
            return pw.NonconstantWitness(zeta0, var, degree)
    return pw.Undetermined(zeta0, None)


def constancy_difference(f, h):
    """constancy_test's verdict and the difference f - zeta0 h it formed,
    caught as the first series it asks whether it vanishes."""
    seen, vanishes = [], pw.TruncatedSeries.is_zero_at_prec

    def spy(s):
        seen.append(s)
        return vanishes(s)

    with mock.patch.object(pw.TruncatedSeries, "is_zero_at_prec", spy):
        verdict = pw.constancy_test(f, h)
    return verdict, seen[0]


def _unit_pair(data, p):
    """Unit series f and h with their own caps (0 to 5) and precisions, terms
    at their own precision, absent terms and present zeros.  f is random, or
    zeta h term by term, or that with one term off the constant redrawn."""
    nvars = data.draw(st.integers(1, 4))
    (prec_f, cap_f), (prec_h, cap_h) = ((data.draw(st.integers(1, 9)), data.draw(st.integers(0, 5)))
                                        for _ in "fh")
    h_terms = _draw_terms(data, p, nvars, prec_h, cap_h, unit_constant=True)
    kind = data.draw(st.sampled_from(["random", "constant", "bumped"]))
    if kind == "random":
        f_terms = _draw_terms(data, p, nvars, prec_f, cap_f, unit_constant=True)
    else:
        zeta = pa.teichmuller(data.draw(st.integers(1, p - 1)), p, max(prec_f, prec_h) + 2).residue
        f_terms = {m: pa.PadicInt(p, zeta * c.residue, c.prec) if isinstance(c, pa.PadicInt)
                   else zeta * c for m, c in h_terms.items()}
    if kind == "bumped":
        m = tuple(data.draw(st.integers(0, cap_f)) for _ in range(nvars))
        m = m if any(m) else (1,) + m[1:]
        f_terms[m] = pa.PadicInt(p, data.draw(st.integers(0, p ** (prec_f + 1))),
                                 data.draw(st.integers(1, prec_f + 2)))
    return (pw.TruncatedSeries(p, nvars, prec_f, cap_f, f_terms),
            pw.TruncatedSeries(p, nvars, prec_h, cap_h, h_terms))


@given(st.data())
@settings(max_examples=150, deadline=None, database=None)
def test_one_pass_difference_matches_scale_then_subtract(data):
    """The difference that constancy_test forms in one pass has the bytes of
    f - h.scale(zeta0): prec, cap, every residue and every precision; and
    the verdict is the one that difference gives."""
    p = data.draw(st.sampled_from(ORACLE_PRIMES))
    f, h = _unit_pair(data, p)
    verdict, diff = constancy_difference(f, h)
    zeta0, oracle = scale_then_subtract(f, h)
    assert (diff.p, diff.nvars, diff.prec, diff.degree_cap) == \
        (oracle.p, oracle.nvars, oracle.prec, oracle.degree_cap)
    assert diff.residues.tolist() == oracle.residues.tolist()
    assert diff.precs.tolist() == oracle.precs.tolist()
    assert verdict == verdict_of_difference(zeta0, oracle)


def dense_termwise(self, other, op):
    """TruncatedSeries._termwise as it was before it skipped the absent
    slots: op on the whole residue arrays, each slot at the smaller of its
    two precisions, an absent term at its series precision."""
    self._check_compatible(other)
    prec = min(self.prec, other.prec)
    cap = min(self.degree_cap, other.degree_cap)
    n = len(pw._layout(self.nvars, cap).monomials)
    pa, pb = self.precs[:n], other.precs[:n]
    # An absent term is a zero known to the full precision of its series.
    precs = np.minimum(np.where(pa > 0, pa, prec), np.where(pb > 0, pb, prec))
    precs = np.where((pa > 0) | (pb > 0), np.minimum(precs, prec), 0)
    residues = op(self.residues[:n], other.residues[:n]) % pw._powers(self.p, prec)[precs]
    return self._from_arrays(self.p, self.nvars, prec, cap, residues, precs)


def _dense_terms(data, p, nvars, prec, cap, unit_constant=False):
    """A term on every monomial to the cap, each at its own precision (some
    above the series precision), present zeros among them."""
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    terms = {}
    for m in _oracle_monomials(nvars, cap):
        n = rng.randint(1, prec + 2)
        terms[m] = pa.PadicInt(p, rng.choice([0, rng.randrange(p**n)]), n)
    if unit_constant:
        terms[(0,) * nvars] = pa.PadicInt(p, rng.randrange(1, p), rng.randint(1, prec + 2))
    return terms


def _sparse_or_dense_pair(data, p):
    """Two series in the same variables with their own caps and precisions,
    each sparse (_draw_terms) or dense, with unit constant terms."""
    nvars = data.draw(st.integers(1, 4))
    out = []
    for _ in "fh":
        prec, cap = data.draw(st.integers(1, 9)), data.draw(st.integers(0, 5 if nvars < 4 else 3))
        draw = data.draw(st.sampled_from([_draw_terms, _dense_terms]))
        out.append(pw.TruncatedSeries(p, nvars, prec, cap,
                                      draw(data, p, nvars, prec, cap, unit_constant=True)))
    return out


def _same_bytes(s, t):
    assert (s.p, s.nvars, s.prec, s.degree_cap) == (t.p, t.nvars, t.prec, t.degree_cap)
    assert s.residues.dtype == t.residues.dtype == object
    assert s.residues.tolist() == t.residues.tolist()
    assert s.precs.dtype == t.precs.dtype == np.int64
    assert s.precs.tolist() == t.precs.tolist()


@given(st.data())
@settings(max_examples=150, deadline=None, database=None)
def test_live_slot_pass_matches_the_dense_pass(data):
    """+, - and constancy_test's difference, formed on the slots where
    either series has a term, have the bytes of the dense pass over every
    slot: absent terms, present zeros, mixed precisions, unequal caps and
    precisions, sparse and dense series."""
    p = data.draw(st.sampled_from(ORACLE_PRIMES))
    f, h = data.draw(st.sampled_from([_unit_pair, _sparse_or_dense_pair]))(data, p)
    _same_bytes(f + h, dense_termwise(f, h, np.add))
    _same_bytes(f - h, dense_termwise(f, h, np.subtract))
    _same_bytes(h - f, dense_termwise(h, f, np.subtract))
    verdict, diff = constancy_difference(f, h)
    _same_bytes(diff, dense_termwise(f, h, lambda a, b: a - b * verdict.zeta.residue))


def combined_slots(f, h) -> list[int]:
    """constancy_test(f, h), with a count of the slots each _termwise call
    applies its op to."""
    counts, termwise = [], pw.TruncatedSeries._termwise

    def spy(self, other, op):
        counts.append(0)

        def counted(a, b):
            counts[-1] += 1
            return op(a, b)

        return termwise(self, other, counted)

    with mock.patch.object(pw.TruncatedSeries, "_termwise", spy):
        pw.constancy_test(f, h)
    return counts


def test_constancy_combines_only_present_terms():
    """A 1 + linear pair in 4 variables to degree 10 has 5 terms in 1001
    slots, and the difference combines those 5; a dense pair combines all."""
    p, nvars, prec, cap = 7, 4, 12, 10
    zeta = pa.teichmuller(3, p, prec)
    monomials = list(_oracle_monomials(nvars, cap))
    linear = {m: pa.PadicInt(p, 2 + sum(m) + m[0], prec) for m in monomials[:nvars + 1]}
    h = pw.TruncatedSeries(p, nvars, prec, cap, linear)
    assert combined_slots(h.scale(zeta), h) == [nvars + 1]
    rng = random.Random(34)
    dense = {m: pa.PadicInt(p, rng.randrange(1, p**prec), prec) for m in monomials}
    dense[monomials[0]] = pa.PadicInt(p, 5, prec)
    h = pw.TruncatedSeries(p, nvars, prec, cap, dense)
    assert combined_slots(h.scale(zeta), h) == [len(monomials)] == [1001]


@given(st.data())
@settings(max_examples=50, deadline=None, database=None)
def test_absent_terms_hold_residue_zero(data):
    """After every series operation a slot at precision 0 holds residue 0,
    which is_unit, dual_reduction and the one-pass difference read as the
    absent term's value."""
    p, nvars = data.draw(st.sampled_from(ORACLE_PRIMES)), data.draw(st.integers(1, 4))

    def draw(unit_constant):
        prec, cap = data.draw(st.integers(1, 9)), data.draw(st.integers(0, 5))
        return pw.TruncatedSeries(p, nvars, prec, cap,
                                  _draw_terms(data, p, nvars, prec, cap, unit_constant))

    f, g, u = draw(False), draw(False), draw(True)
    c = pa.PadicInt(p, data.draw(st.integers(0, p**6)), data.draw(st.integers(1, 10)))
    var = data.draw(st.integers(0, nvars - 1))
    unit_f, unit_h = _unit_pair(data, p)
    for s in (f, f + g, f - g, -f, f * g, f.scale(c), u.inverse(), f.divide(u),
              f.specialize_to_axis(var), constancy_difference(unit_f, unit_h)[1]):
        assert not any(s.residues[s.precs == 0])


# ---------------------------------------------------------------------------
# Newton polygon / Weierstrass degree
# ---------------------------------------------------------------------------

def test_weierstrass_x2_minus_p():
    g = series(5, 1, 8, 6, [((0,), -5), ((2,), 1)])
    wd = pw.weierstrass_data(g)
    assert wd.degree == 2
    assert wd.slopes == ((Fraction(1, 2), 2),)


def test_weierstrass_one_plus_x_pow5():
    # (1+X)^5 - 1 over Z_5: coefficients 5, 10, 10, 5, 1.
    g = series(5, 1, 8, 6, [((1,), 5), ((2,), 10), ((3,), 10), ((4,), 5), ((5,), 1)])
    wd = pw.weierstrass_data(g)
    assert wd.degree == 5


def test_weierstrass_two_slope_polygon():
    # (X - p)(X - p^2) = X^2 - (p + p^2) X + p^3: slopes 1 and 2, one root each.
    p = 5
    g = series(p, 1, 10, 6, [((0,), p**3), ((1,), -(p + p**2)), ((2,), 1)])
    wd = pw.weierstrass_data(g)
    assert wd.degree == 2
    assert wd.slopes == ((Fraction(2), 1), (Fraction(1), 1))


def test_weierstrass_unit_constant():
    g = series(5, 1, 8, 6, [((0,), 3)])
    assert pw.weierstrass_data(g).degree == 0
    assert pw.weierstrass_data(g).slopes == ()


def test_weierstrass_undetermined():
    g = series(5, 1, 8, 6, [((1,), 5)])
    wd = pw.weierstrass_data(g)
    assert wd.degree is None


def test_weierstrass_zero_series_rejected():
    g = series(5, 1, 4, 6, [((0,), 5**4)])
    with pytest.raises(pw.SeriesError):
        pw.weierstrass_data(g)


def test_degree_matches_hensel_oracle():
    """Split separable polynomials with roots in pZ_p, degree <= 5."""
    rng = random.Random(17)
    for _ in range(25):
        p = rng.choice([5, 7])
        deg = rng.randrange(1, 6)
        roots = rng.sample(range(1, p), k=min(deg, p - 1))
        deg = len(roots)
        coeffs = [1]  # constant-first coefficient list
        for r in roots:
            # multiply by (X - p*r)
            nxt = [0] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i + 1] += c
                nxt[i] -= p * r * c
            coeffs = nxt
        prec = 16
        g = series(p, 1, prec, 8, [((i,), c) for i, c in enumerate(coeffs)])
        wd = pw.weierstrass_data(g)
        assert wd.degree == deg
        assert hensel_root_count(coeffs, p) == wd.degree


# ---------------------------------------------------------------------------
# Constancy test
# ---------------------------------------------------------------------------

def test_constancy_constant():
    zeta = pa.teichmuller(2, 5, 8)  # order 4
    h = series(5, 1, 8, 6, [((0,), 3), ((1,), 1), ((2,), 7)])
    verdict = pw.constancy_test(h.scale(zeta), h)
    assert isinstance(verdict, pw.Constant)
    assert (verdict.zeta.residue, verdict.zeta.prec) == (zeta.residue, 8)


def test_constancy_witness():
    # (1 + x)/(1 + 2x) - 1 = -x + ...: degree 1 along x.
    verdict = pw.constancy_test(series(5, 1, 8, 6, [((0,), 1), ((1,), 1)]),
                                series(5, 1, 8, 6, [((0,), 1), ((1,), 2)]))
    assert isinstance(verdict, pw.NonconstantWitness)
    assert verdict.zeta.residue % 5 == 1
    assert (verdict.var, verdict.degree) == (0, 1)


def test_constancy_witness_on_a_later_axis():
    # The x axis of g - zeta has no unit coefficient; the y axis has one in degree 2.
    zeta = pa.teichmuller(2, 5, 8)
    g = series(5, 2, 8, 6, [((0, 0), zeta.residue), ((1, 0), 5), ((0, 1), 10), ((0, 2), 3)])
    one = series(5, 2, 8, 6, [((0, 0), 1)])
    verdict = pw.constancy_test(g, one)
    assert isinstance(verdict, pw.NonconstantWitness)
    assert (verdict.zeta.residue, verdict.var, verdict.degree) == (zeta.residue, 1, 2)


def test_constancy_witness_where_h_is_not_constant():
    # f/h = g of the test above, with h = 4 + x + y + 3y^2: on the y axis
    # f - zeta h = (10y + 3y^2)(4 + y + 3y^2) has its first unit coefficient
    # in degree 2, as g - zeta has, though neither f nor h is constant there.
    zeta = pa.teichmuller(2, 5, 8)
    g = series(5, 2, 8, 6, [((0, 0), zeta.residue), ((1, 0), 5), ((0, 1), 10), ((0, 2), 3)])
    h = series(5, 2, 8, 6, [((0, 0), 4), ((1, 0), 1), ((0, 1), 1), ((0, 2), 3)])
    verdict = pw.constancy_test(g * h, h)
    assert isinstance(verdict, pw.NonconstantWitness)
    assert (verdict.zeta.residue, verdict.zeta.prec) == (zeta.residue, 8)
    assert (verdict.var, verdict.degree) == (1, 2)


def test_constancy_undetermined():
    # (1 + 6x + 5x^2)/(1 + x) = 1 + 5x.
    verdict = pw.constancy_test(series(5, 1, 8, 6, [((0,), 1), ((1,), 6), ((2,), 5)]),
                                series(5, 1, 8, 6, [((0,), 1), ((1,), 1)]))
    assert isinstance(verdict, pw.Undetermined)
    assert verdict.zeta.residue % 5 == 1 and verdict.entry is None


def test_constancy_judged_at_the_series_precision():
    # 1 + 5^3 is the root of unity 1 to precision 3, and not to precision 16.
    low = pw.constancy_test(series(5, 1, 3, 2, [((0,), 1 + 5**3)]), series(5, 1, 3, 2, [((0,), 1)]))
    high = pw.constancy_test(series(5, 1, 16, 2, [((0,), 1 + 5**3)]),
                             series(5, 1, 16, 2, [((0,), 1)]))
    assert isinstance(low, pw.Constant) and low.zeta.prec == 3
    assert isinstance(high, pw.Undetermined) and high.zeta.prec == 16
    assert high.zeta.residue == 1


def test_constancy_at_the_smaller_cap_and_precision():
    # f = 1 + 5^3 + x^4: against h = 1 at cap 2 and precision 3 neither term
    # off 1 is seen, at cap 2 and precision 16 only 5^3 is, and at cap 6 and
    # precision 3 only x^4 is.  Either argument may hold the smaller cap or
    # precision, and zeta is lifted to the smaller precision.
    f = series(5, 1, 16, 6, [((0,), 1 + 5**3), ((4,), 1)])
    for prec, cap, kind, witness in [(3, 2, pw.Constant, None), (16, 2, pw.Undetermined, None),
                                     (3, 6, pw.NonconstantWitness, (0, 4))]:
        h = series(5, 1, prec, cap, [((0,), 1)])
        for verdict in (pw.constancy_test(f, h), pw.constancy_test(h, f)):
            assert type(verdict) is kind
            assert (verdict.zeta.residue, verdict.zeta.prec) == (1, prec)
            if witness:
                assert (verdict.var, verdict.degree) == witness


def test_constancy_needs_unit():
    unit = series(5, 1, 8, 6, [((0,), 1)])
    non_unit = series(5, 1, 8, 6, [((0,), 5), ((1,), 1)])
    for f, h in [(unit, non_unit), (non_unit, unit)]:
        with pytest.raises(pw.SeriesError, match="needs unit series"):
            pw.constancy_test(f, h)


def test_constancy_needs_compatible_series():
    # 5 is a unit of Z_7 but not of Z_5: the series are refused as a pair
    # before either constant term is inverted.
    f = series(5, 1, 8, 6, [((0,), 1)])
    for h in (series(7, 1, 8, 6, [((0,), 5)]), series(5, 2, 8, 6, [((0, 0), 1)])):
        with pytest.raises(pw.SeriesError, match="incompatible series"):
            pw.constancy_test(f, h)
