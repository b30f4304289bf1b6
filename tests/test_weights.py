import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from galdesk import padics as pa
from galdesk import padic_weights as pw
from galdesk import root_datum as rdm
from parallel_oracle import is_parallel_pair


def imag_quad_model(p=5):
    return pw.UnitsModel(p, (("w0", "wbar0", 1),))


def cm_quartic_model(p=5):
    return pw.UnitsModel(p, (("w0", "wbar0", 1), ("w1", "wbar1", 1)))


def test_units_model_validation():
    for pairs in ((("w", "w", 1),), (("w", "v", 1), ("u", "w", 1))):
        with pytest.raises(pw.WeightsError, match="place labels must be distinct"):
            pw.UnitsModel(5, pairs)
    with pytest.raises(pw.WeightsError, match="local degree must be >= 1"):
        pw.UnitsModel(5, (("w", "v", 0),))


def test_weight_point_validation():
    m = imag_quad_model()
    one = pa.PadicInt.one(5, 8)
    with pytest.raises(pw.WeightsError, match="missing value at"):
        pw.WeightPoint(m, {("w0", 0): one})
    with pytest.raises(pw.WeightsError, match="weight values must be units"):
        pw.WeightPoint(m, {("w0", 0): one, ("wbar0", 0): pa.PadicInt(5, 5, 8)})


def test_weights_default_to_exponent_zero():
    m = imag_quad_model()
    chi = pw.algebraic_weight(m, {}, prec=8)
    assert chi.value("w0", 0) == chi.value("wbar0", 0) == pa.PadicInt.one(5, 8)


def test_parallel_functional_refusals():
    m = imag_quad_model()
    chi = pw.algebraic_weight(m, {("w0", 0): 2, ("wbar0", 0): 1}, prec=8)
    with pytest.raises(pw.WeightsError, match="different unit models"):
        pw.parallel_functional(chi, pw.NormOneElement(imag_quad_model(), ()))
    with pytest.raises(pw.WeightsError, match="empty support"):
        pw.parallel_functional(chi, pw.NormOneElement(m, ()))


def test_weierstrass_data_needs_one_variable():
    with pytest.raises(pw.SeriesError, match="one-variable series"):
        pw.weierstrass_data(pw.TruncatedSeries(5, 2, 8, 4, {(0, 0): 1}))


def test_norm_one_validation():
    m = imag_quad_model()
    u = pw.NormOneElement(m, (("w0", 0, 1), ("wbar0", 0, -1)))
    with pytest.raises(pw.WeightsError):
        pw.NormOneElement(m, (("w0", 0, 1),))
    with pytest.raises(pw.WeightsError):
        pw.NormOneElement(m, (("w0", 3, 1), ("wbar0", 3, -1)))


def test_parallel_functional_vanishing():
    m = imag_quad_model()
    u = pw.NormOneElement(m, (("w0", 0, 1), ("wbar0", 0, -1)))
    # chi = N(x)^n times a finite-order part: locally parallel, and the log
    # kills the roots of unity, so the functional vanishes.
    chi = pw.algebraic_weight(m, {("w0", 0): 3, ("wbar0", 0): 3}, prec=8,
                              torsion={("w0", 0): 2, ("wbar0", 0): 3})
    assert pw.parallel_functional(chi, u).is_zero_at_prec()
    trivial = pw.algebraic_weight(m, {}, prec=8)
    assert pw.parallel_functional(trivial, u).is_zero_at_prec()


def test_parallel_functional_nonzero():
    m = imag_quad_model()
    u = pw.NormOneElement(m, (("w0", 0, 1), ("wbar0", 0, -1)))
    # chi(x) = x: weight (1, 0); log(1+p) has valuation 1.
    chi = pw.algebraic_weight(m, {("w0", 0): 1, ("wbar0", 0): 0}, prec=8)
    val = pw.parallel_functional(chi, u)
    assert not val.is_zero_at_prec()
    assert val.valuation() == 1


def test_parallel_functional_suites():
    rng = random.Random(42)
    m = cm_quartic_model()
    u_all = [
        pw.NormOneElement(m, (("w0", 0, 1), ("wbar0", 0, -1))),
        pw.NormOneElement(m, (("w1", 0, 1), ("wbar1", 0, -1))),
    ]
    for _ in range(50):
        exps = {}
        for w, wbar, f in m.pairs:
            for j in range(f):
                n = rng.randrange(-6, 7)
                exps[(w, j)] = n
                exps[(wbar, j)] = n
        chi = pw.algebraic_weight(m, exps, prec=8)
        for u in u_all:
            assert pw.parallel_functional(chi, u).is_zero_at_prec()
    for _ in range(50):
        exps = {}
        for w, wbar, f in m.pairs:
            for j in range(f):
                exps[(w, j)] = rng.randrange(-6, 7)
                exps[(wbar, j)] = exps[(w, j)]
        # Break parallelism at a random slot by a unit amount mod p.
        w, wbar, f = m.pairs[rng.randrange(len(m.pairs))]
        delta = rng.randrange(1, 5)
        exps[(w, 0)] = exps[(wbar, 0)] + delta
        chi = pw.algebraic_weight(m, exps, prec=8)
        u = pw.NormOneElement(m, ((w, 0, 1), (wbar, 0, -1)))
        assert not pw.parallel_functional(chi, u).is_zero_at_prec()


# ---------------------------------------------------------------------------
# Infinitesimal weights
# ---------------------------------------------------------------------------

def test_is_parallel_pair():
    # GL2: minus_w0 is the identity on the single simple root.
    assert is_parallel_pair([3], [3], [0], 5)
    assert is_parallel_pair([3], [8], [0], 5) and is_parallel_pair([13], [3], [0], 5)
    assert not is_parallel_pair([3], [2], [0], 5)
    for x_w, x_wbar in (([1, 2], [1]), ([1, 2, 3], [1, 2, 3])):
        with pytest.raises(pw.WeightsError, match="mismatched arity"):
            is_parallel_pair(x_w, x_wbar, [1, 0], 5)
    # A2: minus_w0 swaps the two simple roots.
    mw0 = rdm.longest_element(rdm.build_root_datum([("A", 2)]))[1]
    assert is_parallel_pair([1, 2], [2, 1], mw0, 5)
    assert not is_parallel_pair([1, 2], [1, 2], mw0, 5)
    assert is_parallel_pair([0, 0], [0, 0], mw0, 5)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_is_parallel_pair_symmetric(data):
    mw0 = rdm.longest_element(rdm.build_root_datum([("A", 2)]))[1]
    x = np.array(data.draw(st.lists(st.integers(0, 4), min_size=4, max_size=4)))
    y = np.array(data.draw(st.lists(st.integers(0, 4), min_size=4, max_size=4)))
    assert is_parallel_pair(x, y, mw0, 5) == is_parallel_pair(y, x, mw0, 5)


def parallel_subspace(f: int, d: int, minus_w0):
    """Graph of -w0 inside k^{fd} + k^{fd}: basis plus (dim, codim) report."""
    n = f * d
    basis = np.zeros((2 * n, n), dtype=np.int64)
    for j in range(f):
        for i in range(d):
            col = j * d + i
            basis[col, col] = 1
            basis[n + j * d + minus_w0[i], col] = 1
    return basis, n, n  # basis, dimension, codimension


def test_parallel_subspace_dims():
    for f, d, mw0 in [(1, 1, [0]), (1, 2, [1, 0]), (2, 1, [0])]:
        basis, dim, codim = parallel_subspace(f, d, mw0)
        assert dim == f * d and codim == f * d
        assert dim + codim == 2 * f * d
        assert basis.shape == (2 * f * d, f * d)
        # every basis column is a parallel pair
        n = f * d
        for j in range(n):
            assert is_parallel_pair(basis[:n, j], basis[n:, j], mw0, 5)


# ---------------------------------------------------------------------------
# Passage dichotomy
# ---------------------------------------------------------------------------

def unit_series(rng, p, nvars, prec, cap, force_units=()):
    terms = {tuple(0 for _ in range(nvars)): pa.PadicInt(p, rng.randrange(1, p), prec)}
    for idx in [tuple(int(k == i) for k in range(nvars)) for i in range(nvars)]:
        terms[idx] = pa.PadicInt(p, rng.randrange(0, p**2), prec)
    for idx in force_units:
        terms[idx] = pa.PadicInt(p, rng.randrange(1, p), prec)
    return pw.TruncatedSeries(p, nvars, prec, cap, terms)


def constant_ratio_family(rng, p=5, d=2, f=1, nvars=2, prec=8, cap=6):
    mw0 = rdm.longest_element(rdm.build_root_datum([("A", d)]))[1] if d > 1 else [0]
    entries = []
    for i in range(d):
        for j in range(f):
            base = unit_series(rng, p, nvars, prec, cap)
            zeta = pa.teichmuller(rng.randrange(1, p), p, prec)
            entries.append(pw.DichotomyEntry("w0", i, j, base.scale(zeta), base))
    return pw.DichotomyFamily(p, d, f, tuple(mw0), entries)


def perturbed_family(rng, p=5, d=2, f=1, nvars=2, prec=8, cap=6):
    fam = constant_ratio_family(rng, p, d, f, nvars, prec, cap)
    e = fam.entries[rng.randrange(len(fam.entries))]
    var = rng.randrange(nvars)
    bump = tuple(int(k == var) for k in range(nvars))
    perturb = pw.TruncatedSeries(p, nvars, prec, cap, {
        tuple(0 for _ in range(nvars)): pa.PadicInt.one(p, prec),
        bump: pa.PadicInt(p, rng.randrange(1, p), prec),
    })
    e.f_w = e.f_w * perturb
    return fam


def test_dichotomy_trivial_equal():
    rng = random.Random(0)
    p, nvars, prec, cap = 5, 2, 8, 6
    base = unit_series(rng, p, nvars, prec, cap)
    fam = pw.DichotomyFamily(p, 1, 1, (0,), [pw.DichotomyEntry("w0", 0, 0, base, base)])
    verdict = pw.passage_dichotomy(fam)
    assert isinstance(verdict, pw.ParallelWeights)
    for pl, var, x_w, x_wbar in verdict.pairs:
        assert is_parallel_pair(x_w, x_wbar, (0,), p)


def test_dichotomy_explicit_witness():
    p, prec, cap = 5, 8, 6
    f_w = pw.TruncatedSeries(p, 1, prec, cap, {(0,): 1, (1,): 1})
    f_wbar = pw.TruncatedSeries(p, 1, prec, cap, {(0,): 1, (1,): 2})
    fam = pw.DichotomyFamily(p, 1, 1, (0,), [pw.DichotomyEntry("w0", 0, 0, f_w, f_wbar)])
    verdict = pw.passage_dichotomy(fam)
    assert isinstance(verdict, pw.SparsityCertificate)
    kind, var, deg = verdict.per_zeta[1]
    assert kind == "degree" and deg >= 1
    # All other roots of unity get the empty-solution certificate.
    for zres, (kind, _, deg) in verdict.per_zeta.items():
        if zres != 1:
            assert kind == "empty" and deg == 0


def test_dichotomy_teichmuller_scaled_pair():
    rng = random.Random(3)
    p, prec, cap = 5, 8, 6
    base = unit_series(rng, p, 1, prec, cap)
    zeta = pa.teichmuller(2, p, prec)
    fam = pw.DichotomyFamily(p, 1, 1, (0,), [
        pw.DichotomyEntry("w0", 0, 0, base.scale(zeta), base)
    ])
    verdict = pw.passage_dichotomy(fam)
    assert isinstance(verdict, pw.ParallelWeights)
    # The dual-number ratios agree even though the series differ by zeta.
    (pl, var, x_w, x_wbar) = verdict.pairs[0]
    assert is_parallel_pair(x_w, x_wbar, (0,), p)


def test_dichotomy_corpus_100():
    rng = random.Random(20260810)
    for trial in range(100):
        d = rng.choice([1, 2])
        nvars = rng.randrange(1, 5)
        cap = rng.randrange(2, 7)
        if trial % 2 == 0:
            fam = constant_ratio_family(rng, d=d, nvars=nvars, cap=cap)
            verdict = pw.passage_dichotomy(fam)
            assert isinstance(verdict, pw.ParallelWeights)
            for pl, var, x_w, x_wbar in verdict.pairs:
                assert is_parallel_pair(x_w, x_wbar, fam.minus_w0, fam.p)
        else:
            fam = perturbed_family(rng, d=d, nvars=nvars, cap=cap)
            verdict = pw.passage_dichotomy(fam)
            assert isinstance(verdict, pw.SparsityCertificate)
            assert any(kind == "degree" and deg >= 1
                       for kind, _, deg in verdict.per_zeta.values())


@given(st.integers(0, 2**32), st.sampled_from([5, 7]), st.integers(1, 2), st.integers(1, 3),
       st.integers(2, 5), st.integers(2, 12))
@settings(max_examples=40, deadline=None, database=None)
def test_planted_certificate_survives_doubled_precision(seed, p, d, nvars, cap, prec):
    """A planted family's sparsity certificate at precision P is a certificate,
    with the same per-zeta witnesses, when the family is built at 2P: the
    witnesses are read off unit coefficients, which precision does not move."""
    low, high = (pw.passage_dichotomy(perturbed_family(random.Random(seed), p, d, 1, nvars,
                                                       n, cap))
                 for n in (prec, 2 * prec))
    assert isinstance(low, pw.SparsityCertificate)
    assert isinstance(high, pw.SparsityCertificate)
    assert (high.place, high.root_index, high.gen_index, high.per_zeta) == \
        (low.place, low.root_index, low.gen_index, low.per_zeta)


def undetermined_family(rng, p=5, d=2, f=1, nvars=2, prec=8, cap=6):
    """A constant-ratio family with one f_w times 1 + p c x_var: that ratio's
    difference from its root of unity has no unit coefficient."""
    fam = constant_ratio_family(rng, p, d, f, nvars, prec, cap)
    e = fam.entries[rng.randrange(len(fam.entries))]
    var = rng.randrange(nvars)
    bump = tuple(int(k == var) for k in range(nvars))
    e.f_w = e.f_w * pw.TruncatedSeries(p, nvars, prec, cap, {
        tuple(0 for _ in range(nvars)): pa.PadicInt.one(p, prec),
        bump: pa.PadicInt(p, p * rng.randrange(1, p), prec),
    })
    return fam


def teichmuller_budget(p, prec):
    """All p - 1 roots of unity in Z_p at the given precision."""
    return [pa.teichmuller(a, p, prec) for a in range(1, p)]


def constant_series(zeta, g):
    """zeta as a series with g's variables, precision and cap."""
    return pw.TruncatedSeries(g.p, g.nvars, g.prec, g.degree_cap, {(0,) * g.nvars: zeta})


def direction_witness(g, zeta):
    """(var, degree >= 1) with a unit coefficient of g - zeta on some axis."""
    diff = g - constant_series(zeta, g)
    for var in range(g.nvars):
        axis = diff.specialize_to_axis(var)
        if not axis.is_zero_at_prec():
            degree = pw.weierstrass_data(axis).degree
            if degree is not None and degree >= 1:
                return var, degree
    return None


def two_pass_oracle(family):
    """The dichotomy by the whole root-of-unity budget: a ratio is constant
    when g - zeta vanishes for some zeta of it, and the first ratio that is
    not is certified by subtracting every zeta again, "empty" where g - zeta
    has a unit constant term, else a direction witness or undetermined."""
    p = family.p
    budget = teichmuller_budget(p, family.entries[0].f_w.prec)
    for e in family.entries:
        g = e.f_w.divide(e.f_wbar)
        diffs = [g - constant_series(zeta, g) for zeta in budget]
        if any(diff.is_zero_at_prec() for diff in diffs):
            continue
        per_zeta = {}
        for zeta, diff in zip(budget, diffs):
            if diff.terms()[(0,) * g.nvars].is_unit():
                per_zeta[zeta.residue % p] = ("empty", None, 0)
                continue
            witness = direction_witness(g, zeta)
            if witness is None:
                return "undetermined", (zeta.residue, zeta.prec), e
            per_zeta[zeta.residue % p] = ("degree", *witness)
        return "certificate", (e.place, e.root_index, e.gen_index), per_zeta
    return "parallel-weights", None, None


FAMILIES = {"parallel-weights": constant_ratio_family, "certificate": perturbed_family,
            "undetermined": undetermined_family}


@given(st.integers(0, 2**32), st.sampled_from(sorted(FAMILIES)), st.sampled_from([5, 7]),
       st.integers(1, 2), st.integers(1, 2), st.integers(1, 3), st.integers(2, 5),
       st.integers(2, 12))
@settings(max_examples=60, deadline=None, database=None)
def test_dichotomy_matches_two_pass_oracle(seed, planted, p, d, f, nvars, cap, prec):
    """On families whose series share one precision, one subtraction per
    entry gives the verdict, the entry and the per-zeta certificate that
    subtracting every root of unity gives."""
    fam = FAMILIES[planted](random.Random(seed), p, d, f, nvars, prec, cap)
    verdict = pw.passage_dichotomy(fam)
    if isinstance(verdict, pw.ParallelWeights):
        got = "parallel-weights", None, None
    elif isinstance(verdict, pw.Undetermined):
        got = "undetermined", (verdict.zeta.residue, verdict.zeta.prec), verdict.entry
    else:
        got = ("certificate", (verdict.place, verdict.root_index, verdict.gen_index),
               verdict.per_zeta)
    assert got == two_pass_oracle(fam)
    assert got[0] == planted


def composed_constancy_oracle(f, h):
    """The constancy test on the quotient f/h, formed by `inverse` and a
    product, with zeta0 lifted to the quotient's precision."""
    g = f.divide(h)
    if not g.is_unit():
        raise pw.SeriesError("constancy test needs a unit series")
    zeta0 = pa.teichmuller(g.terms()[(0,) * g.nvars].unit_residue_mod_p(), g.p, g.prec)
    diff = g - constant_series(zeta0, g)
    if diff.is_zero_at_prec():
        return pw.Constant(zeta0)
    for var in range(g.nvars):
        axis = diff.specialize_to_axis(var)
        # The constant term of diff is not a unit, so a unit coefficient sits
        # at degree >= 1.
        if not axis.is_zero_at_prec() and (degree := pw.weierstrass_data(axis).degree) is not None:
            return pw.NonconstantWitness(zeta0, var, degree)
    return pw.Undetermined(zeta0, None)


def verdict_key(verdict):
    return (type(verdict), verdict.zeta.residue, verdict.zeta.prec,
            getattr(verdict, "var", None), getattr(verdict, "degree", None))


def draw_pair(data, mixed, p=None, nvars=None, kind=None):
    """(f, h, kind): unit series over one p, each with its own cap and
    precision, and how f was planted; p, nvars and kind are drawn unless given.

    h is random.  f is zeta h ("constant"), zeta h plus a unit ("perturbed")
    or p times a unit ("undetermined") on one monomial off the constant, or
    random.  With `mixed`, some other terms of f are PadicInts at their own
    precision; otherwise every present term carries its series' precision.
    """
    p = p or data.draw(st.sampled_from([3, 5, 7, 11]), label="p")
    nvars = nvars or data.draw(st.integers(1, 4), label="nvars")
    (cap_f, prec_f), (cap_h, prec_h) = (
        (data.draw(st.integers(1, 8)), data.draw(st.integers(1, 12))) for _ in "fh")
    top, cap = max(prec_f, prec_h), min(cap_f, cap_h)
    zero = (0,) * nvars

    def monomial(budget):
        exponents = []
        for _ in range(nvars):
            exponents.append(data.draw(st.integers(0, budget - sum(exponents))))
        return tuple(data.draw(st.permutations(exponents)))

    def random_terms():
        terms = {zero: data.draw(st.integers(1, p - 1)) + p * data.draw(st.integers(0, p**top))}
        for _ in range(data.draw(st.integers(0, 5))):
            budget = data.draw(st.integers(1, max(cap_f, cap_h) + 1))
            terms.setdefault(monomial(budget), data.draw(st.integers(0, p**top)))
        return terms

    h_terms = random_terms()
    kind = kind or data.draw(st.sampled_from(["constant", "perturbed", "undetermined", "random"]))
    bumped = zero
    if kind == "random":
        f_terms = random_terms()
    else:
        zeta = pa.teichmuller(data.draw(st.integers(1, p - 1)), p, top).residue
        f_terms = {m: zeta * c for m, c in h_terms.items()}
    if kind in ("perturbed", "undetermined"):
        # A fresh monomial, or a multiple of a term of h: in the quotient,
        # that term's precision reaches it.
        below = sorted(m for m in h_terms if 0 < sum(m) < cap)
        bumped = monomial(cap)
        if below and data.draw(st.booleans()):
            var = data.draw(st.integers(0, nvars - 1))
            bumped = tuple(e + (k == var) for k, e in enumerate(data.draw(st.sampled_from(below))))
        bumped = bumped if bumped != zero else (1,) + zero[1:]
        unit = data.draw(st.integers(1, p - 1))
        f_terms[bumped] = f_terms.get(bumped, 0) + (unit if kind == "perturbed" else p * unit)
    if mixed:
        for m in sorted(f_terms.keys() - {zero, bumped}):
            if data.draw(st.booleans()):
                n = data.draw(st.one_of(st.just(1), st.integers(1, prec_f)))
                f_terms[m] = pa.PadicInt(p, f_terms[m], n)
    return (pw.TruncatedSeries(p, nvars, prec_f, cap_f, f_terms),
            pw.TruncatedSeries(p, nvars, prec_h, cap_h, h_terms), kind)


@given(st.data())
@settings(max_examples=200, deadline=None, database=None)
def test_constancy_matches_composed_oracle(data):
    """Where every present term carries its series' precision, f - zeta0 h
    gives the verdict, zeta (residue and precision), axis and degree that
    the quotient f/h gives."""
    f, h, kind = draw_pair(data, mixed=False)
    verdict = pw.constancy_test(f, h)
    assert verdict_key(verdict) == verdict_key(composed_constancy_oracle(f, h))
    if kind == "constant":
        assert isinstance(verdict, pw.Constant)


@given(st.data())
@settings(max_examples=300, deadline=None, database=None)
def test_mixed_precision_moves_only_constant_to_undetermined(data):
    """With terms at their own precision the quotient's terms take the
    least precision of every pair that feeds them, so it may read constant
    where f - zeta0 h cannot decide; no other verdict, zeta, axis or degree
    moves."""
    f, h, _ = draw_pair(data, mixed=True)
    verdict, oracle = pw.constancy_test(f, h), composed_constancy_oracle(f, h)
    if verdict_key(verdict) != verdict_key(oracle):
        assert isinstance(oracle, pw.Constant) and isinstance(verdict, pw.Undetermined)
        assert verdict_key(verdict)[1:] == verdict_key(oracle)[1:]


def permuted(s, sigma):
    """s with variable k renamed sigma[k]."""
    return pw.TruncatedSeries(s.p, s.nvars, s.prec, s.degree_cap,
                              {tuple(m[sigma.index(k)] for k in range(s.nvars)): c
                               for m, c in s.terms().items()})


@given(st.data())
@settings(max_examples=50, deadline=None, database=None)
def test_unit_factor_and_variable_order_leave_the_verdict(data):
    """Relations of the constancy test at uniform precision.  (f u, h u),
    for a unit series u, has the verdict, zeta, axis and degree of (f, h).
    Renaming the variables by sigma renames the axes of f - zeta0 h that
    carry a unit coefficient: an axis carries one, of degree d, when moving
    it to the front gives the witness (0, d), and under any order the
    witness is the hit axis that comes first."""
    f, h, _ = draw_pair(data, mixed=False)
    verdict = pw.constancy_test(f, h)
    p, nvars = f.p, f.nvars
    prec, cap = max(f.prec, h.prec), max(f.degree_cap, h.degree_cap)
    u_terms = {(0,) * nvars: data.draw(st.integers(1, p - 1)) + p * data.draw(st.integers(0, p**prec))}
    for _ in range(data.draw(st.integers(0, 4))):
        m = tuple(data.draw(st.integers(0, cap)) for _ in range(nvars))
        u_terms.setdefault(m, data.draw(st.integers(0, p**prec)))
    u = pw.TruncatedSeries(p, nvars, prec, cap, u_terms)
    assert verdict_key(pw.constancy_test(f * u, h * u)) == verdict_key(verdict)

    hits = {}
    for a in range(nvars):
        front = list(range(nvars))
        front[0], front[a] = a, 0
        moved = pw.constancy_test(permuted(f, front), permuted(h, front))
        if isinstance(moved, pw.NonconstantWitness) and moved.var == 0:
            hits[a] = moved.degree
    sigma = data.draw(st.permutations(range(nvars)))
    renamed = pw.constancy_test(permuted(f, sigma), permuted(h, sigma))
    for got, order in ((verdict, list(range(nvars))), (renamed, sigma)):
        assert (type(got), got.zeta) == (type(verdict), verdict.zeta)
        if hits:
            first = min(hits, key=order.__getitem__)
            assert (got.var, got.degree) == (order[first], hits[first])
        else:
            assert not isinstance(got, pw.NonconstantWitness)


def first_unit_scan(coeffs) -> int | None:
    """The first index whose coefficient, a PadicInt or None for an absent
    term, has valuation 0."""
    return next((i for i, c in enumerate(coeffs) if c is not None and c.valuation() == 0), None)


@given(st.data())
@settings(max_examples=300, deadline=None, database=None)
def test_weierstrass_degree_is_the_first_unit_coefficient(data):
    """Over series with absent terms, present zeros, terms at their own
    precision and non-unit constants, the degree is the first index whose
    term, as given, has valuation 0."""
    p, prec, cap = (data.draw(st.sampled_from([3, 5, 7])), data.draw(st.integers(1, 8)),
                    data.draw(st.integers(0, 8)))
    values = st.one_of(st.just(0), st.integers(1, p - 1),
                       st.integers(0, p**prec).map(lambda v: p * v), st.integers(0, p ** (prec + 1)))
    terms, given_terms = {}, []
    for i in range(cap + 1):
        if not data.draw(st.booleans()):
            given_terms.append(None)
            continue
        value, own = data.draw(values), data.draw(st.one_of(st.none(), st.integers(1, prec + 2)))
        terms[(i,)] = value if own is None else pa.PadicInt(p, value, own)
        given_terms.append(pa.PadicInt(p, value, min(own or prec, prec)))
    g = pw.TruncatedSeries(p, 1, prec, cap, terms)
    if all(c is None or c.is_zero_at_prec() for c in given_terms):
        with pytest.raises(pw.SeriesError, match="zero series"):
            pw.weierstrass_data(g)
    else:
        assert pw.weierstrass_data(g).degree == first_unit_scan(given_terms)


@given(st.data())
@settings(max_examples=400, deadline=None, database=None)
def test_constancy_witness_is_the_first_unit_coefficient(data):
    """A witness names the first axis on which f - zeta0 h, formed term by
    term from PadicInts, has a unit coefficient, and the first index of
    one; Undetermined means no axis has one."""
    f, h, _ = draw_pair(data, mixed=data.draw(st.booleans()))
    verdict = pw.constancy_test(f, h)
    if isinstance(verdict, pw.Constant):
        return
    cap = min(f.degree_cap, h.degree_cap)
    # An absent term is a zero known to the precision of its series.
    (tf, zf), (th, zh) = ((s.terms(), pa.PadicInt.zero(s.p, s.prec)) for s in (f, h))
    hits = []
    for var in range(f.nvars):
        axis = [tuple(k * (j == var) for j in range(f.nvars)) for k in range(cap + 1)]
        scan = first_unit_scan([tf.get(m, zf) - verdict.zeta * th.get(m, zh) for m in axis])
        if scan is not None:
            hits.append((var, scan))
    if isinstance(verdict, pw.NonconstantWitness):
        assert hits[0] == (verdict.var, verdict.degree)
    else:
        assert isinstance(verdict, pw.Undetermined) and hits == []


@given(st.data())
@settings(max_examples=200, deadline=None, database=None)
def test_constant_ratio_families_give_parallel_pairs(data):
    """A family whose every ratio is a constant root of unity, its series
    drawn as the constancy tests draw them (own caps and precisions, terms
    of f at their own precision), is never given a certificate; when it is
    given parallel weights, every pair is parallel by the oracle."""
    p, nvars = data.draw(st.sampled_from([3, 5, 7])), data.draw(st.integers(1, 3))
    d, f = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
    mw0 = rdm.longest_element(rdm.build_root_datum([("A", d)]))[1] if d > 1 else [0]
    entries = [pw.DichotomyEntry("w0", i, j, *draw_pair(data, True, p, nvars, "constant")[:2])
               for i in range(d) for j in range(f)]
    fam = pw.DichotomyFamily(p, d, f, tuple(mw0), entries)
    verdict = pw.passage_dichotomy(fam)
    assert isinstance(verdict, (pw.ParallelWeights, pw.Undetermined))
    if isinstance(verdict, pw.ParallelWeights):
        assert len(verdict.pairs) == nvars
        for _, _, x_w, x_wbar in verdict.pairs:
            assert is_parallel_pair(x_w, x_wbar, mw0, p)


def test_mixed_precision_ratio_is_not_read_constant():
    """f = 1 + 0 x + 25 x^2 with the x term known mod 5 alone, h = 1: the
    quotient's x^2 term takes precision 1 from the pair x * x and reads 0,
    but 25 x^2 is known to precision 10, so f/h is not constant."""
    f = pw.TruncatedSeries(5, 1, 10, 2, {(0,): 1, (1,): pa.PadicInt(5, 0, 1), (2,): 25})
    h = pw.TruncatedSeries(5, 1, 10, 2, {(0,): 1})
    assert isinstance(composed_constancy_oracle(f, h), pw.Constant)
    verdict = pw.constancy_test(f, h)
    assert isinstance(verdict, pw.Undetermined)
    assert (verdict.zeta.residue, verdict.zeta.prec) == (1, 10)


def test_dichotomy_multi_generator_and_places():
    """f = 2 generators and two place-pairs: generator-major assembly holds."""
    rng = random.Random(12)
    p, nvars, prec, cap = 5, 3, 8, 6
    d, f = 2, 2
    mw0 = rdm.longest_element(rdm.build_root_datum([("A", 2)]))[1]
    entries = []
    for place in ("w0", "w1"):
        for i in range(d):
            for j in range(f):
                base = unit_series(rng, p, nvars, prec, cap)
                zeta = pa.teichmuller(rng.randrange(1, p), p, prec)
                entries.append(pw.DichotomyEntry(place, i, j, base.scale(zeta), base))
    fam = pw.DichotomyFamily(p, d, f, tuple(mw0), entries)
    verdict = pw.passage_dichotomy(fam)
    assert isinstance(verdict, pw.ParallelWeights)
    assert {pl for pl, _, _, _ in verdict.pairs} == {"w0", "w1"}
    assert len(verdict.pairs) == 2 * nvars
    for pl, var, x_w, x_wbar in verdict.pairs:
        assert x_w.size == f * d
        assert is_parallel_pair(x_w, x_wbar, mw0, p)


def test_dichotomy_invalid_minus_w0():
    p, prec, cap = 5, 8, 6
    g = pw.TruncatedSeries(p, 1, prec, cap, {(0,): 1})
    with pytest.raises(pw.WeightsError):
        pw.DichotomyFamily(p, 1, 1, (1,), [pw.DichotomyEntry("w0", 0, 0, g, g)])


def test_dichotomy_rejects_non_units():
    p, prec, cap = 5, 8, 6
    bad = pw.TruncatedSeries(p, 1, prec, cap, {(0,): 5, (1,): 1})
    good = pw.TruncatedSeries(p, 1, prec, cap, {(0,): 1})
    other_prime = pw.TruncatedSeries(7, 1, prec, cap, {(0,): 1})
    two_vars = pw.TruncatedSeries(p, 2, prec, cap, {(0, 0): 1})
    for f_w in (bad, other_prime, two_vars):
        with pytest.raises(pw.WeightsError):
            pw.DichotomyFamily(p, 1, 1, (0,), [pw.DichotomyEntry("w0", 0, 0, f_w, good)])
    constant = pw.TruncatedSeries(p, 1, prec, 0, {(0,): 1})
    with pytest.raises(pw.WeightsError, match="degree cap >= 1"):
        pw.DichotomyFamily(p, 1, 1, (0,), [pw.DichotomyEntry("w0", 0, 0, constant, constant)])


def test_dichotomy_arity_check():
    p, prec, cap = 5, 8, 6
    g = pw.TruncatedSeries(p, 1, prec, cap, {(0,): 1})
    with pytest.raises(pw.WeightsError):
        # d = 2 requires entries for both simple roots at the place.
        pw.DichotomyFamily(p, 2, 1, (1, 0), [pw.DichotomyEntry("w0", 0, 0, g, g)])
