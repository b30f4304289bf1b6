"""Scenario payloads and the builtin catalog.

A scenario is a JSON document {"version": 1, "kind": ..., "seed": ...,
"payload": {...}}; a builtin is a named, seeded check suite.  Reports are
deterministic functions of (scenario, seed): plain dicts of ints, strings,
and decimal-string p-adic values, ready for stable serialization.
"""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction

import numpy as np

from . import ffield as ff
from . import local_tame as lt
from . import numerology as num
from . import padic_weights as pw
from . import padics as pa
from . import root_datum as rdm
from . import selmer as sl
from .errors import InputError

SCHEMA_VERSION = 1


class ScenarioError(InputError):
    pass


def check(name: str, ok: bool, **details):
    entry = {"name": name, "pass": bool(ok)}
    entry.update(details)
    return entry


def _report(checks: list, **extra):
    out = {"checks": checks, "status": "pass" if all(c["pass"] for c in checks) else "fail"}
    out.update(extra)
    return out


def parse_root_datum(payload) -> rdm.RootDatum:
    payload = _mapping(payload, "root_datum")
    if "gl" in payload:
        return rdm.gl_datum(_int(payload["gl"], "gl"))
    spec = _list(_field(payload, "type"), "type", "be a list of [family, rank] pairs", _is_pair)
    return rdm.build_root_datum([(str(fam), _int(rank, "rank")) for fam, rank in spec])


# ---------------------------------------------------------------------------
# Builtin suites
# ---------------------------------------------------------------------------

PROFILE_TABLE = {
    "A1": (3, 1, 2, 1, 2, 2),
    "A2": (8, 3, 5, 2, 3, 3),
    "A3": (15, 6, 9, 3, 4, 4),
    "B2": (10, 4, 6, 2, 4, 2),
    "C3": (21, 9, 12, 3, 6, 2),
    "G2": (14, 6, 8, 2, 6, 1),
}

CERT_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
              ("B", 4), ("C", 3), ("C", 4), ("D", 4), ("F", 4), ("G", 2)]


def builtin_rootdatum_profiles(seed):
    checks = []
    for name, expected in PROFILE_TABLE.items():
        rd = rdm.build_root_datum([(name[0], int(name[1:]))])
        got = rdm.dimension_profile(rd)
        checks.append(check(f"profile {name}", got == expected,
                            expected=list(expected), got=list(got)))
    return _report(checks)


def builtin_unique_root_certificates(seed):
    checks = []
    for fam, rk in CERT_TYPES:
        rd = rdm.build_root_datum([(fam, rk)])
        ok = all(rdm.unique_root_certificate(rd, i) for i in range(rd.rank_ss))
        checks.append(check(f"certificate {fam}{rk}", ok))
    return _report(checks)


def builtin_tame_cohomology_random(seed):
    count = 500
    rng = random.Random(seed)
    duality_ok = 0
    for _ in range(count):
        m = _random_module(rng)
        if lt.cohomology_dims(m)[2] == lt.cohomology_dims(m.dual_twist())[0]:
            duality_ok += 1
    return _report([
        check("duality h2(M) = h0(dual twist)", duality_ok == count,
              count=count, passed=duality_ok),
    ])


def _random_module(rng) -> lt.TameGaloisModule:
    p = rng.choice([5, 7, 11, 13])
    n = rng.randrange(1, 9)
    q = p  # redrawn until prime to p
    while q % p == 0:
        q = rng.randrange(2, 80)
    phi = ff.random_gl(rng, n, p)
    return lt.TameGaloisModule(p, phi, q, twist=rng.randrange(-2, 3))


def builtin_gl2_f5_ramakrishna(seed):
    rd = rdm.gl_datum(2)
    t = rdm.TorusElement(rd, 5, (2,))
    a = lt.AdjointModule(rd, t, 3)
    m = a.module
    checks = []
    dims = lt.cohomology_dims(m)
    checks.append(check("cohomology dims (1,2,1)", dims == (1, 2, 1), got=list(dims)))
    unr = lt.unramified_subspace(m)
    checks.append(check("unramified dim 1", unr.dim == 1, got=unr.dim))
    ok, alpha = lt.is_ramakrishna_type(a)
    checks.append(check("ramakrishna type with unique root", ok and alpha == (1,)))
    h0_twist = lt.cohomology_dims(m.twisted(1))[0]
    checks.append(check("h0 of the (1)-twist is 1", h0_twist == 1, got=h0_twist))
    ram = lt.ramakrishna_subspace(a, alpha)
    checks.append(check("ramified subspace dim equals h0", ram.dim == 1 == dims[0],
                        got=ram.dim))
    # Component vanishing: ramified representatives carry no l_alpha part;
    # annihilator representatives carry no g_{-alpha} part.
    item_ok = True
    n = m.dim
    for j in range(ram.dim):
        rep = ram.space.cocycle_from_coords(ram.basis[:, j])
        item_ok &= lt.l_alpha_component(a, rep[:n], alpha) == 0
        item_ok &= lt.l_alpha_component(a, rep[n:], alpha) == 0
    checks.append(check("ramified representatives: zero l_alpha components", item_ok))
    ann = lt.annihilator_subspace(m, ram)
    dual_ok = True
    for j in range(ann.dim):
        rep = ann.space.cocycle_from_coords(ann.basis[:, j])
        neg = tuple(-c for c in alpha)
        dual_ok &= lt.dual_root_component(a, rep[:n], neg) == 0
        dual_ok &= lt.dual_root_component(a, rep[n:], neg) == 0
    checks.append(check("annihilator representatives: zero g_{-alpha} components", dual_ok))
    g, h1, h1d = lt.pairing_gram(m)
    checks.append(check("pairing perfect", ff.rank(g, m.p) == h1.dim))
    ann_unr = lt.annihilator_subspace(m, unr)
    dual_unr = lt.unramified_subspace(m.dual_twist())
    checks.append(check(
        "annihilator of unramified = dual unramified",
        ann_unr.dim == dual_unr.dim and ff.span_contains(ann_unr.basis, dual_unr.basis, m.p),
    ))
    # Frobenius acts on g/b = g_{-alpha} by alpha(t) = qbar^-1, which the
    # cyclotomic twist by q makes trivial.
    reg, reg_star = lt.reg_checks(rd, 5, [m.phi], [3])
    checks.append(check("REG holds and REG* fails", reg and not reg_star,
                        reg=reg, reg_star=reg_star))
    # g_alpha is F_5(1) with trivial inertia: its tamely ramified cocycle
    # (0 on sigma, 1 on tau) is not a coboundary, its unramified one is.
    frob = int(m.phi[a.root_index(alpha), a.root_index(alpha)])
    ramified = lt.nonsplit_check(rd, 5, 3, (frob,), (1,), (0,), (1,))
    unramified = lt.nonsplit_check(rd, 5, 3, (frob,), (1,), (1,), (0,))
    checks.append(check("on g_alpha the ramified cocycle is non-split, the unramified one splits",
                        ramified and not unramified))
    return _report(checks)


def builtin_tate_duality_suite(seed):
    count = 60
    rng = random.Random(seed)
    checks = []
    gram_ok = split_ok = unr_ok = tested = 0
    for i in range(count):
        m = _rich_module(rng) if i % 2 else _random_module(rng)
        g, h1, h1d = lt.pairing_gram(m)
        if h1.dim == h1d.dim and ff.rank(g, m.p) == h1.dim:
            gram_ok += 1
        k = rng.randrange(0, h1.dim + 1)
        sub = lt.LocalConditionSubspace(h1, ff.random_subspace(rng, h1.dim, k, m.p), "c")
        if sub.dim + lt.annihilator_subspace(m, sub).dim == h1d.dim:
            split_ok += 1
        if np.array_equal(m.tau, ff.eye(m.dim)):
            tested += 1
            unr = lt.unramified_subspace(m)
            ann = lt.annihilator_subspace(m, unr)
            dual_unr = lt.unramified_subspace(m.dual_twist())
            if ann.dim == dual_unr.dim and ff.span_contains(ann.basis, dual_unr.basis, m.p):
                unr_ok += 1
    checks.append(check("gram matrices invertible", gram_ok == count, passed=gram_ok))
    checks.append(check("dim L + dim ann = h1(twist)", split_ok == count, passed=split_ok))
    checks.append(check("ann(unramified) = dual unramified", unr_ok == tested,
                        tested=tested, passed=unr_ok))
    return _report(checks)


def _rich_module(rng) -> lt.TameGaloisModule:
    p = rng.choice([5, 7, 11, 13])
    n = rng.randrange(2, 9)
    q = p  # redrawn until neither 0 nor 1 mod p
    while q % p in (0, 1):
        q = rng.randrange(2, 60)
    eigs = [1, q] + [rng.randrange(1, p) for _ in range(n - 2)]  # mat_mul reduces q
    g, g_inv = ff.random_invertible(rng, n, p)
    phi = ff.mat_mul(ff.mat_mul(g, np.diag(eigs), p), g_inv, p)
    return lt.TameGaloisModule(p, phi, q)


def builtin_selmer_annihilation(seed):
    count = 100
    ok = 0
    for i in range(count):
        rng = random.Random(seed * 100003 + i)
        sc = sl.build_annihilation_scenario(
            seed=seed * 7 + i, p=rng.choice([5, 7, 11, 13]),
            extra_selmer=rng.randrange(0, 3), num_special=rng.randrange(1, 4)
        )
        w = sc.special[0]
        _, report = sl.annihilation_step(sc.system, sc.conditions, w, sc.ram[w],
                                         sc.phi, sc.psi)
        if report.dual_after < report.dual_before and \
                report.selmer_after == report.selmer_before:
            ok += 1
    return _report([check("strict dual drop with Selmer preserved", ok == count,
                          count=count, passed=ok)])


def builtin_selmer_inflation(seed):
    rng = random.Random(seed)
    checks = []
    fam = sl.build_inflation_family(rng, 5, base_dim=2, added=[1])
    checks.append(check("k = 1 decomposes", sl.inflation_decomposition_check(fam)))
    fam = sl.build_inflation_family(rng, 5, base_dim=3, added=[1, 1])
    checks.append(check("two indices add", sl.inflation_decomposition_check(fam)))
    fam = sl.build_inflation_family(rng, 7, base_dim=2, added=[2, 1, 1])
    checks.append(check("mixed sizes add", sl.inflation_decomposition_check(fam)))
    bad = sl.build_inflation_family(rng, 5, base_dim=2, added=[1, 1], overlapping=True)
    checks.append(check("overlapping control fails", not sl.inflation_decomposition_check(bad)))
    return _report(checks)


def builtin_selmer_avoidance(seed):
    count = 100
    ok = 0
    for i in range(count):
        rng = random.Random(seed * 99991 + i)
        d = rng.choice([2, 3, 4, 5, 6])
        sc = sl.build_avoidance_scenario(
            seed=seed * 13 + i, p=rng.choice([5, 7, 11, 13]), d_weights=d,
            selmer_dim=rng.randrange(max(2, d - 1), max(2, d - 1) + 3)
        )
        _, rep = sl.avoidance_step(sc.system, sc.conditions, sc.beta,
                                   sc.u_subspace, sc.y, sc.ram)
        if rep.selmer_after == rep.selmer_before and \
                not ff.span_contains(sc.u_subspace, rep.beta_psi_tilde, sc.system.p):
            ok += 1
    return _report([check("escape witness outside U with Selmer preserved",
                          ok == count, count=count, passed=ok)])


def builtin_finite_cohomology(seed):
    checks = []
    trivial = sl.FiniteGroupAction(5, [ff.eye(3)])
    checks.append(check("trivial group: H0 = M, H1 = 0",
                        sl.finite_cohomology(trivial, 0)[0] == 3
                        and sl.finite_cohomology(trivial, 1)[0] == 0))
    minus = sl.FiniteGroupAction(5, [(-1) * ff.eye(1) % 5])
    checks.append(check("order-2 action: H1 = 0", sl.finite_cohomology(minus, 1)[0] == 0))
    checks.append(check("order-2 action: H2 = 0, as p does not divide |G|",
                        sl.finite_cohomology(minus, 2)[0] == 0))
    g7 = _sl2_adjoint(7)
    checks.append(check("adjoint image of SL2(F7): H1 = 0",
                        sl.finite_cohomology(g7, 1)[0] == 0, order=g7.order))
    g5 = _sl2_adjoint(5)
    checks.append(check("adjoint image of SL2(F5): the exceptional H1 is 1-dim",
                        sl.finite_cohomology(g5, 1)[0] == 1, order=g5.order))
    # p exactly divides both orders, so H2 is M^P / N_P M fixed by N_G(P).
    for name, g in (("F7", g7), ("F5", g5)):
        h2 = sl.finite_cohomology(g, 2)[0]
        checks.append(check(f"adjoint image of SL2({name}): H2 = 1", h2 == 1, got=h2))
    return _report(checks)


def _sl2_adjoint(p):
    e = np.array([[1, 1], [0, 1]], dtype=np.int64)
    f = np.array([[1, 0], [1, 1]], dtype=np.int64)
    basis = [np.array([[1, 0], [0, -1]]), np.array([[0, 1], [0, 0]]),
             np.array([[0, 0], [1, 0]])]

    def adjoint(m):
        minv = ff.inv(m, p)
        cols = []
        for b in basis:
            conj = ff.mat_mul(ff.mat_mul(m, b, p), minv, p)  # reduced
            cols.append(np.array([conj[0, 0], conj[0, 1], conj[1, 0]], dtype=np.int64))
        return np.column_stack(cols)

    return sl.FiniteGroupAction(p, [adjoint(e), adjoint(f)])


def builtin_numerology_wiles(seed):
    checks = []
    for name in ("A1", "A2", "B2"):
        rd = rdm.build_root_datum([(name[0], int(name[1:]))])
        t0 = rdm.dimension_profile(rd)[3]
        for degree in (2, 4):
            tr = num.wiles_difference(
                num.Scenario(rd, num.totally_real_signature(degree))).difference
            cm_ord = num.wiles_difference(num.Scenario(rd, num.cm_signature(degree))).difference
            cm_no = num.wiles_difference(
                num.Scenario(rd, num.cm_signature(degree), num.NEARLY_ORDINARY)).difference
            checks.append(check(f"{name} deg {degree}: totally real ordinary = 0", tr == 0, got=tr))
            checks.append(check(f"{name} deg {degree}: CM ordinary = -deg/2*t0",
                                cm_ord == -(degree // 2) * t0, got=cm_ord))
            checks.append(check(f"{name} deg {degree}: CM nearly ordinary = +deg/2*t0",
                                cm_no == (degree // 2) * t0, got=cm_no))
        # An involution is odd when it fixes dim n of g0; no torus involution of A2 is.
        odd = name != "A2"
        involutions = [rdm.adjoint_torus_matrix(rd, 5, signs)
                       for signs in itertools.product((1, -1), repeat=rd.rank_ss)]
        audit = num.oddness_audit(rd, involutions, 5)
        checks.append(check(f"{name}: {'some' if odd else 'no'} torus involution is odd",
                            any(is_odd for _, is_odd in audit) == odd,
                            h0=[h0 for h0, _ in audit]))
        mw0 = rdm.longest_element(rd)[1]
        omega = np.eye(rd.rank_ss, dtype=np.int64)
        checks.append(check(f"{name}: theta fixes (omega_i, omega_j) exactly when j = -w0(i)",
                            all(rdm.theta_involution(rd, omega[i], omega[j])[1] == (j == mw0[i])
                                for i in range(rd.rank_ss) for j in range(rd.rank_ss))))
    gl2 = rdm.gl_datum(2)
    r = num.cm_parameter(num.cm_signature(2), gl2)
    checks.append(check("imaginary quadratic GL2: one-variable ring", r == 1, got=r))
    parallel = rdm.parallel_cocharacter_check(gl2, (3, 1), (4, 2), (5, 5))
    control = rdm.parallel_cocharacter_check(gl2, (1, 0), (1, 0), (0, 0))
    checks.append(check("GL2: (3,1) and (4,2) are parallel for omega = (5,5); "
                        "(1,0) and (1,0) are not for omega = 0", parallel and not control))
    return _report(checks)


def builtin_numerology_large_image(seed):
    a2 = rdm.build_root_datum([("A", 2)])
    b2 = rdm.build_root_datum([("B", 2)])
    a1 = rdm.build_root_datum([("A", 1)])
    vals = {name: num.large_image_prime_bound(rd)
            for name, rd in (("A2", a2), ("B2", b2), ("A1", a1))}
    checks = [
        check("A2 bound 29", vals["A2"] == 29, got=vals["A2"]),
        check("B2 bound 19", vals["B2"] == 19, got=vals["B2"]),
        check("A1 bound 19", vals["A1"] == 19, got=vals["A1"]),
    ]
    return _report(checks)


def _example_report(label, rd, r, p):
    """The principal-homomorphism example for rd at (r, p), its one check
    named after `label`."""
    rep = num.example_conditions_check(rd, r, p)
    return _report([check(f"{label}very good prime", rep.very_good)],
                   local_dims=list(num.example_local_dims(r, p)),
                   sqrt_in_base_field=rep.sqrt_in_base_field, notes=list(rep.notes))


def builtin_sec9_a2(seed):
    return _example_report("A2: ", rdm.build_root_datum([("A", 2)]), r=2, p=29)


def builtin_sec9_a1(seed):
    return _example_report("A1: ", rdm.build_root_datum([("A", 1)]), r=3, p=19)


def builtin_padic_log(seed, n=8):
    if not 2 <= n <= pa.MAX_PRECISION:  # 1 + p randrange(1, p^(n - 1)) needs n >= 2
        raise ScenarioError(f"precision must be between 2 and {pa.MAX_PRECISION}")
    p = 5
    rng = random.Random(seed)
    checks = []
    torsion_ok = all(pa.log_unit(pa.teichmuller(a, p, n)).is_zero_at_prec()
                     for a in range(1, p))
    checks.append(check("log of torsion = 0", torsion_ok))
    additive = 0
    for _ in range(200):
        u = pa.PadicInt(p, 1 + p * rng.randrange(1, p ** (n - 1)), n)
        v = pa.PadicInt(p, 1 + p * rng.randrange(1, p ** (n - 1)), n)
        if pa.log_one_unit(u * v).eq_at_shared_precision(
                pa.log_one_unit(u) + pa.log_one_unit(v)):
            additive += 1
    checks.append(check("log additivity on 200 pairs", additive == 200, passed=additive))
    val = pa.log_one_unit(pa.PadicInt(p, 1 + p, n))
    checks.append(check("log(1+p) has valuation 1", val.valuation() == 1,
                        value=val.serialize()))
    return _report(checks)


def builtin_weierstrass(seed):
    checks = []
    g = pw.TruncatedSeries(5, 1, 8, 6, {(1,): 5, (2,): 10, (3,): 10, (4,): 5, (5,): 1})
    wd = pw.weierstrass_data(g)
    checks.append(check("(1+X)^5 - 1 over Z_5 has degree 5", wd.degree == 5,
                        vertices=[[int(x), str(y)] for x, y in wd.vertices]))
    g2 = pw.TruncatedSeries(5, 1, 8, 6, {(0,): -5, (2,): 1})
    wd2 = pw.weierstrass_data(g2)
    checks.append(check("X^2 - 5: degree 2 with slope 1/2 twice",
                        wd2.degree == 2 and wd2.slopes == ((Fraction(1, 2), 2),)))
    g3 = pw.TruncatedSeries(5, 1, 8, 6, {(0,): 3})
    checks.append(check("unit constant: degree 0", pw.weierstrass_data(g3).degree == 0))
    return _report(checks)


def builtin_weights_parallel_functional(seed):
    rng = random.Random(seed)
    model = pw.UnitsModel(5, (("w0", "wbar0", 1), ("w1", "wbar1", 1)))
    elements = [pw.NormOneElement(model, (("w0", 0, 1), ("wbar0", 0, -1))),
                pw.NormOneElement(model, (("w1", 0, 1), ("wbar1", 0, -1)))]
    vanish = nonzero = 0
    for _ in range(50):
        exps = {}
        torsion = {}
        for w, wbar, f in model.pairs:
            n = rng.randrange(-6, 7)
            exps[(w, 0)] = n
            exps[(wbar, 0)] = n
            torsion[(w, 0)] = rng.randrange(1, 5)
            torsion[(wbar, 0)] = rng.randrange(1, 5)
        chi = pw.algebraic_weight(model, exps, prec=8, torsion=torsion)
        if all(pw.parallel_functional(chi, u).is_zero_at_prec() for u in elements):
            vanish += 1
    for _ in range(50):
        exps = {}
        for w, wbar, f in model.pairs:
            exps[(w, 0)] = rng.randrange(-6, 7)
            exps[(wbar, 0)] = exps[(w, 0)]
        w, wbar, _ = model.pairs[rng.randrange(2)]
        exps[(w, 0)] = exps[(wbar, 0)] + rng.randrange(1, 5)
        chi = pw.algebraic_weight(model, exps, prec=8)
        u = pw.NormOneElement(model, ((w, 0, 1), (wbar, 0, -1)))
        if not pw.parallel_functional(chi, u).is_zero_at_prec():
            nonzero += 1
    return _report([
        check("functional vanishes on 50 parallel weights", vanish == 50, passed=vanish),
        check("functional nonzero on 50 non-parallel weights", nonzero == 50, passed=nonzero),
    ])


def builtin_weights_dichotomy(seed):
    count = 100
    rng = random.Random(seed)
    parallel_ok = certificate_ok = 0
    for trial in range(count):
        fam = dichotomy_family(rng, perturbed=trial % 2 == 1)
        verdict = pw.passage_dichotomy(fam)
        parallel_ok += trial % 2 == 0 and isinstance(verdict, pw.ParallelWeights)
        certificate_ok += trial % 2 == 1 and isinstance(verdict, pw.SparsityCertificate)
    half = count // 2
    return _report([
        check("constant-ratio families give parallel weights",
              parallel_ok == count - half, passed=parallel_ok),
        check("perturbed families give certificates",
              certificate_ok == half, passed=certificate_ok),
    ])


def dichotomy_family(rng, perturbed: bool) -> pw.DichotomyFamily:
    """A seeded family over Z_5 at precision 8 on A_d, d in {1, 2}, whose
    ratios f_w / f_wbar are constant roots of unity; when perturbed, one
    entry's f_w is multiplied by 1 + c x_i, which breaks its constancy."""
    p, prec = 5, 8
    d = rng.choice([1, 2])
    nvars = rng.randrange(1, 5)
    cap = rng.randrange(2, 7)
    mw0 = rdm.longest_element(rdm.build_root_datum([("A", d)]))[1]
    entries = []
    for i in range(d):
        # A unit series: a unit constant term and random linear terms.
        terms = {tuple(0 for _ in range(nvars)): pa.PadicInt(p, rng.randrange(1, p), prec)}
        for j in range(nvars):
            idx = tuple(int(k == j) for k in range(nvars))
            terms[idx] = pa.PadicInt(p, rng.randrange(0, p * p), prec)
        base = pw.TruncatedSeries(p, nvars, prec, cap, terms)
        zeta = pa.teichmuller(rng.randrange(1, p), p, prec)
        entries.append(pw.DichotomyEntry("w0", i, 0, base.scale(zeta), base))
    fam = pw.DichotomyFamily(p, d, 1, tuple(mw0), entries)
    if perturbed:
        e = fam.entries[rng.randrange(len(fam.entries))]
        var = rng.randrange(nvars)
        bump = tuple(int(k == var) for k in range(nvars))
        e.f_w = e.f_w * pw.TruncatedSeries(p, nvars, prec, cap, {
            tuple(0 for _ in range(nvars)): pa.PadicInt.one(p, prec),
            bump: pa.PadicInt(p, rng.randrange(1, p), prec),
        })
    return fam


BUILTINS = {
    "rootdatum-profiles": ("dimension profiles for A1..G2 against hand tables",
                           builtin_rootdatum_profiles),
    "unique-root-certificates": ("uniqueness certificate, rank <= 4 and G2",
                                 builtin_unique_root_certificates),
    "tame-cohomology-random": ("500 seeded tame modules: the duality identity",
                               builtin_tame_cohomology_random),
    "gl2-f5-ramakrishna": ("the GL2/F5, q = 3 local package with component checks",
                           builtin_gl2_f5_ramakrishna),
    "tate-duality-suite": ("pairing perfectness and annihilator dimensions",
                           builtin_tate_duality_suite),
    "selmer-annihilation-suite": ("100 seeded dual-annihilation steps",
                                  builtin_selmer_annihilation),
    "selmer-inflation-checks": ("inflation decomposition, positive and negative",
                                builtin_selmer_inflation),
    "selmer-avoidance-suite": ("100 seeded avoidance steps", builtin_selmer_avoidance),
    "finite-cohomology-small": ("finite-group cohomology spot checks",
                                builtin_finite_cohomology),
    "numerology-wiles-table": ("difference formula menus over A1, A2, B2",
                               builtin_numerology_wiles),
    "numerology-large-image": ("large-image prime bounds for A2, B2, A1",
                               builtin_numerology_large_image),
    "sec9-example-a2": ("principal-homomorphism conditions for A2, r = 2, p = 29",
                        builtin_sec9_a2),
    "sec9-example-a1": ("principal-homomorphism conditions for A1, r = 3, p = 19",
                        builtin_sec9_a1),
    "padic-log-suite": ("torsion, additivity, valuation of log", builtin_padic_log),
    "weierstrass-suite": ("Newton polygons and Weierstrass degrees", builtin_weierstrass),
    "weights-parallel-functional-suite": ("vanishing/nonvanishing of the weight functional",
                                          builtin_weights_parallel_functional),
    "weights-dichotomy-corpus": ("100 seeded dichotomy families", builtin_weights_dichotomy),
}


def list_builtins():
    return [{"id": k, "description": v[0]} for k, v in sorted(BUILTINS.items())]


def run_builtin(name: str, seed: int, precision: int | None):
    if name not in BUILTINS:
        raise ScenarioError(f"unknown builtin {name!r}")
    run = BUILTINS[name][1]
    if precision is None:
        report = run(seed)
    elif run is builtin_padic_log:  # the one builtin that reads a precision
        report = run(seed, precision)
    else:
        raise ScenarioError(f"precision applies only to padic-log-suite, not to {name}")
    report["scenario"] = name
    report["seed"] = seed
    return report


# ---------------------------------------------------------------------------
# File scenarios
# ---------------------------------------------------------------------------
# Every field is read through one of the readers below, each naming the field
# it refuses; beyond them, only the layers' own InputErrors refuse input.

_REQUIRED = object()
# A decimal integer written as a string, within the digits int() will read.
_DECIMAL = re.compile(r"\s*[+-]?\d{1,4000}\s*")


def _field(payload: dict, name: str, default=_REQUIRED, where: str = ""):
    """payload[name], or the default; a missing field is refused (as `where` misses it)."""
    value = payload.get(name, default)
    if value is _REQUIRED:
        raise ScenarioError(f"{where} misses the field {name!r}" if where else repr(name))
    return value


def _int(value, name: str) -> int:
    """An int, an integral float or a decimal string; never a bool."""
    if type(value) is int or isinstance(value, np.integer) or \
            isinstance(value, float) and value.is_integer() or \
            isinstance(value, str) and _DECIMAL.fullmatch(value):
        return int(value)
    raise ScenarioError(f"{name} must be an integer, got {value!r}")


def _list(value, name: str, must: str, item=lambda x: True) -> list:
    if not (isinstance(value, list) and all(item(x) for x in value)):
        raise ScenarioError(f"{name} must {must}, got {value!r}")
    return value


def _is_pair(value) -> bool:
    return isinstance(value, list) and len(value) == 2


def _int_list(value, name: str) -> list[int]:
    return [_int(x, f"{name} entry") for x in _list(value, name, "be a list of integers")]


def _mapping(value, name: str, must: str = "be an object") -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{name} must {must}, got {value!r}")
    return value


def _prime(payload: dict, n: int) -> int:
    """The payload's p: an odd prime whose sums of n products of residues fit
    int64."""
    # A missing p is refused as not prime.
    return ff.odd_prime(_int(_field(payload, "p", 0), "p"), ScenarioError, n)


def _matrix(rows, name: str, p: int) -> np.ndarray:
    """A list of rows of one length of integers, reduced mod p."""
    width = len(rows[0]) if isinstance(rows, list) and rows and isinstance(rows[0], list) else 0
    if not (isinstance(rows, list)
            and all(isinstance(row, list) and len(row) == width for row in rows)):
        raise ScenarioError(f"{name} must be a matrix of integers with rows of one length")
    entry = f"{name} entry"
    return np.array([_int(x, entry) % p for row in rows for x in row],
                    dtype=np.int64).reshape(len(rows), width)


def _series(value, name: str, p: int) -> pw.TruncatedSeries:
    """A series over Z_p: {"p", "nvars", "prec", "degree_cap", "coeffs"}, each
    coefficient an [exponents, residue] or [exponents, residue, prec] list."""
    s = _mapping(value, name)
    sp, nvars, prec, cap = (_int(_field(s, key), f"{name} {key}")
                            for key in ("p", "nvars", "prec", "degree_cap"))
    if sp != p:
        raise ScenarioError(f"{name} must be a series over Z_{p}, got p = {sp}")
    terms = _list(_field(s, "coeffs"), f"{name} coeffs", "be [exponents, residue(, prec)] lists",
                  lambda t: isinstance(t, list) and len(t) in (2, 3))
    return pw.TruncatedSeries(p, nvars, prec, cap, {
        tuple(_int_list(t[0], f"{name} exponents")): pa.PadicInt(
            p, _int(t[1], f"{name} residue"), _int(t[2], f"{name} prec") if len(t) == 3 else prec)
        for t in terms})


def run_scenario_payload(kind: str, payload: dict, seed: int, precision: int | None):
    if precision is not None:  # no kind reads one
        raise ScenarioError("precision applies only to padic-log-suite, not to a scenario file")
    if kind not in RUNNERS:
        raise ScenarioError(f"unknown scenario kind {kind!r}")
    return RUNNERS[kind](payload, seed)


def _run_rootdatum(payload, seed):
    rd = parse_root_datum(payload)
    profile = rdm.dimension_profile(rd)
    word, mw0 = rdm.longest_element(rd)
    checks = [
        check("w0 word has length #positive roots", len(word) == rd.num_positive),
        check("certificates for all simple roots",
              all(rdm.unique_root_certificate(rd, i) for i in range(rd.rank_ss))),
    ]
    return _report(checks, profile=list(profile), minus_w0=list(map(int, mw0)),
                   heights=sorted(rd.height(r) for r in rd.positive_roots))


def _run_local(payload, seed):
    rd = parse_root_datum(_field(payload, "root_datum"))
    # The pairing is a 2n x 2n matrix on the adjoint module of dimension n.
    p = _prime(payload, 2 * (rd.rank_ss + len(rd.all_roots())))
    t = rdm.TorusElement(rd, p, tuple(_int_list(_field(payload, "torus_values"), "torus_values")))
    twist = _int(_field(payload, "twist", 0), "twist")
    base = lt.AdjointModule(rd, t, _int(_field(payload, "q"), "q"))
    m = base.module.twisted(twist)
    checks = []
    details = {"cohomology": list(lt.cohomology_dims(m)), "twist": twist}
    base_dims = lt.cohomology_dims(base.module)  # m itself at twist 0, so cached
    try:
        ok, alpha = lt.is_ramakrishna_type(base)
    except lt.TameModuleError as exc:
        ok, alpha = False, None
        details["ramakrishna_note"] = str(exc)
    details["ramakrishna"] = ok
    if ok:
        # The condition subspaces live on the untwisted adjoint module.
        sub = lt.ramakrishna_subspace(base, alpha)
        checks.append(check("ramified subspace dim = h0", sub.dim == base_dims[0],
                            got=sub.dim))
        details["certified_root"] = list(map(int, alpha))
    g, h1, h1d = lt.pairing_gram(m)
    checks.append(check("duality pairing perfect",
                        h1.dim == h1d.dim and ff.rank(g, m.p) == h1.dim))
    return _report(checks, **details)


def _signature(value):
    sig = _mapping(value, "signature")
    kind = _field(sig, "kind", "totally_real")
    if kind == "rational":
        return num.totally_real_signature(1)
    if kind not in ("totally_real", "cm"):
        raise ScenarioError(f"unknown signature kind {kind!r}")
    degree = _int(_field(sig, "degree"), "signature degree")
    if kind == "cm":
        return num.cm_signature(degree, _int_list(_field(sig, "pair_degrees", []), "pair_degrees"))
    return num.totally_real_signature(
        degree, _int_list(_field(sig, "local_degrees", []), "local_degrees"))


def _run_numerology(payload, seed):
    rd = parse_root_datum(_field(payload, "root_datum"))
    sig = _signature(_field(payload, "signature"))
    mode = _field(payload, "mode", num.ORDINARY)
    places = _list(_field(payload, "finite_places", []), "finite_places", "be a list of pairs",
                   _is_pair)
    finite = tuple(num.FinitePlace(*_int_list(e, "finite_places")) for e in places)
    rep = num.wiles_difference(num.Scenario(rd, sig, mode, finite))
    checks = []
    out = {"difference": rep.difference,
           "terms": [[name, int(v)] for name, v in rep.terms]}
    if sig.cm:
        out["cm_parameter"] = num.cm_parameter(sig, rd)
        if mode == num.NEARLY_ORDINARY and not finite:
            checks.append(check("difference equals the CM parameter",
                                rep.difference == out["cm_parameter"]))
    return _report(checks, **out)


def _run_selmer(payload, seed):
    local_dims = _mapping(_field(payload, "local_dims"), "local_dims", "map places to integers")
    local_dims = {v: _int(d, f"local_dims at {v}") for v, d in local_dims.items()}
    places = tuple(sorted(local_dims))
    explicit = "res" in payload
    blocks = [_mapping(_field(payload, key), key, "map places to matrices")
              for key in (("res", "res_dual", "pairing") if explicit else ())]
    global_dim = _int(_field(payload, "global_dim", 0 if explicit else _REQUIRED), "global_dim")
    # p is bounded at the largest dimension: a local one, dim H, or the
    # widths of the explicit restrictions (dim H and dim H').
    widths = [len(rows[0]) for block in blocks[:2] for rows in block.values()
              if isinstance(rows, list) and rows and isinstance(rows[0], list)]
    p = _prime(payload, max([global_dim, *local_dims.values(), *widths]))
    if explicit:
        system = sl.SelmerSystem(p, places, local_dims, *(
            {v: _matrix(_field(block, v), f"{key} at {v}", p) for v in places}
            for key, block in zip(("res", "res_dual", "pairing"), blocks)))
        # Local duality is a hypothesis: a pairing from outside must be perfect.
        for v in places:
            if ff.rank(system.pairing[v], p) < local_dims[v]:
                raise ScenarioError(f"pairing at {v} is degenerate")
    else:
        system = sl.build_exact_system(random.Random(seed), p, local_dims, global_dim)
    given = _mapping(_field(payload, "conditions", {}), "conditions", "map places to matrices")
    unknown = sorted(set(given) - set(places))
    if unknown:
        raise ScenarioError(f"conditions name {unknown[0]!r}, which is not a place of local_dims")
    conds = sl.ConditionAssignment(system, {
        v: _matrix(given[v], f"condition at {v}", p) if v in given
        else ff.eye(system.local_dims[v]) for v in system.places})
    s = sl.selmer(system, conds)
    d = sl.dual_selmer(system, conds)
    return _report([check("exactness", system.exactness_holds())], selmer_dim=int(s.shape[1]), dual_selmer_dim=int(d.shape[1]),
                   condition_dims=conds.dims())


def _run_weights(payload, seed):
    p = _prime(payload, 1)
    d, f = (_int(_field(payload, key, where="weights payload"), key) for key in ("d", "f"))
    minus_w0 = _int_list(_field(payload, "minus_w0", where="weights payload"), "minus_w0")
    entries = _list(_field(payload, "entries", where="weights payload"), "entries",
                    "be a list of objects with a string place",
                    lambda e: isinstance(e, dict) and isinstance(e.get("place"), str))
    fam = pw.DichotomyFamily(p, d, f, tuple(minus_w0), [pw.DichotomyEntry(
        e["place"], _int(_field(e, "root_index"), "root_index"),
        _int(_field(e, "gen_index"), "gen_index"),
        _series(_field(e, "f_w"), "f_w", p), _series(_field(e, "f_wbar"), "f_wbar", p))
        for e in entries])
    verdict = pw.passage_dichotomy(fam)
    if isinstance(verdict, pw.ParallelWeights):
        return _report([], verdict="parallel-weights", pairs=[
            {"place": pl, "var": int(var),
             "x_w": [int(x) for x in xw], "x_wbar": [int(x) for x in xwbar]}
            for pl, var, xw, xwbar in verdict.pairs])
    # Both other verdicts name an entry and a root of unity.
    e = verdict.entry if isinstance(verdict, pw.Undetermined) else verdict
    where = {"place": e.place, "root_index": e.root_index, "gen_index": e.gen_index,
             "zeta": verdict.zeta.residue % p}
    if isinstance(verdict, pw.Undetermined):  # the precision does not decide this ratio
        return _report([], verdict="undetermined", undetermined=where)
    return _report([], verdict="sparsity-certificate", certificate={
        **where, "var": int(verdict.var), "degree": int(verdict.degree), "other_zeta": "empty"})


def _run_example(payload, seed):
    rd = parse_root_datum(_field(payload, "root_datum"))
    r = _int(_field(payload, "r"), "r")
    return _example_report("", rd, r, _prime(payload, 1))


RUNNERS = {"rootdatum": _run_rootdatum, "local": _run_local, "numerology": _run_numerology,
           "selmer": _run_selmer, "weights": _run_weights, "example": _run_example}
KINDS = tuple(RUNNERS)
