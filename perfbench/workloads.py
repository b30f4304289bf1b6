"""The four seeded workloads: their inputs, the op each runs, and its oracle.

A workload turns a seed into one *round*: a list of ops whose composition
(families, sizes, strata of q and of series shapes) is fixed by design and
whose details (primes, matrices, coefficients, bases) come from the seed.
The latency distribution then differs little between seeds while the
inputs do.  An op calls only galdesk's public functions and builds every
galdesk object it uses afresh, so each pass over a round does the same work.
Its oracle (`Op.check`) uses perfbench.oracle and the generation data, not
the timed code path.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

import oracle
from galdesk import ffield as ff
from galdesk import local_tame as lt
from galdesk import padic_weights as pw
from galdesk import padics as pa
from galdesk import scenarios as sc
from galdesk import selmer as sl


@dataclass
class Op:
    kind: str
    run: Callable[[], object]  # the timed galdesk calls
    check: Callable[[object], list]  # oracle mismatches; empty when correct
    canon: Callable[[object], str]  # canonical text of the result, for the digest


def render(report: dict) -> str:
    """The serialization `galdesk run` performs for a JSON report."""
    return json.dumps(report, sort_keys=True, indent=2)


def _lists(*arrays) -> str:
    return repr([np.asarray(a, dtype=np.int64).tolist() for a in arrays])


def _errors(*pairs) -> list:
    """Names of the failed (name, ok) oracle checks."""
    return [name for name, ok in pairs if not ok]


# ---------------------------------------------------------------------------
# selmer-steps
# ---------------------------------------------------------------------------

SELMER_PRIMES = (5, 7, 11, 13)


def _annihilation(s, p, extra, k):
    scn = sl.build_annihilation_scenario(seed=s, p=p, extra_selmer=extra, num_special=k)
    w = scn.special[0]
    new, rep = sl.annihilation_step(scn.system, scn.conditions, w, scn.ram[w], scn.phi, scn.psi)
    return scn, new, rep


def _check_annihilation(res):
    scn, new, rep = res
    before = oracle.selmer_dims(scn.system, scn.conditions.l_spaces)
    after = oracle.selmer_dims(scn.system, new.l_spaces)
    return _errors(
        ("strict dual drop with Selmer preserved",
         rep.dual_after < rep.dual_before and rep.selmer_after == rep.selmer_before),
        ("dimensions before the step", before == (rep.selmer_before, rep.dual_before)),
        ("dimensions after the step", after == (rep.selmer_after, rep.dual_after)),
        ("reciprocity", oracle.reciprocity(scn.system)),
        ("exactness", oracle.exactness(scn.system)),
    )


def _canon_annihilation(res):
    scn, new, rep = res
    w = scn.special[0]
    return f"ann {rep.selmer_before} {rep.selmer_after} {rep.dual_before} {rep.dual_after} " \
        + _lists(new.l_spaces[w], scn.phi, scn.psi)


def _avoidance(s, p, d, selmer_dim):
    scn = sl.build_avoidance_scenario(seed=s, p=p, d_weights=d, selmer_dim=selmer_dim)
    new, rep = sl.avoidance_step(scn.system, scn.conditions, scn.beta, scn.u_subspace,
                                 scn.y, scn.ram)
    return scn, new, rep


def _check_avoidance(res):
    scn, new, rep = res
    p = scn.system.p
    before = oracle.selmer_dims(scn.system, scn.conditions.l_spaces)
    after = oracle.selmer_dims(scn.system, new.l_spaces)
    beta_psi = scn.beta @ rep.psi_tilde % p
    in_new_selmer = all(
        oracle.in_span(new.l_spaces[v], scn.system.res[v] @ rep.psi_tilde % p, p)
        for v in scn.system.places)
    return _errors(
        ("Selmer dimension preserved", rep.selmer_after == rep.selmer_before),
        ("dimensions before and after", before[0] == rep.selmer_before
         and after[0] == rep.selmer_after and before[1] == 0),
        ("escape witness is a new Selmer class", in_new_selmer),
        ("escape witness lies outside U",
         np.array_equal(beta_psi, rep.beta_psi_tilde % p)
         and not oracle.in_span(scn.u_subspace, beta_psi, p)),
        ("reciprocity", oracle.reciprocity(scn.system)),
        ("exactness", oracle.exactness(scn.system)),
    )


def _canon_avoidance(res):
    scn, new, rep = res
    return f"avo {rep.selmer_before} {rep.selmer_after} " \
        + _lists(rep.psi_prime, rep.psi_tilde, rep.beta_psi_tilde, new.l_spaces[scn.y])


def _selmer_payload(rng, p):
    """A `selmer` scenario payload: an exact system with explicit random conditions."""
    nplaces = rng.randrange(2, 5)
    local_dims = {f"v{i}": rng.randrange(1, 5) for i in range(nplaces)}
    total = sum(local_dims.values())
    global_dim = rng.randrange(0, total + 1)
    system = sl.build_exact_system(random.Random(rng.randrange(1 << 30)), p, local_dims,
                                   global_dim)
    conditions = {v: oracle.random_subspace(rng, n, rng.randrange(0, n + 1), p)
                  for v, n in local_dims.items()}
    payload = {
        "p": p,
        "local_dims": local_dims,
        "res": {v: system.res[v].tolist() for v in system.places},
        "res_dual": {v: system.res_dual[v].tolist() for v in system.places},
        "pairing": {v: system.pairing[v].tolist() for v in system.places},
        "conditions": {v: c.tolist() for v, c in conditions.items()},
    }
    return payload, system, conditions, global_dim


def _run_payload(kind, payload, seed):
    report = sc.run_scenario_payload(kind, payload, seed, None)
    return report, render(report)


def _check_selmer_payload(system, conditions, global_dim, res):
    report, _ = res
    sel, dual = oracle.selmer_dims(system, conditions)
    sum_l = sum(c.shape[1] for c in conditions.values())
    return _errors(
        ("report passes", report["status"] == "pass"),
        ("reciprocity", oracle.reciprocity(system)),
        ("exactness", oracle.exactness(system)),
        ("selmer - dual = global + sum dim L - sum dim V",
         report["selmer_dim"] - report["dual_selmer_dim"]
         == global_dim + sum_l - sum(system.local_dims.values())),
        ("Selmer dimensions", (report["selmer_dim"], report["dual_selmer_dim"]) == (sel, dual)),
    )


def selmer_steps(seed: int) -> list[Op]:
    """36 annihilation steps, 36 avoidance steps and 36 `selmer` payloads.

    Each prime is used equally often; the annihilation grid covers
    extra_selmer 0..2 by 1..3 fresh indices, the avoidance grid weight
    dimensions 2..6 with Selmer dimensions up to two above the minimum.
    """
    rng = random.Random(seed)
    ops = []
    for i in range(36):
        p = SELMER_PRIMES[i % 4]
        ops.append(Op("annihilation",
                      partial(_annihilation, rng.randrange(1 << 30), p, (i // 4) % 3,
                              1 + (i // 12) % 3),
                      _check_annihilation, _canon_annihilation))
    for i in range(36):
        p = SELMER_PRIMES[i % 4]
        d = 2 + (i // 4) % 5
        low = max(2, d - 1)
        ops.append(Op("avoidance",
                      partial(_avoidance, rng.randrange(1 << 30), p, d, low + (i // 4) % 3),
                      _check_avoidance, _canon_avoidance))
    for i in range(36):
        payload, system, conditions, global_dim = _selmer_payload(rng, SELMER_PRIMES[i % 4])
        ops.append(Op("selmer-payload",
                      partial(_run_payload, "selmer", payload, rng.randrange(1 << 30)),
                      partial(_check_selmer_payload, system, conditions, global_dim),
                      lambda res: res[1]))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# tame-duality
# ---------------------------------------------------------------------------

TAME_PRIMES = (5, 7, 11, 13)
LOCAL_PRIMES = (7, 11, 13)  # F_5 has no regular semisimple torus element for A2 or B2
Q_MAX = 10**4
TAME_FAMILIES = ("random-module", "rich-module", "local-payload")
TAME_OPS = 72  # one per log-q stratum; the families take turns

# Positive roots in simple-root coordinates (Bourbaki numbering; in B2 the
# second simple root is short).
ROOTS = {
    "GL2": [(1,)],
    "A2": [(1, 0), (0, 1), (1, 1)],
    "B2": [(1, 0), (0, 1), (1, 1), (1, 2)],
}
ROOT_DATUM_PAYLOAD = {"GL2": {"gl": 2}, "A2": {"type": [["A", 2]]},
                      "B2": {"type": [["B", 2]]}}


def _tame_module_op(p, phi, q, twist, sub_seed, unramified):
    m = lt.TameGaloisModule(p, phi, q, twist=twist)
    dims = lt.cohomology_dims(m)
    md = m.dual_twist()
    dims_dual = lt.cohomology_dims(md)
    gram, h1, _ = lt.pairing_gram(m)
    dual_unr = None
    if unramified:
        sub = lt.unramified_subspace(m)
        dual_unr = lt.unramified_subspace(md).basis
    else:
        rng = random.Random(sub_seed)
        basis = ff.random_subspace(rng, h1.dim, rng.randrange(h1.dim + 1), p)
        sub = lt.LocalConditionSubspace(h1, basis, "random")
    ann = lt.annihilator_subspace(m, sub)
    return dims, dims_dual, gram, sub.basis, ann.basis, dual_unr


def _h0_h2(p, phi, q, twist):
    """(h0, h2) of a module with trivial inertia, from two ranks: the fixed
    space of Phi_eff and, by local duality, that of q Phi_eff^-T."""
    n = len(phi)
    phi_eff = pow(q, twist % (p - 1), p) * phi % p
    one = np.eye(n, dtype=np.int64)
    return (n - oracle.rank((phi_eff - one) % p, p),
            n - oracle.rank((phi_eff - q % p * one) % p, p))


def _check_tame_module(p, phi, q, twist, res):
    dims, dims_dual, gram, sub, ann, dual_unr = res
    h0, h2 = _h0_h2(p, phi, q, twist)
    h1 = h0 + h2
    checks = [
        ("euler h1 = h0 + h2 with h0, h2 from ranks", tuple(dims) == (h0, h1, h2)),
        ("h2(M) = h0(M^v(1)) and h1(M) = h1(M^v(1))", tuple(dims_dual) == (h2, h1, h0)),
        ("gram rank = h1", gram.shape == (h1, h1) and oracle.rank(gram, p) == h1),
        ("dim L + dim ann(L) = h1", sub.shape[1] + ann.shape[1] == h1),
        ("ann(L) pairs to zero with L", not (sub.T @ gram % p @ ann % p).any()),
    ]
    if dual_unr is not None:
        checks.append(("ann(unramified) = dual unramified",
                       sub.shape[1] == h0 and dual_unr.shape[1] == h2
                       and oracle.same_span(ann, dual_unr, p)))
    return _errors(*checks)


def _canon_tame(res):
    dims, dims_dual, gram, sub, ann, dual_unr = res
    extra = [] if dual_unr is None else [dual_unr]
    return f"tame {list(dims)} {list(dims_dual)} " + _lists(gram, sub, ann, *extra)


def _root_value(root, values, p):
    out = 1
    for c, v in zip(root, values):
        out = out * pow(v, c, p) % p  # pow handles negative exponents mod p
    return out


def _all_roots(name):
    return ROOTS[name] + [tuple(-c for c in r) for r in ROOTS[name]]


def _check_local(name, p, values, q, twist, res):
    report, _ = res
    qbar = q % p
    scale = pow(qbar, twist % (p - 1), p)
    roots = _all_roots(name)
    rank_ss = len(values)
    eig = [scale] * rank_ss + [pow(_root_value(r, values, p), -1, p) * scale % p for r in roots]
    h0 = eig.count(1)
    h2 = eig.count(qbar)
    regular = all(_root_value(r, values, p) != 1 for r in roots)
    hits = [r for r in roots if _root_value(r, values, p) == pow(qbar, -1, p)]
    ramakrishna = qbar != 1 and regular and len(hits) == 1
    checks = [
        ("report passes", report["status"] == "pass"),
        ("cohomology from eigenvalue counts", report["cohomology"] == [h0, h0 + h2, h2]),
        ("ramakrishna flag", report["ramakrishna"] == ramakrishna),
    ]
    if ramakrishna:
        checks.append(("certified root", tuple(report["certified_root"]) == hits[0]))
    return _errors(*checks)


def _random_frobenius(rng, n, p, q, twist, h1):
    """A random invertible Phi, redrawn until the module has the given h1
    (0 or 1; q must not be 1 mod p, where h1 = 2 h0)."""
    while True:
        phi = oracle.random_invertible(rng, n, p)
        if sum(_h0_h2(p, phi, q, twist)) == h1:
            return phi


def _ramakrishna_torus(rng, name, p, q):
    """Simple-root values of a regular semisimple torus element with exactly
    one root at q^-1 mod p, which makes h1 = rank + 1; None if 100 draws
    find none."""
    roots = _all_roots(name)
    target = pow(q, -1, p)
    for _ in range(100):
        values = [rng.randrange(1, p) for _ in roots[0]]
        at = [_root_value(r, values, p) for r in roots]
        if 1 not in at and at.count(target) == 1:
            return values
    return None


def tame_duality(seed: int) -> list[Op]:
    """24 random Frobenius modules, 24 rich modules and 24 `local` payloads
    for adjoint GL2/A2/B2.  q is log-uniform on [2, 10^4]: the log-midpoint
    of each of 72 equal strata, moved up past q = 0, 1 mod p (and for a
    payload, to the next q with a suitable torus element); the three
    families take the strata in turn.  The
    Gram matrices cost about q h1^2, so the position in the family fixes
    h1: a random module is redrawn until h1 is 0 or 1 as its position
    says, a rich module has the eigenvalues 1 and q mod p once each and its
    others elsewhere, so h1 = 2, and a payload's torus element is regular
    semisimple with exactly one root at q^-1, so h1 = rank + 1.  The position
    in the family fixes q, p, the dimension, the root datum and the twist;
    the seed draws the matrices and the torus values.  (A q drawn within
    its stratum moved the tail op's cost by 7% from seed to seed.)
    Half the rich modules take the unramified subspace as their condition,
    the rest a random one."""
    rng = random.Random(seed)
    ops = []
    for j in range(TAME_OPS):
        family, k = TAME_FAMILIES[j % 3], j // 3
        q = round(2 * (Q_MAX / 2) ** ((j + 0.5) / TAME_OPS))
        p = TAME_PRIMES[k % 4]
        while q % p in (0, 1):
            q += 1
        if family == "random-module":
            n = 1 + k % 8
            twist = rng.randrange(-2, 3)
            phi = _random_frobenius(rng, n, p, q, twist, k % 2)
            ops.append(Op(family, partial(_tame_module_op, p, phi, q, twist,
                                          rng.randrange(1 << 30), False),
                          partial(_check_tame_module, p, phi, q, twist), _canon_tame))
            continue
        if family == "rich-module":
            n = 2 + k % 7
            eigs = [1, q % p] + [rng.choice([e for e in range(2, p) if e != q % p])
                                 for _ in range(n - 2)]
            g = oracle.random_invertible(rng, n, p)
            phi = g @ np.diag(eigs) % p @ oracle.inverse(g, p) % p
            ops.append(Op(family, partial(_tame_module_op, p, phi, q, 0,
                                          rng.randrange(1 << 30), k % 2 == 0),
                          partial(_check_tame_module, p, phi, q, 0), _canon_tame))
            continue
        name = ("GL2", "A2", "B2")[k % 3]
        p = LOCAL_PRIMES[(k // 3) % 3]
        while q % p in (0, 1) or (values := _ramakrishna_torus(rng, name, p, q)) is None:
            q += 1
        twist = k % 2
        payload = {"root_datum": ROOT_DATUM_PAYLOAD[name], "p": p, "torus_values": values,
                   "q": q, "twist": twist}
        ops.append(Op(family, partial(_run_payload, "local", payload, 0),
                      partial(_check_local, name, p, values, q, twist), lambda res: res[1]))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# group-cohomology
# ---------------------------------------------------------------------------


def _sl2_adjoint_generators(p):
    """Adjoint images of [[1,1],[0,1]] and [[1,0],[1,1]] on sl2 = <h, e, f>."""
    basis = [np.array([[1, 0], [0, -1]]), np.array([[0, 1], [0, 0]]),
             np.array([[0, 0], [1, 0]])]

    def adjoint(m, m_inv):
        cols = []
        for b in basis:
            c = m @ b @ m_inv % p
            # c = x h + y e + z f has entries [[x, y], [z, -x]].
            cols.append([c[0, 0], c[0, 1], c[1, 0]])
        return np.array(cols, dtype=np.int64).T % p

    e = np.array([[1, 1], [0, 1]])
    f = np.array([[1, 0], [1, 1]])
    return [adjoint(e, np.array([[1, -1], [0, 1]])), adjoint(f, np.array([[1, 0], [-1, 1]]))]


def _permute(rng, mats):
    """Conjugate by a random permutation matrix.  A denser change of basis
    would make the cost of the bar resolution depend on the seed."""
    order = rng.sample(range(mats[0].shape[0]), mats[0].shape[0])
    return [m[np.ix_(order, order)] for m in mats]


def _group_op(p, gens, degrees):
    g = sl.FiniteGroupAction(p, [m.copy() for m in gens])
    return g.order, [sl.finite_cohomology(g, d) for d in degrees]


def _check_sl2(p, gens, res):
    order, ((h0, _), (h1, _)) = res
    return _errors(
        ("order of PSL2(F_p)", order == p * (p * p - 1) // 2),
        ("H0 from ranks", h0 == oracle.h0_dim(gens, p)),
        ("H1 is 1 for p = 5 and 0 for p = 7", h1 == {5: 1, 7: 0}[p]),
    )


def _check_small(p, gens, cyclic, complement, order, res):
    got_order, ((h0, _), (h1, _), (h2, _)) = res
    want_h1, want_h2 = oracle.cyclic_by_coprime_h12(cyclic, complement, p)
    return _errors(
        ("group order", got_order == order),
        ("H0 from ranks", h0 == oracle.h0_dim(gens, p)),
        ("H^{>=1} = 0 when p does not divide |G|", order % p == 0 or h1 == h2 == 0),
        ("H1 and H2 from the cyclic normal subgroup", (h1, h2) == (want_h1, want_h2)),
    )


def _canon_group(res):
    order, cohomology = res
    return f"group {order} " + repr([
        (dim, None if basis is None else np.asarray(basis).tolist()) for dim, basis in cohomology])


def _bd(*blocks):
    return oracle.block_diag([np.array(b, dtype=np.int64).reshape(len(b), -1) for b in blocks])


J2 = [[1, 1], [0, 1]]


def _small_groups(rng):
    """(p, generators, cyclic normal g, complement [(h, b)], order) per shape.

    Shapes: cyclic (order 5, and 6 in dimension 3), dihedral (order 6, over
    F_3 and prime to p over F_7) and the Borel subgroup T x| U of GL2(F_3),
    of order 12.  The seed picks the generator of the coprime group and the
    order of the basis.
    """
    shapes = []
    shapes.append((5, [J2], J2, [([[1, 0], [0, 1]], 1)], 5))
    g = _bd(J2, [[2]])
    shapes.append((3, [g], g, [(np.eye(3, dtype=np.int64), 1)], 6))
    s = _bd([[2]], [[1]])
    shapes.append((3, [np.array(J2), s], np.array(J2),
                   [(np.eye(2, dtype=np.int64), 1), (s, 2)], 6))
    z = rng.choice([2, 4])  # of order 3 mod 7
    r = _bd([[z]], [[pow(z, -1, 7)]])
    s = np.array([[0, 1], [1, 0]])
    shapes.append((7, [r, s], r, [(np.eye(2, dtype=np.int64), 1), (s, 2)], 6))
    torus = [(a, d) for a in (1, 2) for d in (1, 2)]
    shapes.append((3, [np.array(J2), _bd([[2]], [[1]]), _bd([[1]], [[2]])], np.array(J2),
                   [(_bd([[a]], [[d]]), d * a % 3) for a, d in torus], 12))
    out = []
    for p, gens, cyc, complement, order in shapes:
        mats = _permute(rng, [np.array(m, dtype=np.int64) for m in
                              [*gens, cyc, *(h for h, _ in complement)]])
        k = len(gens)
        out.append((p, mats[:k], mats[k],
                    [(h, b) for h, (_, b) in zip(mats[k + 1:], complement)], order))
    return out


def group_cohomology(seed: int) -> list[Op]:
    """SL2(F_7) once and SL2(F_5) three times as adjoint images (enumeration,
    H0, H1; the same input every time), and five seeded small groups of
    order <= 12 and dimension <= 3 (H0, H1, H2).  Four small groups cost
    less than an SL2(F_5) op and two ops more, so that both the median and
    the tail percentile of a run of five passes fall on SL2(F_5) ops."""
    rng = random.Random(seed)
    ops = []
    for p in (7, 5, 5, 5):
        gens = _sl2_adjoint_generators(p)
        ops.append(Op(f"sl2-f{p}", partial(_group_op, p, gens, (0, 1)),
                      partial(_check_sl2, p, gens), _canon_group))
    for p, gens, cyc, complement, order in _small_groups(rng):
        ops.append(Op(f"small-order-{order}", partial(_group_op, p, gens, (0, 1, 2)),
                      partial(_check_small, p, gens, cyc, complement, order), _canon_group))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# padic-dichotomy
# ---------------------------------------------------------------------------

DICHOTOMY_NVARS = (1, 2, 3, 4)
DICHOTOMY_CAPS = (4, 6, 8, 10)
DICHOTOMY_PRECS = tuple(range(8, 17))


def _unit_series(rng, p, nvars, prec, cap):
    """1 + linear unit series; returns it with its (constant, linear) coefficients."""
    c0 = rng.randrange(1, p)
    lin = [rng.randrange(0, p * p) for _ in range(nvars)]
    terms = {(0,) * nvars: pa.PadicInt(p, c0, prec)}
    for i, c in enumerate(lin):
        terms[tuple(int(k == i) for k in range(nvars))] = pa.PadicInt(p, c, prec)
    return pw.TruncatedSeries(p, nvars, prec, cap, terms), c0, lin


def _dichotomy_family(rng, p, d, nvars, cap, prec, perturbed):
    """Planted family: f_w = zeta * base and f_wbar = base for each simple
    root; a perturbed family multiplies the last f_w by 1 + c X_var, c a
    unit, so that every ratio is tested."""
    minus_w0 = (1, 0) if d == 2 else (0,)
    entries, plant = [], []
    for i in range(d):
        base, c0, lin = _unit_series(rng, p, nvars, prec, cap)
        zeta_res = 1 + (nvars + cap + i) % (p - 1)
        zeta = pa.teichmuller(zeta_res, p, prec)
        entries.append(pw.DichotomyEntry("w0", i, 0, base.scale(zeta), base))
        plant.append((c0, lin, zeta_res))
    bump = None
    if perturbed:
        i, var = d - 1, cap % nvars
        e = entries[i]
        one = (0,) * nvars
        step = tuple(int(k == var) for k in range(nvars))
        e.f_w = e.f_w * pw.TruncatedSeries(p, nvars, prec, cap, {
            one: pa.PadicInt.one(p, prec), step: pa.PadicInt(p, rng.randrange(1, p), prec)})
        bump = (i, var)
    return pw.DichotomyFamily(p, d, 1, minus_w0, entries), plant, bump


def _dichotomy(family):
    # Looked up at call time, so that a traced run sees the wrapped function.
    return pw.passage_dichotomy(family)


def _check_dichotomy(p, d, nvars, plant, bump, verdict):
    minus_w0 = (1, 0) if d == 2 else (0,)
    if bump is None:
        if not isinstance(verdict, pw.ParallelWeights):
            return ["verdict kind matches the plant"]
        want = {var: [lin[var] * pow(c0, -1, p) % p for c0, lin, _ in plant]
                for var in range(nvars)}
        ok = len(verdict.pairs) == nvars
        for place, var, x_w, x_wbar in verdict.pairs:
            x_w, x_wbar = [int(x) for x in x_w], [int(x) for x in x_wbar]
            ok &= place == "w0" and x_w == want[var]
            ok &= all(x_w[i] == x_wbar[minus_w0[i]] for i in range(d))
        return _errors(("parallel pairs match the planted weights", ok))
    if not isinstance(verdict, pw.SparsityCertificate):
        return ["verdict kind matches the plant"]
    i, var = bump
    zeta_res = plant[i][2]
    want = {z: ("degree", var, 1) if z == zeta_res else ("empty", None, 0) for z in range(1, p)}
    return _errors(
        ("certificate names the perturbed entry",
         (verdict.place, verdict.root_index, verdict.gen_index) == ("w0", i, 0)),
        ("certificate covers all p - 1 roots of unity", verdict.per_zeta == want),
    )


def _canon_dichotomy(verdict):
    if isinstance(verdict, pw.ParallelWeights):
        return "parallel " + repr([(pl, int(v), [int(x) for x in a], [int(x) for x in b])
                                   for pl, v, a, b in verdict.pairs])
    return f"certificate {verdict.place} {verdict.root_index} {verdict.gen_index} " \
        + repr(sorted(verdict.per_zeta.items()))


def padic_dichotomy(seed: int) -> list[Op]:
    """One constant-ratio and one perturbed family for every (nvars, cap) in
    {1..4} x {4, 6, 8, 10}.  p in {5, 7}, the rank d in {1, 2} and prec in
    8..16, the roots of unity and the perturbed variable run through the
    grid in a fixed pattern, because the constancy test's cost depends on
    them; the seed draws the coefficients of the series."""
    rng = random.Random(seed)
    ops = []
    for k, (nvars, cap) in enumerate((nv, c) for nv in DICHOTOMY_NVARS for c in DICHOTOMY_CAPS):
        for perturbed in (False, True):
            p = (5, 7)[(k + perturbed) % 2]
            d = 1 + (k // 2 + perturbed) % 2
            prec = DICHOTOMY_PRECS[(2 * k + perturbed) % len(DICHOTOMY_PRECS)]
            fam, plant, bump = _dichotomy_family(rng, p, d, nvars, cap, prec, perturbed)
            ops.append(Op("perturbed" if perturbed else "constant",
                          partial(_dichotomy, fam),
                          partial(_check_dichotomy, p, d, nvars, plant, bump),
                          _canon_dichotomy))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "selmer-steps": selmer_steps,
    "tame-duality": tame_duality,
    "group-cohomology": group_cohomology,
    "padic-dichotomy": padic_dichotomy,
}

# Seconds one pass over a round took, with the speed kernel between the ops,
# when the benchmark was written (2-core Xeon VM, Python 3.11, numpy 2.4).
# A run makes ceil(seconds / this) passes, so that every run of one seed
# times the same ops and its tail percentile sits at the same rank.
ROUND_SECONDS = {
    "selmer-steps": 1.34,
    "tame-duality": 5.9,
    "group-cohomology": 4.2,
    "padic-dichotomy": 1.2,
}

# The speed kernel (speed.py) that scales each workload's times: the one
# whose times tracked the workload's raw op times best across the host's fast
# and slow spells, over six seeds.  The big eliminations of group-cohomology
# slow less than small numpy calls do, about as interpreter arithmetic does.
SPEED_KERNEL = {
    "selmer-steps": "numpy",
    "tame-duality": "numpy",
    "group-cohomology": "python",
    "padic-dichotomy": "numpy",
}

RANGES = {
    "selmer-steps": "p in {5,7,11,13}; annihilation extra_selmer 0..2 x fresh indices 1..3; "
                    "avoidance d_weights 2..6, selmer_dim min..min+2; payloads 2..4 places "
                    "of dim 1..4, global_dim 0..total, condition dims 0..dim",
    "tame-duality": "p in {5,7,11,13}; random modules n 1..8, twist -2..2, h1 0..1; rich modules "
                    "n 2..8, h1 = 2; local payloads GL2/A2/B2 (n 3/8/10), p in {7,11,13}, one "
                    "Ramakrishna root, twist 0..1; q log-uniform on [2, 1e4], the midpoints of 72 strata",
    "group-cohomology": "adjoint PSL2(F_7) (order 168) x1 and PSL2(F_5) (order 60) x3, H0/H1; "
                        "5 groups of order 5..12, dim 2..3, p in {3,5,7}, H0/H1/H2",
    "padic-dichotomy": "nvars 1..4 x cap {4,6,8,10} x {constant, perturbed}; prec 8..16; "
                       "p in {5,7}; d in {1,2}; f = 1",
}
