import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from galdesk import ffield as ff
from galdesk import local_tame as lt
from galdesk import root_datum as rdm
from galdesk import scenarios as sc
from galdesk import selmer as sl


def mat_pow(a, k: int, p: int) -> np.ndarray:
    """a^k mod p by repeated squaring: an oracle for the closed forms."""
    result = ff.eye(len(a))
    base = ff.normalize(a, p)
    while k:
        if k & 1:
            result = (result @ base) % p
        base = (base @ base) % p
        k >>= 1
    return result


# ---------------------------------------------------------------------------
# Independent oracle: derive the cocycle constraint by walking the two sides
# of the relation sigma.tau = tau^q.sigma letter by letter, never touching
# the module's relator matrix.
# ---------------------------------------------------------------------------

def walk_cocycle_rows(m: lt.TameGaloisModule):
    """Constraint matrix on (a; b) from c(sigma tau) = c(tau^q sigma)."""
    p, n = m.p, m.dim
    # c(sigma tau) = a + Phi b: coefficient matrices on (a, b).
    left_a, left_b = ff.eye(n), m.phi_eff.copy()
    # c(tau^q) accumulated one letter at a time: c(tau^{i+1}) = b + Tau c(tau^i).
    acc = ff.zeros((n, n))  # coefficient of b in c(tau^i)
    for _ in range(m.q):
        acc = (ff.eye(n) + m.tau @ acc) % p
    # c(tau^q sigma) = c(tau^q) + Tau^q a.
    right_a = mat_pow(m.tau, m.q, p)
    right_b = acc
    return np.hstack([(left_a - right_a) % p, (left_b - right_b) % p])


def oracle_dims(m: lt.TameGaloisModule):
    p, n = m.p, m.dim
    rows = walk_cocycle_rows(m)
    z1 = ff.nullspace(rows, p)
    b1 = np.vstack([(m.phi_eff - ff.eye(n)) % p, (m.tau - ff.eye(n)) % p])
    h1 = z1.shape[1] - ff.rank(b1, p)
    fixed = ff.nullspace(np.vstack([(m.phi_eff - ff.eye(n)) % p,
                                    (m.tau - ff.eye(n)) % p]), p)
    h0 = fixed.shape[1]
    # Duality route to h2, independent of the cokernel computation.
    md = m.dual_twist()
    fixed_d = ff.nullspace(np.vstack([(md.phi_eff - ff.eye(n)) % p,
                                      (md.tau - ff.eye(n)) % p]), p)
    return h0, h1, fixed_d.shape[1]


def random_tame_module(rng: random.Random, allow_tau=True) -> lt.TameGaloisModule:
    p = rng.choice([5, 7, 11, 13])
    n = rng.randrange(1, 9)
    q = rng.randrange(2, 80)
    while q % p == 0:
        q = rng.randrange(2, 80)
    twist = rng.randrange(-2, 3)
    if not allow_tau or n == 1 or rng.random() < 0.6:
        phi = ff.random_invertible(rng, n, p)[0]
        m = lt.TameGaloisModule(p, phi, q, twist=twist)
    else:
        # Unipotent Tau: Jordan blocks of size <= min(n, p) so Tau^p = 1,
        # with Phi built to conjugate Tau to Tau^q.
        sizes = []
        left = n
        while left:
            s = rng.randrange(1, min(left, p) + 1)
            sizes.append(s)
            left -= s
        tau = ff.zeros((n, n))
        pos = 0
        for s in sizes:
            blk = np.eye(s, dtype=np.int64) + np.eye(s, k=1, dtype=np.int64)
            tau[pos : pos + s, pos : pos + s] = blk
            pos += s
        tau_q = mat_pow(tau, q % p, p)
        phi = conjugator(tau, tau_q, p, rng)
        g, gi = ff.random_invertible(rng, n, p)
        m = lt.TameGaloisModule(
            p, ff.mat_mul(ff.mat_mul(g, phi, p), gi, p), q,
            ff.mat_mul(ff.mat_mul(g, tau, p), gi, p), twist=twist
        )
    return m


def conjugator(t1, t2, p, rng):
    """Invertible P with P t1 P^-1 = t2, found from the linear system."""
    n = len(t1)
    # P t1 = t2 P as a linear condition on P.
    rows = np.kron(t1.T, ff.eye(n)) - np.kron(ff.eye(n), t2)
    sols = ff.nullspace(rows % p, p)
    for _ in range(200):
        coeffs = np.array([rng.randrange(p) for _ in range(sols.shape[1])])
        cand = ((sols @ coeffs) % p).reshape(n, n).T
        cand = cand.T  # kron convention: columns stack
        cand = ((sols @ coeffs) % p).reshape(n, n, order="F")
        if ff.rank(cand, p) == n:
            return cand
    raise AssertionError("no invertible conjugator found")


def gl2_f5_adjoint() -> lt.AdjointModule:
    rd = rdm.gl_datum(2)
    t = rdm.TorusElement(rd, 5, (2,))
    return lt.AdjointModule(rd, t, 3)


# ---------------------------------------------------------------------------
# Module construction and invariants
# ---------------------------------------------------------------------------

def test_trivial_module_dims():
    m = lt.TameGaloisModule(5, np.array([[1]]), 3)
    assert lt.cohomology_dims(m) == (1, 1, 0)


def test_k1_dims():
    m = lt.TameGaloisModule(5, np.array([[3]]), 3)  # k(1): Phi = qbar
    assert lt.cohomology_dims(m) == (0, 1, 1)


def test_gl2_f5_adjoint_dims():
    a = gl2_f5_adjoint()
    m = a.module
    # Arithmetic eigenvalues 3, 1, 2 on (g_alpha, t0, g_{-alpha}).
    diag = sorted(int(m.phi_eff[i, i]) for i in range(3))
    assert diag == [1, 2, 3]
    assert lt.cohomology_dims(m) == (1, 2, 1)


def test_twist_composition():
    rng = random.Random(7)
    for _ in range(20):
        m = random_tame_module(rng)
        e, f = rng.randrange(-2, 3), rng.randrange(-2, 3)
        a = m.twisted(e).twisted(f)
        b = m.twisted(e + f)
        assert np.array_equal(a.phi_eff, b.phi_eff)


def test_twist_by_zero_is_the_module_itself():
    # So a `local` payload with twist 0 builds H^1 of one module, not of two equal ones.
    m = random_tame_module(random.Random(2))
    assert m.twisted(0) is m and m.twisted(1).twisted(0).twist == m.twist + 1


def test_invalid_modules_rejected():
    for p in (2, 9):
        with pytest.raises(lt.TameModuleError, match="must be an odd prime"):
            lt.TameGaloisModule(p, np.array([[1]]), 3)
    with pytest.raises(lt.TameModuleError, match="Phi must be square"):
        lt.TameGaloisModule(5, np.ones((2, 3)), 3)
    with pytest.raises(lt.TameModuleError, match="Phi must be invertible"):
        lt.TameGaloisModule(5, np.array([[0]]), 3)
    with pytest.raises(lt.TameModuleError, match="q must be prime to p"):
        lt.TameGaloisModule(5, np.array([[1]]), 10)
    with pytest.raises(lt.TameModuleError, match="Tau must have the shape of Phi"):
        lt.TameGaloisModule(5, ff.eye(2), 3, np.array([[1]]))
    with pytest.raises(lt.TameModuleError, match="Tau must have order dividing p"):
        lt.TameGaloisModule(5, ff.eye(2), 3, np.array([[0, 1], [1, 0]]))
    with pytest.raises(lt.TameModuleError, match="Phi Tau Phi\\^-1 != Tau\\^q"):
        # Tau unipotent, q = 2, Phi = 1.
        lt.TameGaloisModule(5, ff.eye(2), 2, np.array([[1, 1], [0, 1]]))


def test_euler_and_duality_random_500():
    rng = random.Random(20260810)
    for _ in range(500):
        m = random_tame_module(rng)
        h0, h1, h2 = lt.cohomology_dims(m)
        assert h1 == h0 + h2
        o0, o1, o2 = oracle_dims(m)
        assert (h0, h1) == (o0, o1)
        assert h2 == o2  # h2(M) = h0(M^vee(1))


# ---------------------------------------------------------------------------
# Unramified and Ramakrishna subspaces
# ---------------------------------------------------------------------------

def test_unramified_dims():
    m = lt.TameGaloisModule(5, np.array([[1]]), 3)
    assert lt.unramified_subspace(m).dim == 1
    k1 = lt.TameGaloisModule(5, np.array([[3]]), 3)
    assert lt.unramified_subspace(k1).dim == 0
    a = gl2_f5_adjoint()
    assert lt.unramified_subspace(a.module).dim == 1


def test_unramified_equals_h0_random():
    rng = random.Random(5)
    for _ in range(100):
        m = random_tame_module(rng, allow_tau=False)
        assert lt.unramified_subspace(m).dim == lt.cohomology_dims(m)[0]


def test_is_ramakrishna_type():
    a = gl2_f5_adjoint()
    ok, alpha = lt.is_ramakrishna_type(a)
    assert ok and alpha == (1,)
    rd = rdm.gl_datum(2)
    both = lt.AdjointModule(rd, rdm.TorusElement(rd, 5, (4,)), 4)
    ok, alpha = lt.is_ramakrishna_type(both)
    assert not ok and alpha is None
    a2 = rdm.build_root_datum([("A", 2)])
    none = lt.AdjointModule(a2, rdm.TorusElement(a2, 7, (2, 2)), 3)
    ok, alpha = lt.is_ramakrishna_type(none)
    assert not ok


def test_ramakrishna_h0_twist_equivalence_exhaustive():
    """Ramakrishna type iff h0 of the (1)-twist is one-dimensional."""
    cases = []
    for p in (5, 7):
        gl2 = rdm.gl_datum(2)
        sl2 = rdm.build_root_datum([("A", 1)])
        a2 = rdm.build_root_datum([("A", 2)])
        for v in range(2, p):  # regular semisimple: alpha(t) != 1
            cases += [(gl2, p, (v,)), (sl2, p, (v,))]
        for v1 in range(1, p):
            for v2 in range(1, p):
                t = rdm.TorusElement(a2, p, (v1, v2))
                if rdm.is_regular_semisimple(t):
                    cases.append((a2, p, (v1, v2)))
    checked = 0
    for rd, p, values in cases:
        t = rdm.TorusElement(rd, p, values)
        for q in range(2, p):
            if q % p in (0, 1):
                continue
            a = lt.AdjointModule(rd, t, q)
            ok, _ = lt.is_ramakrishna_type(a)
            h0_twist = lt.cohomology_dims(a.module.twisted(1))[0]
            assert ok == (h0_twist == 1)
            checked += 1
    assert checked > 100


def test_ramakrishna_subspace_gl2():
    a = gl2_f5_adjoint()
    _, alpha = lt.is_ramakrishna_type(a)
    sub = lt.ramakrishna_subspace(a, alpha)
    assert sub.dim == 1 == lt.cohomology_dims(a.module)[0]
    # Spanned by the g_alpha-ramified class: representative has b supported
    # on g_alpha and zero l_alpha component.
    rep = sub.space.cocycle_from_coords(sub.basis[:, 0])
    n = a.module.dim
    b_part = rep[n:]
    assert b_part[a.root_index(alpha)] % 5 != 0
    assert lt.l_alpha_component(a, rep[:n], alpha) == 0
    assert lt.l_alpha_component(a, b_part, alpha) == 0


def test_ramakrishna_subspace_a2():
    a2 = rdm.build_root_datum([("A", 2)])
    # alpha1(t) = 3 = 5^{-1} mod 7 with q = 5; generic second value.
    t = rdm.TorusElement(a2, 7, (3, 2))
    a = lt.AdjointModule(a2, t, 5)
    ok, alpha = lt.is_ramakrishna_type(a)
    assert ok and alpha == (1, 0)
    sub = lt.ramakrishna_subspace(a, alpha)
    assert sub.dim == 2 == a2.rank_ss
    assert sub.dim == lt.cohomology_dims(a.module)[0]
    for j in range(sub.dim):
        rep = sub.space.cocycle_from_coords(sub.basis[:, j])
        n = a.module.dim
        assert lt.l_alpha_component(a, rep[:n], alpha) == 0
        assert lt.l_alpha_component(a, rep[n:], alpha) == 0


def test_ramakrishna_dim_equals_h0_random():
    """dim L^Ram = h0(adjoint) on every random instance of Ramakrishna type."""
    rng = random.Random(77)
    data = [rdm.gl_datum(2), rdm.build_root_datum([("A", 1)]),
            rdm.build_root_datum([("A", 2)])]
    found = 0
    for _ in range(200):
        rd = rng.choice(data)
        p = rng.choice([5, 7, 11])
        values = tuple(rng.randrange(1, p) for _ in range(rd.rank_ss))
        try:
            t = rdm.TorusElement(rd, p, values)
        except rdm.RootDatumError:
            continue
        if not rdm.is_regular_semisimple(t):
            continue
        q = rng.randrange(2, p)
        if q % p in (0, 1):
            continue
        a = lt.AdjointModule(rd, t, q)
        ok, alpha = lt.is_ramakrishna_type(a)
        if not ok:
            continue
        found += 1
        sub = lt.ramakrishna_subspace(a, alpha)
        assert sub.dim == lt.cohomology_dims(a.module)[0]
        # Component-vanishing checks on every representative, both sides.
        n = a.module.dim
        for j in range(sub.dim):
            rep = sub.space.cocycle_from_coords(sub.basis[:, j])
            assert lt.l_alpha_component(a, rep[:n], alpha) == 0
            assert lt.l_alpha_component(a, rep[n:], alpha) == 0
        ann = lt.annihilator_subspace(a.module, sub)
        neg = tuple(-c for c in alpha)
        for j in range(ann.dim):
            rep = ann.space.cocycle_from_coords(ann.basis[:, j])
            assert lt.dual_root_component(a, rep[:n], neg) == 0
            assert lt.dual_root_component(a, rep[n:], neg) == 0
    assert found > 30


def test_ramakrishna_wrong_root_rejected():
    a = gl2_f5_adjoint()
    with pytest.raises(lt.TameModuleError):
        lt.ramakrishna_subspace(a, (-1,))
    with pytest.raises(lt.TameModuleError):
        # Torus element must belong to the same datum object.
        lt.AdjointModule(rdm.gl_datum(2), rdm.TorusElement(rdm.gl_datum(2), 5, (2,)), 3)


# ---------------------------------------------------------------------------
# Duality pairing
# ---------------------------------------------------------------------------

def test_pairing_perfect_gl2():
    a = gl2_f5_adjoint()
    g, h1, h1d = lt.pairing_gram(a.module)
    assert h1.dim == h1d.dim == 2
    assert ff.rank(g, 5) == 2


def test_annihilator_gl2_unramified():
    a = gl2_f5_adjoint()
    m = a.module
    unr = lt.unramified_subspace(m)
    ann = lt.annihilator_subspace(m, unr)
    assert unr.dim + ann.dim == lt.cohomology_dims(m.dual_twist())[1]
    dual_unr = lt.unramified_subspace(m.dual_twist())
    assert ff.span_contains(ann.basis, dual_unr.basis, 5)
    assert ff.span_contains(dual_unr.basis, ann.basis, 5)


def test_annihilator_extremes():
    m = gl2_f5_adjoint().module
    h1 = lt.h1_space(m)
    zero = lt.LocalConditionSubspace(h1, ff.zeros((h1.dim, 0)), "zero")
    full = lt.LocalConditionSubspace(h1, ff.eye(h1.dim), "full")
    assert lt.annihilator_subspace(m, zero).dim == lt.cohomology_dims(m.dual_twist())[1]
    assert lt.annihilator_subspace(m, full).dim == 0


def cohomology_rich_module(rng: random.Random) -> lt.TameGaloisModule:
    """Diagonalizable Phi with eigenvalues planted at 1 and qbar."""
    p = rng.choice([5, 7, 11, 13])
    n = rng.randrange(2, 9)
    q = rng.randrange(2, 60)
    while q % p in (0, 1):
        q = rng.randrange(2, 60)
    eigs = [1, q % p] + [rng.randrange(1, p) for _ in range(n - 2)]
    g, gi = ff.random_invertible(rng, n, p)
    phi = ff.mat_mul(ff.mat_mul(g, np.diag(eigs), p), gi, p)
    return lt.TameGaloisModule(p, phi, q)


def test_pairing_random_modules():
    rng = random.Random(99)
    count = 0
    for i in range(80):
        m = cohomology_rich_module(rng) if i % 2 else random_tame_module(rng)
        g, h1, h1d = lt.pairing_gram(m)
        assert h1.dim == h1d.dim
        if h1.dim:
            assert ff.rank(g, m.p) == h1.dim
            count += 1
        # dim L + dim ann(L) = h1(twist) for a random condition subspace.
        k = rng.randrange(0, h1.dim + 1)
        sub = lt.LocalConditionSubspace(h1, ff.random_subspace(rng, h1.dim, k, m.p), "c")
        ann = lt.annihilator_subspace(m, sub)
        assert sub.dim + ann.dim == h1d.dim
    assert count > 40


def test_pairing_well_defined_on_classes():
    """Shifting either argument by a coboundary leaves the pairing unchanged."""
    rng = random.Random(2024)
    for _ in range(40):
        m = cohomology_rich_module(rng) if rng.random() < 0.5 else random_tame_module(rng)
        p, n = m.p, m.dim
        md = m.dual_twist()
        pair = lt.tate_pairing(m)
        z1 = ff.nullspace(m.relator_matrix, p)
        z1d = ff.nullspace(md.relator_matrix, p)
        if z1.shape[1] == 0 or z1d.shape[1] == 0:
            continue
        x = (z1 @ np.array([rng.randrange(p) for _ in range(z1.shape[1])])) % p
        y = (z1d @ np.array([rng.randrange(p) for _ in range(z1d.shape[1])])) % p
        base = pair(x, y)
        mvec = np.array([rng.randrange(p) for _ in range(n)])
        x_shift = (x + m.coboundary_matrix @ mvec) % p
        assert pair(x_shift, y) == base
        mvec_d = np.array([rng.randrange(p) for _ in range(n)])
        y_shift = (y + md.coboundary_matrix @ mvec_d) % p
        assert pair(x, y_shift) == base


# ---------------------------------------------------------------------------
# The pairing matrix against the cup-product loop
# ---------------------------------------------------------------------------

PAIRING_PRIMES = (3, 5, 7, 11, 13)


def reference_pairing(m: lt.TameGaloisModule, x, y) -> int:
    """V(x, y) by the cup-product loop in pure Python: q steps, no folding.

    V = <a, Phi' b'> - <N_q b, T'^q a'> - sum_{i=1}^{q-1} <N_i b, T'^i b'>.
    """
    p, n, q = m.p, m.dim, m.q
    md = m.dual_twist()
    tau, tau_d, phi_d = m.tau.tolist(), md.tau.tolist(), md.phi_eff.tolist()

    def apply(mat, v):
        return [sum(mat[i][k] * v[k] for k in range(n)) % p for i in range(n)]

    def dot(u, v):
        return sum(s * t for s, t in zip(u, v))

    x = [int(c) % p for c in x]
    y = [int(c) % p for c in y]
    a, b, ap, bp = x[:n], x[n:], y[:n], y[n:]
    total = dot(a, apply(phi_d, bp))
    ni_b = [0] * n  # N_i b
    ti_b = b  # T^i b
    tdi_bp = bp  # T'^i b'
    for _ in range(1, q):
        ni_b = [(s + t) % p for s, t in zip(ni_b, ti_b)]
        ti_b = apply(tau, ti_b)
        tdi_bp = apply(tau_d, tdi_bp)
        total -= dot(ni_b, tdi_bp)
    nq_b = [(s + t) % p for s, t in zip(ni_b, ti_b)]
    tq_ap = ap
    for _ in range(q):
        tq_ap = apply(tau_d, tq_ap)
    total -= dot(nq_b, tq_ap)
    return total % p


def module_with(p, n, q, twist, block, seed) -> lt.TameGaloisModule:
    """Tau a unipotent Jordan block of size `block` <= min(n, p) plus an
    identity block (Tau = 1 when block = 1), Phi random with Phi Tau Phi^-1 =
    Tau^q, both conjugated by a random change of basis."""
    rng = random.Random(seed)
    if block == 1:
        return lt.TameGaloisModule(p, ff.random_invertible(rng, n, p)[0], q, twist=twist)
    tau = ff.eye(n)
    tau[: block - 1, 1:block] += np.eye(block - 1, dtype=np.int64)
    phi = conjugator(tau, mat_pow(tau, q % p, p), p, rng)
    g, gi = ff.random_invertible(rng, n, p)
    return lt.TameGaloisModule(p, ff.mat_mul(ff.mat_mul(g, phi, p), gi, p), q,
                               ff.mat_mul(ff.mat_mul(g, tau, p), gi, p), twist=twist)


def q_values(p):
    """q below p (no residue class repeats), q = 1 mod p, and q up to 4 p^2."""
    return (st.integers(2, p - 1)
            | st.integers(1, 4 * p).map(lambda k: 1 + k * p)
            | st.integers(2, 4 * p * p).filter(lambda q: q % p))


@st.composite
def pairing_cases(draw):
    p = draw(st.sampled_from(PAIRING_PRIMES))
    n = draw(st.integers(1, 5))
    m = module_with(p, n, draw(q_values(p)), draw(st.integers(-2, 2)),
                    draw(st.integers(1, min(n, p))), draw(st.integers(0, 2**32 - 1)))
    vector = st.lists(st.integers(0, p - 1), min_size=2 * n, max_size=2 * n)
    return m, draw(vector), draw(vector)


@given(pairing_cases())
@settings(max_examples=200, deadline=None)
def test_pairing_matrix_matches_cup_product_loop(case):
    """x^T G y equals the loop on arbitrary vectors, not only cocycles, so
    every block of G is pinned."""
    m, x, y = case
    g = m.pairing_matrix
    assert g.shape == (2 * m.dim, 2 * m.dim)
    assert g.min() >= 0 and g.max() < m.p
    expected = reference_pairing(m, x, y)
    assert int(np.array(x) @ g @ np.array(y)) % m.p == expected
    assert lt.tate_pairing(m)(x, y) == expected


@given(st.sampled_from(PAIRING_PRIMES), st.integers(1, 5), st.integers(-2, 2),
       st.integers(0, 2**32 - 1), st.integers(1, 5 * 10**4), st.data())
@settings(max_examples=60, deadline=None)
def test_pairing_matrix_has_period_p_squared_in_q(p, n, twist, seed, k, data):
    """G(q) = G(q + p^2 k): q up to about 10^6 against a q the loop can afford."""
    q = data.draw(q_values(p))
    small = module_with(p, n, q, twist, data.draw(st.integers(1, min(n, p))), seed)
    large = lt.TameGaloisModule(p, small.phi, q + p * p * k, small.tau, twist)
    assert np.array_equal(large.pairing_matrix, small.pairing_matrix)
    x = [data.draw(st.integers(0, p - 1)) for _ in range(2 * n)]
    y = [data.draw(st.integers(0, p - 1)) for _ in range(2 * n)]
    assert lt.tate_pairing(large)(x, y) == reference_pairing(small, x, y)


@pytest.mark.parametrize("p", [3, 5])
def test_pairing_matrix_entries_full_jordan_block(p):
    """Every entry of G against the loop when Tau is one Jordan block of size
    p, the case where sum_c T'^c != 0 and no block of G collapses to a scalar."""
    for q in (2, p + 1, 2 * p + 2, 3 * p + 1, 4 * p * p - 1):
        for twist, seed in ((0, q), (1, q + 1)):
            m = module_with(p, p, q, twist, p, seed)
            basis = ff.eye(2 * p)
            ref = [[reference_pairing(m, basis[i], basis[j]) for j in range(2 * p)]
                   for i in range(2 * p)]
            assert np.array_equal(m.pairing_matrix, np.array(ref))


def test_tate_pairing_matches_reference_pairing():
    m = gl2_f5_adjoint().module
    pair = lt.tate_pairing(m)
    x = [1, 2, 3, 4, 0, 1]
    assert pair(x, x) == reference_pairing(m, x, x)


def test_dual_and_h1_computed_once_per_module():
    m = gl2_f5_adjoint().module
    assert m.dual_twist() is m.dual_twist()
    assert lt.h1_space(m) is lt.h1_space(m)
    g, h1, h1d = lt.pairing_gram(m)
    assert h1 is lt.h1_space(m) and h1d is lt.h1_space(m.dual_twist())


def rank_formula_dims(m: lt.TameGaloisModule):
    """(h0, h1, h2) by their own eliminations: h0 from the nullspace of
    [Phi - 1; T - 1] and h2 from the rank of the relator matrix."""
    p, n = m.p, m.dim
    stacked = np.vstack([(m.phi_eff - ff.eye(n)) % p, (m.tau - ff.eye(n)) % p])
    return (ff.nullspace(stacked, p).shape[1], lt.h1_space(m).dim,
            n - ff.rank(m.relator_matrix, p))


@given(st.sampled_from(PAIRING_PRIMES), st.integers(1, 6), st.integers(-2, 2),
       st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=150, deadline=None)
def test_cohomology_dims_match_rank_formulas(p, n, twist, seed, data):
    m = module_with(p, n, data.draw(q_values(p)), twist,
                    data.draw(st.integers(1, min(n, p))), seed)
    assert lt.cohomology_dims(m) == rank_formula_dims(m)


def test_cohomology_dims_eliminates_nothing_beyond_h1(monkeypatch):
    m = gl2_f5_adjoint().module
    lt.h1_space(m)
    monkeypatch.setattr(ff, "_reduce", lambda *args: pytest.fail("eliminated again"))
    assert lt.cohomology_dims(m) == (1, 2, 1)


def count_eliminations(monkeypatch) -> list:
    """Record the input of every elimination from here on."""
    reduce = ff._reduce
    calls = []
    monkeypatch.setattr(ff, "_reduce", lambda a, p: calls.append(a) or reduce(a, p))
    return calls


def test_dual_twist_makes_no_elimination(monkeypatch):
    """The dual's Phi^-1 and Tau are closed forms in Phi and the powers of
    N = T - 1, and a twist inherits Phi^-1.  Oracle: the inverses by elimination, and
    qbar^twist by Fermat, for twists past one period of qbar of both signs."""
    rng = random.Random(77)
    calls = count_eliminations(monkeypatch)
    for _ in range(40):
        m = random_tame_module(rng)
        p = m.p
        far = [m.twisted(t - m.twist) for t in (p - 1, 1 - p, 2 * p + 1, -2 * p - 1)]
        for mod in (m, *far):
            calls.clear()
            md = mod.dual_twist()
            mt = mod.twisted(rng.randrange(-2, 3))
            assert len(calls) == 0
            assert np.array_equal(mod.phi_eff, pow(m.q % p, mod.twist % (p - 1), p) * m.phi % p)
            assert np.array_equal(md.phi, m.q * ff.inv(mod.phi_eff.T, p) % p)
            assert np.array_equal(md.tau, ff.inv(mod.tau.T, p))
            assert np.array_equal(md.phi_inv, ff.inv(md.phi, p))
            assert np.array_equal(mt.phi_inv, ff.inv(mt.phi, p))


def test_h1_makes_two_eliminations(monkeypatch):
    """The nullspace of the relator, n x 2n, and the quotient's reduction in
    the free coordinates of Z^1, dim Z^1 x (n + dim Z^1)."""
    rng = random.Random(78)
    calls = count_eliminations(monkeypatch)
    for _ in range(40):
        m = random_tame_module(rng)
        calls.clear()
        lt.h1_space(m)
        shapes = [np.shape(a) for a in calls]
        n, z1_dim = m.dim, 2 * m.dim - ff.rank(m.relator_matrix, m.p)
        assert shapes == [(n, 2 * n), (z1_dim, n + z1_dim)]


@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=200, deadline=None)
def test_coboundaries_are_cocycles(seed, allow_tau):
    """d1 d0 = 0 mod p, so B^1 lies in Z^1 as kernel_quotient requires."""
    m = random_tame_module(random.Random(seed), allow_tau)
    assert not (m.relator_matrix @ m.coboundary_matrix % m.p).any()


def test_wrong_supplied_phi_inverse_rejected():
    rng = random.Random(79)
    for _ in range(20):
        m = random_tame_module(rng)
        p, n = m.p, m.dim
        args = (p, m.phi, m.q, m.tau, m.twist)
        same = lt.TameGaloisModule._with_inverse(m.phi_inv, *args)
        assert np.array_equal(same.relator_matrix, m.relator_matrix)
        wrong = m.phi_inv.copy()
        wrong[rng.randrange(n), rng.randrange(n)] += rng.randrange(1, p)
        for bad in (wrong % p, ff.zeros((n, n)), ff.eye(n) if n > 1 else 2 * m.phi_inv % p):
            if np.array_equal(bad, m.phi_inv):
                continue
            with pytest.raises(lt.TameModuleError, match="does not invert"):
                lt.TameGaloisModule._with_inverse(bad, *args)


# Loop versions of the relator and the pairing matrix, with T^p = 1 folding
# large q: oracles for the closed forms.

def loop_tau_power_sum(m: lt.TameGaloisModule, k: int) -> np.ndarray:
    """N_k = 1 + T + ... + T^{k-1}, using T^p = 1 to fold large k."""
    p = m.p
    whole, rem = divmod(k, p)
    n_p = ff.zeros((m.dim, m.dim))
    t_i = ff.eye(m.dim)
    acc = ff.zeros((m.dim, m.dim))
    for i in range(p):
        if i < rem:
            acc = (acc + t_i) % p
        n_p = (n_p + t_i) % p
        t_i = ff.mat_mul(t_i, m.tau, p)
    return (whole % p * n_p + acc) % p


def loop_relator_matrix(m: lt.TameGaloisModule) -> np.ndarray:
    p = m.p
    tq = mat_pow(m.tau, m.q % p, p)
    sq = loop_tau_power_sum(m, m.q)
    return np.hstack([(ff.eye(m.dim) - tq) % p, (m.phi_eff - sq) % p])


def loop_pairing_matrix(m: lt.TameGaloisModule) -> np.ndarray:
    p, n, q = m.p, m.dim, m.q
    md = m.dual_twist()
    left, right = ff.zeros((n, n)), ff.zeros((n, n))
    td_c = ff.eye(n)
    for c in range(1, p + 1):
        td_c = (td_c @ md.tau) % p
        k = (q - c) // p + 1
        left = (left - k % p * td_c) % p
        right = (right - k * (q - c) % p * td_c) % p
    return np.block([[ff.zeros((n, n)), md.phi_eff], [left, right]])


def test_twist_shares_powers_and_dual_equals_a_fresh_module():
    """A twist shares its parent's powers of N, T^q and S_q, read-only, and
    the dual, whose powers come in closed form, equals a module built afresh
    from its Phi and T, down to those caches."""
    rng = random.Random(80)
    for _ in range(40):
        m = random_tame_module(rng)
        mt, md = m.twisted(rng.choice([-2, -1, 1, 2])), m.dual_twist()
        assert mt._nil_powers is m._nil_powers and mt._tau_sums is m._tau_sums
        for mod in (m, mt, md, md.twisted(1), md.dual_twist()):
            fresh = lt.TameGaloisModule(mod.p, mod.phi, mod.q, mod.tau, mod.twist)
            for name in ("phi", "tau", "phi_inv", "_nil_powers", "_tau_sums", "relator_matrix",
                         "pairing_matrix"):
                assert getattr(mod, name).tobytes() == getattr(fresh, name).tobytes(), name
            assert not mod._nil_powers.flags.writeable
            with pytest.raises(ValueError):
                mod._nil_powers[0, 0, 0] = 1


def jordan_module(rng: random.Random, p: int, blocks, q: int, twist: int) -> lt.TameGaloisModule:
    """T = 1 + N with Jordan blocks of the given sizes, Phi with Phi T Phi^-1 =
    T^q built without elimination, both conjugated by a random change of basis.
    On a block, Phi maps N^k e_b to N_q^k e_b for N_q = T^q - 1, so Phi N =
    N_q Phi; a unit c (1 + a N) of T's centraliser varies it."""
    n = sum(blocks)
    tau, phi, pos = ff.eye(n), ff.zeros((n, n)), 0
    for b in blocks:
        nil = np.eye(b, k=1, dtype=np.int64)
        nil_q = (mat_pow(ff.eye(b) + nil, q % p, p) - ff.eye(b)) % p  # T^p = 1
        col = ff.eye(b)[:, -1]
        for k in range(b):
            phi[pos : pos + b, pos + b - 1 - k] = col
            col = nil_q @ col % p
        unit = rng.randrange(1, p) * (ff.eye(b) + rng.randrange(p) * nil)
        phi[pos : pos + b, pos : pos + b] = phi[pos : pos + b, pos : pos + b] @ unit % p
        tau[pos : pos + b, pos : pos + b] += nil
        pos += b
    g, gi = ff.random_invertible(rng, n, p)
    return lt.TameGaloisModule(p, g @ phi % p @ gi % p, q, g @ tau % p @ gi % p, twist)


def test_closed_forms_match_products_and_loops():
    """T^0..T^p by repeated products against sum_j C(i, j) N^j over the
    powers a module keeps, T^q against T^(q mod p) of the products, and the
    relator and pairing against their loops: 1000 modules with T != 1, with
    a Jordan block of each size 2..p at p <= 17 beside blocks of size 1 or
    2, each with its dual and a twist; q up to 2^70."""
    rng = random.Random(36)
    ramified = 0
    for p in (3, 5, 7, 11, 13, 17):
        for block in range(2, p + 1):
            for _ in range(20):
                extra = rng.choice([[], [1], [1, 1], [min(2, p)]])
                q = rng.choice([rng.randrange(2, 4 * p * p), rng.randrange(2**70)])
                q += q % p == 0
                m = jordan_module(rng, p, [block] + extra, q, rng.randrange(-2, 3))
                ramified += m.tau.tobytes() != ff.eye(m.dim).tobytes()
                for mod in (m, m.dual_twist(), m.twisted(rng.choice([-1, 1, 2]))):
                    expected = [ff.eye(mod.dim)]
                    for _ in range(p):
                        expected.append(expected[-1] @ mod.tau % p)
                    powers = mod._nil_powers
                    binomials = [[math.comb(i, j) % p for j in range(len(powers))]
                                 for i in range(p + 1)]
                    closed = np.tensordot(binomials, powers, 1) % p
                    assert closed.tobytes() == np.array(expected).tobytes()
                    assert np.array_equal(expected[p], ff.eye(mod.dim))
                    assert np.array_equal(mod._tau_sums[0], expected[q % p])
                    assert np.array_equal(mod.relator_matrix, loop_relator_matrix(mod))
                    assert np.array_equal(mod.pairing_matrix, loop_pairing_matrix(mod))
    assert ramified >= 1000


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17])
def test_doubling_table_matches_sequential_products(p):
    """T^0..T^p read as sum_j C(i, j) N^j through the module's own _nil_sums,
    against T^(i+1) = T^i T, one product at a time, for a unipotent T of every
    Jordan block size up to p (T = 1 at size 1), and for its dual, whose
    powers of N' come in closed form too."""
    for block in range(1, p + 1):
        m = module_with(p, p, p + 2, 0, block, block)
        for mod in (m, m.dual_twist()):
            expected = [ff.eye(p)]
            for _ in range(p):
                expected.append(expected[-1] @ mod.tau % p)
            js = range(len(mod._nil_powers))
            powers = mod._nil_sums(*[[math.comb(i, j) for j in js] for i in range(p + 1)])
            assert powers.tobytes() == np.array(expected).tobytes()


def small_image_module(rng: random.Random) -> lt.TameGaloisModule:
    """Phi = g D g^-1 and T = g exp(N) g^-1, D diagonal and N strictly upper
    triangular with D N D^-1 = q N, so D exp(N) D^-1 = exp(q N) = exp(N)^q
    (exp(N) = 1 + N when N^2 = 0).  T generates a normal subgroup of order 1
    or p, so <Phi_eff, T> has order dividing p (p - 1)."""
    p = rng.choice([3, 5, 7, 11, 13])
    q = rng.choice([q for q in range(2, 60) if q % p])
    n = rng.randrange(2, min(4, p) + 1)
    d = [rng.randrange(1, p)]
    for _ in range(n - 1):  # mostly d_i = q d_(i+1), which lets N_(i, i+1) be nonzero
        d.append(d[-1] * pow(q, -1, p) % p if rng.random() < 0.7 else rng.randrange(1, p))
    nil = ff.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if d[i] == q * d[j] % p:
                nil[i, j] = rng.randrange(1, p)
    tau, term = ff.eye(n), ff.eye(n)
    for k in range(1, n):  # N^k / k! for k < n <= p
        term = term @ nil % p * pow(k, -1, p) % p
        tau = (tau + term) % p
    g, gi = ff.random_invertible(rng, n, p)
    return lt.TameGaloisModule(p, g @ np.diag(d) % p @ gi % p, q, g @ tau % p @ gi % p)


def inflation_h1(m: lt.TameGaloisModule) -> int:
    """h1 of the image G = <Phi_eff, T> by selmer's finite-group cohomology,
    checked against tame H^1: inflation H^1(G, M) -> H^1 of the tame group is
    injective (Brown, Cohomology of Groups, VII.6), so each finite cocycle read
    at the two generators is a tame cocycle and its classes stay independent;
    and both H^0 are the fixed space of Phi_eff and T."""
    p, n = m.p, m.dim
    g = sl.FiniteGroupAction(p, [m.phi_eff, m.tau])
    h1, values = sl.finite_cohomology(g, 1)
    f = np.concatenate([values[y * n : (y + 1) * n] for y in g.step[0]])  # (f(Phi); f(T))
    assert not (m.relator_matrix @ f % p).any()
    d0 = m.coboundary_matrix
    assert ff.rank(np.concatenate([d0, f], axis=1), p) == ff.rank(d0, p) + h1
    assert sl.finite_cohomology(g, 0)[0] == lt.cohomology_dims(m)[0]
    return h1


def test_tame_h1_contains_the_inflated_h1_of_the_image():
    """Tame H^1 against finite-group H^1, two codes that share no cocycle
    system, on 150 modules with small images, each at twists -2..2 and the
    dual twist of each; at least a third of them have h1(G) > 0 somewhere."""
    inflated = 0
    for seed in range(150):
        m = small_image_module(random.Random(seed))
        twists = [m.twisted(e) for e in range(-2, 3)]
        inflated += max(inflation_h1(mod) for t in twists for mod in (t, t.dual_twist())) > 0
    assert inflated >= 50


@pytest.mark.parametrize("p", [3, 5])
def test_pairing_matrix_large_q_full_jordan_block(p):
    """k (q - c) passes 2^63 at these q.  A wrapped weight is off by the same
    amount for every c, which only shows where sum_c T'^c != 0: for T one
    Jordan block of size p."""
    for q in (10**10, 3 * 10**12, 10**13, 2**70):
        if q % p == 0:
            q += 1
        for twist in (0, 1):
            m = module_with(p, p, q, twist, p, q + twist)
            assert np.array_equal(m.pairing_matrix, loop_pairing_matrix(m))


@given(st.sampled_from(PAIRING_PRIMES), st.integers(1, 6), st.integers(-2, 2),
       st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=150, deadline=None)
def test_power_table_relator_and_pairing_match_loops(p, n, twist, seed, data):
    """Unipotent or trivial T, q from 2 up to 10^13: the module keeps N^j =
    (T - 1)^j up to its last nonzero power, and N^J = 0."""
    q = data.draw(q_values(p) | st.integers(10**6, 10**13).filter(lambda q: q % p))
    m = module_with(p, n, q, twist, data.draw(st.integers(1, min(n, p))), seed)
    for mod in (m, m.dual_twist()):
        powers = mod._nil_powers
        nil = (mod.tau - ff.eye(n)) % p
        assert powers.dtype == np.int64 and powers.shape[1:] == (n, n)
        assert 1 <= len(powers) <= min(n, p) and powers[-1].any()
        for j in range(len(powers) + 1):
            expected = mat_pow(nil, j, p)
            assert np.array_equal(powers[j], expected) if j < len(powers) else not expected.any()
        assert np.array_equal(mod.relator_matrix, loop_relator_matrix(mod))
        assert np.array_equal(mod.pairing_matrix, loop_pairing_matrix(mod))


@pytest.mark.parametrize("p", [5, 7])
def test_relator_and_pairing_at_q_beyond_int64(p):
    """q and its binomials C(q, j) do not fit int64, so the closed forms
    reduce them mod p as Python ints."""
    q = 10**30 + 2
    m = module_with(p, p, q, 0, p, p)
    assert np.array_equal(m.relator_matrix, loop_relator_matrix(m))
    assert np.array_equal(m.pairing_matrix, loop_pairing_matrix(m))
    h0, h1, h2 = lt.cohomology_dims(m)
    assert h1 == h0 + h2


def test_cocycle_from_coords_is_reduced():
    m = random_tame_module(random.Random(11))
    space = lt.h1_space(m)
    coords = np.full(space.dim, m.p - 1)
    assert (space.basis_cocycles @ coords >= m.p).any()
    assert np.array_equal(space.cocycle_from_coords(coords),
                          space.basis_cocycles @ coords % m.p)


def test_a_module_at_the_2n_bound_is_exact():
    """p is checked at twice the dimension: at n = 2, 4 p^2 < 2^63 <= 6 p^2
    for this p, and with T != 1 or with dense H^1 bases every product stays
    exact in int64, so the Gram matrix is B^T G B' reduced, as Python ints
    give it."""
    p, q = 1518500213, 10**12 + 39  # the largest prime below sqrt(2^63 / 4)
    assert 4 * p * p < 2**63 <= 6 * p * p
    g, gi = ff.random_invertible(random.Random(1), 2, p)
    phi = g @ np.diag([1, pow(q, -1, p)]) % p @ gi % p  # Phi T Phi^-1 = T^q
    m = lt.TameGaloisModule(p, phi, q, g @ np.array([[1, 1], [0, 1]]) % p @ gi % p)
    unramified = lt.TameGaloisModule(p, g @ np.diag([1, q % p]) % p @ gi % p, q)
    for mod, dims in ((m, (1, 1, 0)), (m.dual_twist(), (0, 1, 1)), (unramified, (1, 2, 1))):
        assert lt.cohomology_dims(mod) == rank_formula_dims(mod) == dims
        gram, h1, h1d = lt.pairing_gram(mod)
        b, g_, bd = (np.array(a, dtype=object) for a in (h1.basis_cocycles, mod.pairing_matrix,
                                                          h1d.basis_cocycles))
        assert gram.tolist() == (b.T @ g_ @ bd % p).tolist() and gram.any()
    with pytest.raises(lt.TameModuleError, match="at dimension n = 2$"):
        lt.TameGaloisModule(2**31 + 11, ff.eye(1), 3)  # the next prime past 2^31
    assert lt.cohomology_dims(lt.TameGaloisModule(2**31 - 1, ff.eye(1), 3)) == (1, 1, 0)


def test_unramified_subspace_refuses_nontrivial_inertia():
    with pytest.raises(lt.TameModuleError, match="requires Tau = identity"):
        lt.unramified_subspace(module_with(5, 2, 3, 0, 2, 0))


@pytest.mark.parametrize("q", [5, 6, 10, 11])
def test_is_ramakrishna_type_refuses_q_0_or_1_mod_p(q):
    rd = rdm.gl_datum(2)
    a = lt.AdjointModule(rd, rdm.TorusElement(rd, 5, (2,)), q)
    with pytest.raises(lt.TameModuleError, match="q must not be 0 or 1 mod p"):
        lt.is_ramakrishna_type(a)


def test_singular_phi_rejected_before_tau_checks():
    # Tau here also has the wrong order; the invertibility message comes first.
    with pytest.raises(lt.TameModuleError, match="Phi must be invertible"):
        lt.TameGaloisModule(5, np.array([[1, 2], [2, 4]]), 3, np.array([[0, 1], [1, 0]]))


def test_annihilator_unramified_random():
    rng = random.Random(123)
    for _ in range(60):
        m = random_tame_module(rng, allow_tau=False)
        unr = lt.unramified_subspace(m)
        ann = lt.annihilator_subspace(m, unr)
        dual_unr = lt.unramified_subspace(m.dual_twist())
        assert ann.dim == dual_unr.dim
        assert ff.span_contains(ann.basis, dual_unr.basis, m.p)


def test_dual_image_description():
    """ann(L^Ram) = image of H^1(W^perp(1)); reps have no g_{-alpha} part."""
    a = gl2_f5_adjoint()
    m = a.module
    _, alpha = lt.is_ramakrishna_type(a)
    ram = lt.ramakrishna_subspace(a, alpha)
    ann = lt.annihilator_subspace(m, ram)
    p, n = a.p, m.dim
    md = m.dual_twist()
    # W^perp in the dual coordinates: the functionals vanishing on t_alpha
    # and g_alpha.
    w = np.hstack([lt.t_alpha_basis(a.rd, alpha, p, n), ff.zeros((n, 1))])
    w[a.root_index(alpha), -1] = 1
    wann = ff.nullspace(w.T % p, p)
    img = lt.image_subspace(md, wann, "dual-w")
    assert img.dim == ann.dim
    assert ff.span_contains(ann.basis, img.basis, p)
    # Annihilator representatives have zero g_{-alpha}-component.
    for j in range(ann.dim):
        rep = ann.space.cocycle_from_coords(ann.basis[:, j])
        assert lt.dual_root_component(a, rep[:n], tuple(-c for c in alpha)) == 0
        assert lt.dual_root_component(a, rep[n:], tuple(-c for c in alpha)) == 0


# ---------------------------------------------------------------------------
# Image subspaces against the route that builds W as a module of its own
# ---------------------------------------------------------------------------

def submodule_image_oracle(m: lt.TameGaloisModule, sub_basis) -> np.ndarray:
    """Class-coordinate basis of the image of H^1(W) -> H^1(M), by way of W's
    own module: restrict Phi_eff and T to W, take that module's H^1, map its
    representatives into cocycles of M and take their classes."""
    p = m.p
    basis = ff.normalize(sub_basis, p)
    phi_r = ff.solve(basis, (m.phi_eff @ basis) % p, p)
    tau_r = ff.solve(basis, (m.tau @ basis) % p, p)
    if phi_r is None or tau_r is None:
        raise lt.TameModuleError("subspace is not invariant")
    sub = lt.TameGaloisModule(p, phi_r, m.q, tau_r, 0)
    n, k = basis.shape
    # The inclusion acts on both halves of a stacked cocycle (a; b).
    big = ff.zeros((2 * n, 2 * k))
    big[:n, :k] = big[n:, k:] = basis
    cocycles = (big @ lt.h1_space(sub).basis_cocycles) % p
    return ff.column_space(lt.h1_space(m).class_coords(cocycles), p)


def assert_image_matches_oracle(m, sub_basis):
    got = lt.image_subspace(m, sub_basis, "w")
    expected = submodule_image_oracle(m, sub_basis)
    assert got.space is lt.h1_space(m) and got.label == "w"
    assert got.basis.shape == expected.shape
    assert got.basis.tobytes() == expected.tobytes()


def closed_subspace(m: lt.TameGaloisModule, rng: random.Random) -> np.ndarray:
    """A random subspace closed under Phi_eff and T: the closure of one or
    two vectors, each drawn from ker (T - 1)^j, from an eigenspace of Phi_eff
    or from the whole space (whose closure is most often all of it)."""
    p, n = m.p, m.dim
    eigenspaces = [e for lam in range(1, p)
                   if (e := ff.nullspace((m.phi_eff - lam * ff.eye(n)) % p, p)).shape[1]]
    seeds = []
    for _ in range(rng.randrange(1, 3)):
        kind = rng.randrange(4)
        if kind == 0:
            space = ff.eye(n)
        elif kind == 1:
            space = ff.nullspace(mat_pow((m.tau - ff.eye(n)) % p, rng.randrange(1, n + 1), p), p)
        else:
            space = rng.choice(eigenspaces) if eigenspaces else ff.eye(n)
        coeffs = np.array([rng.randrange(p) for _ in range(space.shape[1])], dtype=np.int64)
        seeds.append(space @ coeffs % p)
    w = ff.column_space(np.column_stack(seeds), p)
    while True:
        grown = ff.column_space(np.hstack([w, m.phi_eff @ w % p, m.tau @ w % p]), p)
        if grown.shape[1] == w.shape[1]:
            return w
        w = grown


@given(st.integers(0, 2**32 - 1), st.sampled_from(["inertia", "unramified", "rich"]))
@settings(max_examples=300, deadline=None)
def test_image_subspace_matches_submodule_oracle(seed, kind):
    """Modules with and without inertia, and Phi/T-closed random subspaces:
    the cocycle-equation route gives the oracle's basis byte for byte."""
    rng = random.Random(seed)
    m = cohomology_rich_module(rng) if kind == "rich" else random_tame_module(rng, kind == "inertia")
    w = closed_subspace(m, rng)
    assert_image_matches_oracle(m, w)


@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=100, deadline=None)
def test_image_subspace_refuses_what_the_oracle_refuses(seed, allow_tau):
    """On a random subspace, invariant or not, both routes refuse or both
    give the same basis."""
    rng = random.Random(seed)
    m = random_tame_module(rng, allow_tau)
    w = ff.random_subspace(rng, m.dim, rng.randrange(1, m.dim + 1), m.p)
    try:
        submodule_image_oracle(m, w)
    except lt.TameModuleError:
        with pytest.raises(lt.TameModuleError, match="not invariant"):
            lt.image_subspace(m, w, "w")
        return
    assert_image_matches_oracle(m, w)


def test_image_subspace_refuses_a_non_invariant_subspace():
    # The line of g_alpha + g_{-alpha}: Phi scales the two root lines by
    # different values.
    adjoint = gl2_f5_adjoint().module
    # The line of e_2 under Phi = 1 and a unipotent T: only T moves it.
    unipotent = lt.TameGaloisModule(5, ff.eye(2), 6, np.array([[1, 1], [0, 1]]))
    for m, w in [(adjoint, np.array([[0], [1], [1]])), (unipotent, np.array([[0], [1]]))]:
        with pytest.raises(lt.TameModuleError, match="not invariant"):
            submodule_image_oracle(m, w)
        with pytest.raises(lt.TameModuleError, match="not invariant"):
            lt.image_subspace(m, w, "w")


# (root datum, p, simple values of t, q) of Ramakrishna type.
RAMAKRISHNA_CASES = {"GL2": ("GL2", 5, (2,), 3), "A2": ([("A", 2)], 7, (3, 2), 5),
                     "B2": ([("B", 2)], 7, (2, 3), 3)}


def ramakrishna_adjoint(name) -> lt.AdjointModule:
    """A fresh adjoint module, so that nothing on it is cached yet."""
    spec, p, values, q = RAMAKRISHNA_CASES[name]
    rd = rdm.gl_datum(2) if spec == "GL2" else rdm.build_root_datum(spec)
    return lt.AdjointModule(rd, rdm.TorusElement(rd, p, values), q)


@pytest.mark.parametrize("name", sorted(RAMAKRISHNA_CASES))
def test_ramakrishna_w_matches_submodule_oracle(name):
    a = ramakrishna_adjoint(name)
    ok, alpha = lt.is_ramakrishna_type(a)
    assert ok
    w = np.hstack([lt.t_alpha_basis(a.rd, alpha, a.p, a.dim), lt._root_line(a, alpha)])
    assert_image_matches_oracle(a.module, w)
    sub = lt.ramakrishna_subspace(a, alpha)
    assert sub.basis.tobytes() == submodule_image_oracle(a.module, w).tobytes()


@pytest.mark.parametrize("name", sorted(RAMAKRISHNA_CASES))
def test_ramakrishna_subspace_builds_no_second_module(monkeypatch, name):
    a = ramakrishna_adjoint(name)
    built = []
    init = lt.TameGaloisModule.__init__
    monkeypatch.setattr(lt.TameGaloisModule, "__init__",
                        lambda self, *args, **kw: built.append(self) or init(self, *args, **kw))
    _, alpha = lt.is_ramakrishna_type(a)
    lt.ramakrishna_subspace(a, alpha)
    assert built == [a.module]


def test_dual_w_perp_matches_submodule_oracle():
    """test_dual_image_description's W^perp(1) inside the dual of g0."""
    a = gl2_f5_adjoint()
    _, alpha = lt.is_ramakrishna_type(a)
    p, n = a.p, a.dim
    w = np.hstack([lt.t_alpha_basis(a.rd, alpha, p, n), lt._root_line(a, alpha)])
    assert_image_matches_oracle(a.module.dual_twist(), ff.nullspace(w.T % p, p))


# ---------------------------------------------------------------------------
# Second routes to H^1 and to the image of H^1(W), as oracles: the quotient
# reduced in all 2n coordinates, and the W-valued cocycles cut out by the
# equations of W.
# ---------------------------------------------------------------------------

def quotient_h1(m: lt.TameGaloisModule) -> ff.QuotientSpace:
    """Z^1/B^1 from one reduction of [d0 | z1], 2n rows."""
    return ff.QuotientSpace(ff.nullspace(m.relator_matrix, m.p), m.coboundary_matrix, m.p)


def equations_image(m: lt.TameGaloisModule, sub_basis) -> np.ndarray:
    """Image basis of H^1(W) -> H^1(M): the cocycles (a; b) with e a = 0 and
    e b = 0 for the equations e of W, in the quotient's class coordinates."""
    p = m.p
    w = ff.normalize(sub_basis, p)
    e = ff.nullspace(w.T, p).T
    if any(ff.mat_mul(e, act @ w, p).any() for act in (m.phi_eff, m.tau)):
        raise lt.TameModuleError("subspace is not invariant")
    cocycles = ff.nullspace(np.vstack([m.relator_matrix, np.kron(ff.eye(2), e)]), p)
    return ff.column_space(quotient_h1(m).coords_matrix(cocycles), p)


def spanning_set(w: np.ndarray, p: int, rng: random.Random) -> np.ndarray:
    """The columns of w, some combinations of them and some zero columns,
    shuffled: a spanning set of span(w) with dependent or zero columns."""
    n, k = w.shape
    extra = [w @ np.array([rng.randrange(p) for _ in range(k)], dtype=np.int64) % p
             for _ in range(rng.randrange(3))]
    columns = [*w.T, *extra, *[ff.zeros(n)] * rng.randrange(3)]
    rng.shuffle(columns)
    return np.column_stack(columns) if columns else ff.zeros((n, 0))


@given(st.sampled_from(PAIRING_PRIMES), st.integers(2, 6), st.integers(-2, 2),
       st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=200, deadline=None)
def test_free_coordinate_h1_matches_quotient_oracle(p, n, twist, seed, data):
    """Unipotent T of a Jordan block of size 2 and up, on the module and its
    dual: the representatives, the dimensions, the class coordinates of drawn
    cocycles and the image of H^1(W) for W spanned with dependent or zero
    columns (or by nothing) are the oracle's bytes."""
    m = module_with(p, n, data.draw(q_values(p)), twist,
                    data.draw(st.integers(2, min(n, p))), seed)
    rng = random.Random(seed)
    for mod in (m, m.dual_twist()):
        space, oracle = lt.h1_space(mod), quotient_h1(mod)
        assert space.basis_cocycles.shape == oracle.reps.shape
        assert space.basis_cocycles.tobytes() == oracle.reps.tobytes()
        assert lt.cohomology_dims(mod) == (n - oracle.den.shape[1], oracle.dim,
                                           oracle.num.shape[1] - n)
        z1 = oracle.num
        cocycles = z1 @ ff.random_matrix(rng, z1.shape[1], rng.randrange(4), p) % p
        for v in (cocycles, cocycles[:, 0] if cocycles.shape[1] else z1[:, 0]):
            got, expected = space.class_coords(v), oracle.coords(v)
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
        w = closed_subspace(mod, rng) if rng.random() < 0.8 else ff.zeros((n, 0))
        sub = spanning_set(w, p, rng)
        got = lt.image_subspace(mod, sub, "w").basis
        expected = equations_image(mod, sub)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


def test_class_coords_refuses_a_non_cocycle():
    m = gl2_f5_adjoint().module
    space = lt.h1_space(m)
    # A unit vector off Z^1: a column where the relator is nonzero.
    v = ff.eye(2 * m.dim)[m.relator_matrix.any(axis=0).argmax()]
    with pytest.raises(ValueError, match="not a cocycle"):
        space.class_coords(v)
    with pytest.raises(ValueError, match="not a cocycle"):
        space.class_coords(np.column_stack([space.basis_cocycles[:, 0], v]))


def local_payload(name, twist) -> dict:
    spec, p, values, q = RAMAKRISHNA_CASES[name]
    rd = {"gl": 2} if spec == "GL2" else {"type": [list(f) for f in spec]}
    return {"root_datum": rd, "p": p, "torus_values": list(values), "q": q, "twist": twist}


# (rref calls, cells) of one `local` payload at twists 0 and 1: no
# elimination for Phi^-1 or for class coordinates, dim Z^1-row quotients and
# an n x 2 dim W system for H^1(W).
LOCAL_PAYLOAD_ELIMINATIONS = {"GL2": [(9, 116), (11, 162)], "A2": [(9, 689), (11, 970)],
                              "B2": [(9, 1015), (11, 1446)]}


@pytest.mark.parametrize("name", sorted(RAMAKRISHNA_CASES))
def test_local_payload_eliminations(monkeypatch, name):
    calls = count_eliminations(monkeypatch)
    for twist, expected in enumerate(LOCAL_PAYLOAD_ELIMINATIONS[name]):
        calls.clear()
        report = sc.run_scenario_payload("local", local_payload(name, twist), 0, None)
        assert report["status"] == "pass" and report["ramakrishna"]
        assert (len(calls), sum(np.size(a) for a in calls)) == expected


def test_adjoint_module_makes_no_elimination(monkeypatch):
    """Phi^-1 is the adjoint matrix of t, checked by __post_init__'s product."""
    for name in sorted(RAMAKRISHNA_CASES):
        a = ramakrishna_adjoint(name)
        calls = count_eliminations(monkeypatch)
        m = a.module
        assert calls == []
        monkeypatch.undo()
        assert np.array_equal(m.phi_inv, ff.inv(m.phi, m.p))


def test_ramakrishna_root_set_is_computed_once_per_adjoint_module(monkeypatch):
    found = []
    root_set = lt.ramakrishna_root_set
    monkeypatch.setattr(lt, "ramakrishna_root_set",
                        lambda *args: found.append(args) or root_set(*args))
    for name in sorted(RAMAKRISHNA_CASES):
        found.clear()
        a = ramakrishna_adjoint(name)
        _, alpha = lt.is_ramakrishna_type(a)
        lt.ramakrishna_subspace(a, alpha)
        assert lt.is_ramakrishna_type(a) == (True, alpha)
        assert len(found) == 1
        found.clear()
        assert sc.run_scenario_payload("local", local_payload(name, 1), 0, None)["ramakrishna"]
        assert len(found) == 1


def test_ramakrishna_refusals_fire_on_every_call():
    rd = rdm.gl_datum(2)
    singular = lt.AdjointModule(rd, rdm.TorusElement(rd, 5, (1,)), 3)  # alpha(t) = 1
    wrong = gl2_f5_adjoint()
    for _ in range(2):
        with pytest.raises(lt.TameModuleError, match="must be regular semisimple"):
            lt.is_ramakrishna_type(singular)
        with pytest.raises(lt.TameModuleError, match="must be regular semisimple"):
            lt.ramakrishna_subspace(singular, (1,))
        with pytest.raises(lt.TameModuleError, match="not the certified Ramakrishna root"):
            lt.ramakrishna_subspace(wrong, (-1,))
    assert lt.ramakrishna_subspace(wrong, (1,)).dim == 1


# ---------------------------------------------------------------------------
# REG / REG* and non-splitness
# ---------------------------------------------------------------------------

def test_reg_checks_gl2():
    rd = rdm.gl_datum(2)
    p = 13
    # Residual diag(psi, 1): adjoint action by psi on g_alpha, psi^{-1} on g_{-alpha}.
    psi = 3
    gen = rdm.adjoint_torus_matrix(rd, p, (psi,))
    kappa = 5
    reg, reg_star = lt.reg_checks(rd, p, [gen], [kappa])
    assert reg  # psi != 1
    gen_kappa = rdm.adjoint_torus_matrix(rd, p, (kappa,))
    reg, reg_star = lt.reg_checks(rd, p, [gen_kappa], [kappa])
    assert reg and not reg_star  # twist cancels the eigenvalue
    ident = rdm.adjoint_torus_matrix(rd, p, (1,))
    reg, _ = lt.reg_checks(rd, p, [ident], [kappa])
    assert not reg


def test_reg_checks_with_unipotent_generator():
    """A Borel-valued non-torus generator exercises the full-matrix path."""
    rd = rdm.gl_datum(2)
    p = 13
    # Ad(u) for u = [[1,1],[0,1]] on the (t0, g_alpha, g_{-alpha}) basis:
    # h -> h - 2e, e -> e, f -> f + h - e.
    ad_u = np.array([[1, 0, 1], [-2, 1, -1], [0, 0, 1]], dtype=np.int64) % p
    # The unipotent alone fixes g/b pointwise, so REG fails.
    reg, _ = lt.reg_checks(rd, p, [ad_u], [1])
    assert not reg
    # Adding a torus generator with psi != 1 restores REG.
    psi, kappa = 3, 5
    torus = rdm.adjoint_torus_matrix(rd, p, (psi,))
    reg, reg_star = lt.reg_checks(rd, p, [ad_u, torus], [1, kappa])
    assert reg and reg_star
    # REG* fails when the torus eigenvalue matches the cyclotomic value.
    torus_k = rdm.adjoint_torus_matrix(rd, p, (kappa,))
    reg, reg_star = lt.reg_checks(rd, p, [ad_u, torus_k], [1, kappa])
    assert reg and not reg_star


def test_reg_checks_reduce_a_large_cyclotomic_value():
    # kappa + p 10^30 does not fit int64; it is kappa mod p that twists.
    rd, p = rdm.gl_datum(2), 13
    gen = rdm.adjoint_torus_matrix(rd, p, (5,))
    assert lt.reg_checks(rd, p, [gen], [5 + p * 10**30]) == lt.reg_checks(rd, p, [gen], [5]) \
        == (True, False)


def test_l_alpha_component_of_the_coroot_is_one():
    a = gl2_f5_adjoint()
    # <alpha, alpha^vee> = 2, halved.
    assert lt.l_alpha_component(a, np.array([1, 0, 0]), (1,)) == 1


def test_reg_checks_borel_validation():
    rd = rdm.gl_datum(2)
    bad = np.zeros((3, 3), dtype=np.int64)
    bad[2, 0] = 1  # maps t0 into g_{-alpha}
    bad[0, 2] = 1
    bad[1, 1] = 1
    with pytest.raises(lt.TameModuleError, match="does not preserve the Borel"):
        lt.reg_checks(rd, 5, [bad], [2])
    # A generator that moves the simple root alpha into g_{-alpha}.
    pos, neg = (1 + rd.all_roots().index(r) for r in ((1,), (-1,)))
    bad = ff.eye(3)
    bad[neg, pos] = 1
    with pytest.raises(lt.TameModuleError, match="does not preserve the Borel"):
        lt.reg_checks(rd, 5, [bad], [2])
    with pytest.raises(lt.TameModuleError, match="one cyclotomic value per generator"):
        lt.reg_checks(rd, 5, [ff.eye(3)], [2, 3])
    with pytest.raises(lt.TameModuleError, match="generator has the wrong shape"):
        lt.reg_checks(rd, 5, [ff.eye(4)], [2])


def test_nonsplit_check():
    rd = rdm.gl_datum(2)
    p, q = 5, 3
    # Line with trivial action: coboundaries vanish, any nonzero value works.
    assert lt.nonsplit_check(rd, p, q, (1,), (1,), (2,), (0,))
    assert not lt.nonsplit_check(rd, p, q, (1,), (1,), (0,), (0,))
    a2 = rdm.build_root_datum([("A", 2)])
    assert not lt.nonsplit_check(a2, p, q, (1, 1), (1, 1), (2, 0), (0, 0))
    with pytest.raises(lt.TameModuleError, match="cocycle relation violated"):
        # Relation violated: scalar 1, tau 1 forces (1 - qbar) phi_tau = 0.
        lt.nonsplit_check(rd, p, q, (1,), (1,), (2,), (1,))
    with pytest.raises(lt.TameModuleError, match="one entry per simple root"):
        lt.nonsplit_check(a2, p, q, (1,), (1,), (2,), (0,))


def per_root_adjoint_phi(a: lt.AdjointModule, twist: int) -> np.ndarray:
    """The arithmetic Frobenius of g0(twist) built root by root: the oracle
    for AdjointModule.module, which reads it from adjoint_torus_matrix, and
    for its Tate twists."""
    p, d = a.p, a.rd.rank_ss
    scale = pow(a.q % p, twist % (p - 1), p)
    m = ff.zeros((a.dim, a.dim))
    for i in range(d):
        m[i, i] = scale
    for k, root in enumerate(a.rd.all_roots()):
        m[d + k, d + k] = pow(a.t.root_value(root), p - 2, p) * scale % p
    return m


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "GL2"])
@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_adjoint_module_matches_per_root_construction(name, p):
    rd = rdm.gl_datum(2) if name == "GL2" else rdm.build_root_datum([(name[0], int(name[1]))])
    rng = random.Random(p * 100 + len(name))
    for twist in range(-2, 3):
        values = tuple(rng.randrange(1, p) for _ in range(rd.rank_ss))
        q = rng.choice([q for q in range(2, 4 * p) if q % p])
        a = lt.AdjointModule(rd, rdm.TorusElement(rd, p, values), q)
        expected = per_root_adjoint_phi(a, twist)
        got = a.module.twisted(twist).phi_eff
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes(), (values, q, twist)


# ---------------------------------------------------------------------------
# Invariance relations.  A change of basis g of M, (Phi, T) -> (g Phi g^-1,
# g T g^-1), is an isomorphism of modules, so it cannot move the dimensions,
# the rank of the pairing's Gram matrix, the unramified dimension or the
# image of H^1(gW) for the Ramakrishna W; and Tate twists compose.  Neither
# relation needs an oracle, and a change of basis moves the free columns
# that H^1 is reduced in.
# ---------------------------------------------------------------------------

def conjugated(m: lt.TameGaloisModule, g, gi) -> lt.TameGaloisModule:
    p = m.p
    return lt.TameGaloisModule(p, g @ m.phi @ gi % p, m.q, g @ m.tau @ gi % p, m.twist)


def tame_invariants(m: lt.TameGaloisModule, w=None) -> list:
    """(h0, h1, h2), the Gram rank, the unramified dimension when T = 1, and
    for a subspace W the dimensions of the image of H^1(W) and of its
    annihilator."""
    gram = lt.pairing_gram(m)[0]
    out = [lt.cohomology_dims(m), ff.rank(gram, m.p)]
    if np.array_equal(m.tau, ff.eye(m.dim)):
        out.append(lt.unramified_subspace(m).dim)
    if w is not None:
        sub = lt.image_subspace(m, w, "ramakrishna")
        out += [sub.dim, lt.annihilator_subspace(m, sub).dim]
    return out


@given(st.sampled_from(["random", *sorted(RAMAKRISHNA_CASES)]), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_conjugation_leaves_tame_invariants(kind, seed):
    rng = random.Random(seed)
    if kind == "random":
        m, w = random_tame_module(rng), None
    else:
        a = ramakrishna_adjoint(kind)
        _, alpha = lt.is_ramakrishna_type(a)
        m = a.module
        w = np.hstack([lt.t_alpha_basis(a.rd, alpha, a.p, a.dim), lt._root_line(a, alpha)])
        # The verdict "ramified subspace dim = h0" on either side.
        assert lt.ramakrishna_subspace(a, alpha).dim == lt.cohomology_dims(m)[0]
    g, gi = ff.random_invertible(rng, m.dim, m.p)
    moved = None if w is None else g @ w % m.p
    assert tame_invariants(conjugated(m, g, gi), moved) == tame_invariants(m, w)


@given(st.integers(0, 2**32 - 1), st.integers(-30, 30), st.integers(-30, 30))
@settings(max_examples=60, deadline=None)
def test_twists_compose_in_dimensions(seed, a, b):
    m = random_tame_module(random.Random(seed))
    assert lt.cohomology_dims(m.twisted(a).twisted(b)) == lt.cohomology_dims(m.twisted(a + b))
