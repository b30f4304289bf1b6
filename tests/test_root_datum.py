import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from galdesk import root_datum as rdm

# Hand-enumerated profiles: (dim g0, dim n, dim b0, dim t0, h, #Z_sc).
PROFILES = {
    ("A", 1): (3, 1, 2, 1, 2, 2),
    ("A", 2): (8, 3, 5, 2, 3, 3),
    ("A", 3): (15, 6, 9, 3, 4, 4),
    ("B", 2): (10, 4, 6, 2, 4, 2),
    ("C", 3): (21, 9, 12, 3, 6, 2),
    ("G", 2): (14, 6, 8, 2, 6, 1),
}

TEST_TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("B", 4),
    ("C", 3), ("C", 4), ("D", 4), ("F", 4), ("G", 2),
]

ROOT_COUNTS = {
    ("A", 1): 2, ("A", 2): 6, ("A", 3): 12, ("A", 4): 20,
    ("B", 2): 8, ("B", 3): 18, ("B", 4): 32,
    ("C", 3): 18, ("C", 4): 32, ("D", 4): 24, ("F", 4): 48, ("G", 2): 12,
}


def datum(fam, rk):
    return rdm.build_root_datum([(fam, rk)])


@pytest.mark.parametrize("fam,rk", PROFILES)
def test_dimension_profiles(fam, rk):
    assert rdm.dimension_profile(datum(fam, rk)) == PROFILES[(fam, rk)]


@pytest.mark.parametrize("fam,rk", TEST_TYPES)
def test_root_counts_and_identities(fam, rk):
    rd = datum(fam, rk)
    assert len(rd.all_roots()) == ROOT_COUNTS[(fam, rk)]
    g0, n, b0, t0, _, _ = rdm.dimension_profile(rd)
    assert g0 == 2 * n + t0
    assert b0 == n + t0
    assert len(set(rd.all_roots())) == 2 * rd.num_positive


def test_a2_heights():
    rd = datum("A", 2)
    assert sorted(rdm.RootDatum.height(rd, r) for r in rd.positive_roots) == [1, 1, 2]


def test_e6_sanity():
    rd = datum("E", 6)
    assert rd.num_positive == 36
    assert rd.coxeter_number == 12
    assert rd.center_order == 3


def test_unrecognized_family():
    with pytest.raises(rdm.RootDatumError):
        rdm.build_root_datum([("H", 3)])
    with pytest.raises(rdm.RootDatumError):
        rdm.build_root_datum([("A", 0)])


# Every irreducible type build_root_datum accepts.
ALL_TYPES = ([("A", r) for r in range(1, 17)] + [(f, r) for f in "BC" for r in range(2, 17)]
             + [("D", r) for r in range(4, 17)] + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])
ODD_PRIMES = [3, 5, 7, 11, 13, 17]


def textbook(fam, rk):
    """(Coxeter number, order of the centre of the simply connected cover,
    the primes that are not very good), from Bourbaki's plates I-IX."""
    if fam == "A":
        return rk + 1, rk + 1, {q for q in [2, *ODD_PRIMES] if (rk + 1) % q == 0}
    if fam in "BC":
        return 2 * rk, 2, {2}
    if fam == "D":
        return 2 * rk - 2, 4, {2}
    return {("E", 6): (12, 3, {2, 3}), ("E", 7): (18, 2, {2, 3}), ("E", 8): (30, 1, {2, 3, 5}),
            ("F", 4): (12, 1, {2, 3}), ("G", 2): (6, 1, {2, 3})}[(fam, rk)]


def reflection_closure(m: np.ndarray) -> set:
    """The positive roots of the Cartan matrix m, M[i][j] = <alpha_i, alpha_j^vee>,
    in the simple-root basis: the simple roots closed under the simple
    reflections s_j(r) = r - <r, alpha_j^vee> alpha_j, positives kept."""
    d = len(m)
    simple = [tuple(int(i == k) for i in range(d)) for k in range(d)]
    found, frontier = set(simple), list(simple)
    while frontier:
        r = frontier.pop()
        for j in range(d):
            image = list(r)
            image[j] -= sum(r[i] * int(m[i, j]) for i in range(d))
            image = tuple(image)
            if min(image) >= 0 and image not in found:
                found.add(image)
                frontier.append(image)
    return found


def test_every_type_against_the_textbook():
    assert len(ALL_TYPES) == 64
    for fam, rk in ALL_TYPES:
        rd = datum(fam, rk)
        h, z, bad = textbook(fam, rk)
        assert (rd.coxeter_number, rd.center_order) == (h, z), (fam, rk)
        assert len(rd.all_roots()) == rk * h, (fam, rk)
        assert len(rdm.longest_element(rd)[0]) == rd.num_positive, (fam, rk)
        assert {q for q in ODD_PRIMES if not rdm.very_good_prime(rd, q)} == bad - {2}, (fam, rk)
        # <alpha_i, 2 rho^vee> = 2 at every simple root, with 2 rho^vee the sum
        # of the positive coroots: the positive roots of the transposed matrix.
        two_rho_vee = np.sum(sorted(reflection_closure(rd.cartan.T)), axis=0)
        assert (rd.cartan @ two_rho_vee).tolist() == [2] * rk, (fam, rk)
        # The roots in build_root_datum's order: by height, then lexicographically.
        assert rd.positive_roots == tuple(sorted(reflection_closure(rd.cartan),
                                                 key=lambda r: (sum(r), r))), (fam, rk)
        assert [[rd.pair_root_coroot(r, j) for j in range(rk)] for r in rd.all_roots()] \
            == (np.array(rd.all_roots()) @ rd.cartan).tolist(), (fam, rk)


def test_compound_type_takes_each_factor():
    rd = rdm.build_root_datum([("A", 2), ("B", 3), ("G", 2)])
    assert rd.center_order == 3 * 2 * 1
    assert rd.coxeter_number == 6
    assert rd.highest_roots == ((1, 1), (1, 2, 2), (3, 2))
    assert not rdm.very_good_prime(rd, 3) and rdm.very_good_prime(rd, 5)


@pytest.mark.parametrize("first, second", [(("A", 2), ("B", 3)), (("G", 2), ("A", 1)),
                                           (("D", 4), ("C", 3)), (("E", 6), ("F", 4))],
                         ids=["A2+B3", "G2+A1", "D4+C3", "E6+F4"])
def test_factor_order_leaves_the_invariants(first, second):
    """A compound type is a product: swapping its factors leaves the profile,
    the centre's order, the Coxeter number and every very-good verdict, and
    lists each factor's highest root in the other order."""
    rd, swapped = (rdm.build_root_datum(spec) for spec in ([first, second], [second, first]))
    assert rdm.dimension_profile(swapped) == rdm.dimension_profile(rd)
    assert (swapped.center_order, swapped.coxeter_number) == (rd.center_order, rd.coxeter_number)
    for p in (5, 7, 11, 13):
        assert rdm.very_good_prime(swapped, p) == rdm.very_good_prime(rd, p), p
    assert swapped.highest_roots == rd.highest_roots[::-1]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_gl_longest_element(n):
    # w0 reverses the diagonal: -w0 reverses the simple roots.
    rd = rdm.gl_datum(n)
    word, mw0 = rdm.longest_element(rd)
    assert len(word) == rd.num_positive == n * (n - 1) // 2
    assert mw0 == list(range(n - 2, -1, -1))
    assert rdm.parallel_cocharacter_check(rd, range(n), range(n), [n - 1] * n)


def test_gl2_profile():
    rd = rdm.gl_datum(2)
    assert len(rd.all_roots()) == 2
    g0, n, b0, t0, _, _ = rdm.dimension_profile(rd)
    assert (n, t0) == (1, 1)


def lattice_rows(rd) -> dict:
    """The (pair, shift) rows of the Weyl action on each lattice: roots in
    simple-root coordinates, weights and cocharacters."""
    return {"roots": (rd.cartan.T, np.eye(rd.rank_ss, dtype=np.int64)),
            "weights": (rd.coroot_vectors, rd.root_vectors),
            "cochars": (rd.root_vectors, rd.coroot_vectors)}


def on_roots(rd, root, word) -> tuple:
    return tuple(rdm.weyl_act(root, word, *lattice_rows(rd)["roots"]).tolist())


@pytest.mark.parametrize("fam,rk", TEST_TYPES)
def test_longest_element(fam, rk):
    rd = datum(fam, rk)
    word, mw0 = rdm.longest_element(rd)
    assert len(word) == rd.num_positive
    # w0 sends every positive root to a negative root.
    for root in rd.positive_roots:
        img = on_roots(rd, root, word)
        assert all(c <= 0 for c in img)
    # -w0 is an involutive Dynkin-diagram automorphism.
    assert sorted(mw0) == list(range(rd.rank_ss))
    for i in range(rd.rank_ss):
        assert mw0[mw0[i]] == i
        for j in range(rd.rank_ss):
            assert rd.cartan[mw0[i], mw0[j]] == rd.cartan[i, j]
    # w0 squared is the identity on the root set.
    for root in rd.positive_roots:
        assert on_roots(rd, on_roots(rd, root, word), word) == root


def test_minus_w0_values():
    assert rdm.longest_element(datum("A", 1))[1] == [0]
    assert rdm.longest_element(datum("A", 2))[1] == [1, 0]
    assert rdm.longest_element(datum("B", 2))[1] == [0, 1]


def test_theta_involution_a2():
    rd = datum("A", 2)
    w1 = np.array([1, 0])
    w2 = np.array([0, 1])
    (t1, t2), fixed = rdm.theta_involution(rd, w1, w1)
    assert np.array_equal(t1, w2) and np.array_equal(t2, w2)
    assert not fixed
    (_, _), fixed = rdm.theta_involution(rd, w1, w2)
    assert fixed
    (_, _), fixed = rdm.theta_involution(rd, np.zeros(2, dtype=int), np.zeros(2, dtype=int))
    assert fixed


def test_theta_lattice_mismatch():
    rd = datum("A", 2)
    with pytest.raises(rdm.RootDatumError):
        rdm.theta_involution(rd, np.array([1, 0, 0]), np.array([0, 1]))


@given(st.sampled_from(TEST_TYPES), st.data())
@settings(max_examples=40, deadline=None)
def test_theta_squared_is_identity(typ, data):
    rd = datum(*typ)
    d = rd.weight_dim
    lam1 = np.array(data.draw(st.lists(st.integers(-4, 4), min_size=d, max_size=d)))
    lam2 = np.array(data.draw(st.lists(st.integers(-4, 4), min_size=d, max_size=d)))
    (t1, t2), _ = rdm.theta_involution(rd, lam1, lam2)
    (u1, u2), _ = rdm.theta_involution(rd, t1, t2)
    assert np.array_equal(u1, lam1) and np.array_equal(u2, lam2)


def test_parallel_cocharacter_gl2():
    rd = rdm.gl_datum(2)
    # mu_w = (a,b) dominant, omega = (c,c), mu_wbar = (c-b, c-a).
    for a, b, c in [(3, 1, 5), (2, 2, 0), (0, -1, 4)]:
        mu_w = np.array([a, b])
        omega = np.array([c, c])
        mu_wbar = np.array([c - b, c - a])
        assert rdm.parallel_cocharacter_check(rd, mu_w, mu_wbar, omega)
    assert not rdm.parallel_cocharacter_check(
        rd, np.array([1, 0]), np.array([1, 0]), np.array([0, 0])
    )
    assert rdm.parallel_cocharacter_check(
        rd, np.array([0, 0]), np.array([0, 0]), np.array([0, 0])
    )


def test_parallel_cocharacter_a2_default_model():
    rd = datum("A", 2)
    # Simple-coroot coordinates; -w0 swaps the two coroots.
    assert rdm.parallel_cocharacter_check(rd, np.array([1, 1]), np.array([0, 1]),
                                          np.zeros(2, dtype=np.int64))
    assert not rdm.parallel_cocharacter_check(rd, np.array([1, 0]), np.array([2, 0]),
                                              np.zeros(2, dtype=np.int64))


@given(st.sampled_from([("A", 2), ("B", 2), ("C", 3)]), st.data())
@settings(max_examples=30, deadline=None)
def test_dominant_representative_properties(typ, data):
    rd = datum(*typ)
    n = rd.coroot_vectors.shape[1]
    mu = np.array(data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)))
    dom = rdm.dominant_representative(rd, mu)
    assert all(rd.root_vectors @ dom >= 0)
    assert np.array_equal(rdm.dominant_representative(rd, dom), dom)
    # w0 is an involution on the cocharacter lattice.
    word = rdm.longest_element(rd)[0]
    rows = lattice_rows(rd)["cochars"]
    assert np.array_equal(rdm.weyl_act(rdm.weyl_act(mu, word, *rows), word, *rows), mu)


def reflection_faults(rd, rows, lams, mus) -> list:
    """The (relation, j) at which s_j^2 = 1 fails on roots, weights lams or
    cocharacters mus, or <s_j lam, s_j mu> = lam . mu fails."""
    faults = []
    for j in range(rd.rank_ss):
        for name, xs in (("roots", rd.all_roots()), ("weights", lams), ("cochars", mus)):
            if not all(np.array_equal(rdm.weyl_act(x, [j, j], *rows[name]), x) for x in xs):
                faults.append((name, j))
        s_lams = [rdm.weyl_act(lam, [j], *rows["weights"]) for lam in lams]
        s_mus = [rdm.weyl_act(mu, [j], *rows["cochars"]) for mu in mus]
        if [[int(a @ b) for b in s_mus] for a in s_lams] != [[int(a @ b) for b in mus] for a in lams]:
            faults.append(("pairing", j))
    return faults


REFLECTION_DATA = [(f"{fam}{rk}", datum(fam, rk)) for fam, rk in TEST_TYPES] + \
    [(f"GL{n}", rdm.gl_datum(n)) for n in range(2, 6)]


@given(st.sampled_from(REFLECTION_DATA), st.data())
@settings(max_examples=60, deadline=None)
def test_one_reflection_is_an_involution_that_keeps_the_pairing(named, data):
    """s_j^2 = 1 on every lattice and <s_j lam, s_j mu> = <lam, mu>; theta
    and the parallel cocharacter check apply w0 as weyl_act does."""
    _, rd = named
    n = rd.weight_dim
    vectors = st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n).map(np.array),
                       min_size=1, max_size=3)
    lams, mus = data.draw(vectors), data.draw(vectors)
    rows = lattice_rows(rd)
    assert reflection_faults(rd, rows, lams, mus) == []
    word = rdm.longest_element(rd)[0]
    (t1, _), _ = rdm.theta_involution(rd, lams[0], lams[0])
    assert np.array_equal(t1, -rdm.weyl_act(lams[0], word, *rows["weights"]))
    # -w0 keeps a dominant cocharacter dominant, so this pair is parallel for omega = 0.
    dom = rdm.dominant_representative(rd, mus[0])
    minus_w0_dom = -rdm.weyl_act(dom, word, *rows["cochars"])
    assert rdm.parallel_cocharacter_check(rd, minus_w0_dom, mus[0], np.zeros(n, dtype=np.int64))


@pytest.mark.parametrize("fam,rk", [("B", 2), ("C", 3), ("G", 2)])
def test_reflection_relations_catch_weights_reflected_with_cochar_rows(fam, rk):
    """The pairing relation tells the two row choices apart one reflection at
    a time; w0 acts as minus the diagram involution on both bases, so theta
    alone cannot."""
    rd = datum(fam, rk)
    rows = lattice_rows(rd)
    rows["weights"] = rows["cochars"]
    basis = list(np.eye(rd.weight_dim, dtype=np.int64))
    assert ("pairing", 0) in reflection_faults(rd, rows, basis, basis)


def test_compound_type_smoke():
    rd = rdm.build_root_datum([("A", 1), ("A", 1)])
    assert rdm.dimension_profile(rd) == (6, 2, 4, 2, 2, 4)
    word, mw0 = rdm.longest_element(rd)
    assert mw0 == [0, 1]
    assert all(rdm.unique_root_certificate(rd, i) for i in range(2))
    # The control is non-unique across factors: both simple roots pair to 2.
    assert len(control_hits(rd)) == 2


def test_parallel_cocharacter_requires_central():
    rd = rdm.gl_datum(2)
    with pytest.raises(rdm.RootDatumError):
        rdm.parallel_cocharacter_check(
            rd, np.array([0, 0]), np.array([0, 0]), np.array([1, 0])
        )


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_parallel_cocharacter_symmetric(data):
    rd = rdm.gl_datum(2)
    mu1 = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=2, max_size=2)))
    mu2 = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=2, max_size=2)))
    c = data.draw(st.integers(-3, 3))
    omega = np.array([c, c])
    assert rdm.parallel_cocharacter_check(rd, mu1, mu2, omega) == \
        rdm.parallel_cocharacter_check(rd, mu2, mu1, omega)


def test_regular_semisimple():
    gl2 = rdm.gl_datum(2)
    t = rdm.TorusElement(gl2, 5, (2,))
    assert rdm.is_regular_semisimple(t)
    t1 = rdm.TorusElement(gl2, 5, (1,))
    assert not rdm.is_regular_semisimple(t1)
    # A2 over F7 with (2, 4): the root alpha1+alpha2 takes value 8 = 1.
    a2 = rdm.build_root_datum([("A", 2)])
    t2 = rdm.TorusElement(a2, 7, (2, 4))
    assert t2.root_value((1, 1)) == 1
    assert not rdm.is_regular_semisimple(t2)


def test_ramakrishna_root_set():
    gl2 = rdm.gl_datum(2)
    t = rdm.TorusElement(gl2, 5, (2,))
    hits, unique, alpha = rdm.ramakrishna_root_set(t, 3)
    assert unique and alpha == (1,)
    t4 = rdm.TorusElement(gl2, 5, (4,))
    hits, unique, alpha = rdm.ramakrishna_root_set(t4, 4)
    assert len(hits) == 2 and not unique
    t3 = rdm.TorusElement(gl2, 5, (3,))
    hits, unique, _ = rdm.ramakrishna_root_set(t3, 2)  # target 2^{-1} = 3: alpha only
    assert unique
    hits, unique, _ = rdm.ramakrishna_root_set(
        rdm.TorusElement(rdm.build_root_datum([("A", 2)]), 7, (2, 2)), 3
    )
    # 3^{-1} = 5 mod 7; root values are 2,2,4 and inverses 4,4,2: empty.
    assert hits == [] and not unique


def test_ramakrishna_rejects_degenerate_q():
    gl2 = rdm.gl_datum(2)
    t = rdm.TorusElement(gl2, 5, (2,))
    with pytest.raises(rdm.RootDatumError):
        rdm.ramakrishna_root_set(t, 6)  # q = 1 mod 5
    with pytest.raises(rdm.RootDatumError):
        rdm.ramakrishna_root_set(t, 5)


@pytest.mark.parametrize("fam,rk", TEST_TYPES)
def test_unique_root_certificate_exhaustive(fam, rk):
    rd = datum(fam, rk)
    for i in range(rd.rank_ss):
        assert rdm.unique_root_certificate(rd, i)


def control_hits(rd):
    """The roots that pair to 2 against 2 rho^vee, the control in place of the
    certificate's 4 rho^vee - alpha_i^vee: <beta, 2 rho^vee> = 2 ht(beta)."""
    return [beta for beta in rd.all_roots() if 2 * sum(beta) == 2]


@pytest.mark.parametrize("fam,rk", [t for t in TEST_TYPES if t[1] >= 2])
def test_control_certificate_fails_rank_ge_2(fam, rk):
    # Every simple root is a hit, so none is the unique one.
    assert len(control_hits(datum(fam, rk))) == rk


def test_control_certificate_a1():
    # Rank one: the one simple root is the unique hit.
    assert control_hits(datum("A", 1)) == [(1,)]


def test_very_good_prime():
    assert rdm.very_good_prime(datum("A", 1), 5)
    assert not rdm.very_good_prime(datum("A", 4), 5)
    assert not rdm.very_good_prime(datum("G", 2), 3)
    assert rdm.very_good_prime(datum("B", 2), 3)
    with pytest.raises(rdm.RootDatumError):
        rdm.very_good_prime(datum("A", 1), 4)


def borel_height_filtration(rd: rdm.RootDatum, r: int) -> int:
    """dim F^r b: all of b0 at r = 0, root spaces of height >= r after."""
    if r == 0:
        return rd.num_positive + rd.rank_ss
    return sum(1 for root in rd.positive_roots if rd.height(root) >= r)


def test_borel_height_filtration():
    a1 = datum("A", 1)
    assert borel_height_filtration(a1, 1) == 1
    assert borel_height_filtration(a1, 2) == 0
    a2 = datum("A", 2)
    assert borel_height_filtration(a2, 0) == 5
    assert borel_height_filtration(a2, 1) == 3
    assert borel_height_filtration(a2, 2) == 1
    b2 = datum("B", 2)
    assert borel_height_filtration(b2, 2) == 2
    dims = [borel_height_filtration(b2, r) for r in range(6)]
    assert dims == sorted(dims, reverse=True) and dims[-1] == 0


def test_torus_element_refusals():
    a2 = rdm.build_root_datum([("A", 2)])
    for p, values in ((9, (2, 4)), (7, (2, 14)), (7, (2,))):
        with pytest.raises(rdm.RootDatumError):
            rdm.TorusElement(a2, p, values)
    assert rdm.TorusElement(a2, 7, (-1, 13)).root_value((-1, -2)) == 6


def test_torus_value_multiplicativity():
    a2 = rdm.build_root_datum([("A", 2)])
    t = rdm.TorusElement(a2, 7, (3, 5))
    for root in a2.all_roots():
        neg = tuple(-c for c in root)
        assert t.root_value(root) * t.root_value(neg) % 7 == 1
    assert t.root_value((1, 1)) == 3 * 5 % 7
