import functools
import hashlib
import os
import random
import subprocess
import sys
import textwrap
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from galdesk import ffield as ff
from galdesk import scenarios
from galdesk import selmer as sl
from galdesk.errors import VerificationFailure
from span_oracle import intersect_spans
from test_ffield import ref_rank, ref_rref


# ---------------------------------------------------------------------------
# Oracles: degree-1 and degree-2 cohomology by the full bar differentials, no
# generator shortcut.  They read a Cayley table built here from the elements,
# independent of the enumeration's step table.  kn_h1_oracle solves for f(x)
# on every element x (k.n unknowns), and free_h1_oracle picks the H^1 basis
# bytes from its Z^1 by reference row reductions.  coind_h2_oracle shifts by
# the whole coinduced module, with no Sylow normaliser and no subgroup;
# bfs_oracle enumerates with one matrix product per (element, generator), and
# cocycles_oracle fills the cocycle system one element at a time.
# ---------------------------------------------------------------------------

def element_index(g: sl.FiniteGroupAction) -> dict:
    return {m.tobytes(): x for x, m in enumerate(g.elements)}


def cayley_table(g: sl.FiniteGroupAction) -> np.ndarray:
    k, index = g.order, element_index(g)
    mult = np.zeros((k, k), dtype=np.int64)
    for i, a in enumerate(g.elements):
        for j, b in enumerate(g.elements):
            mult[i, j] = index[ff.mat_mul(a, b, g.p).tobytes()]
    return mult


def bar_h1_oracle(g: sl.FiniteGroupAction) -> int:
    p, n, k = g.p, g.dim, g.order
    mult = cayley_table(g)
    rows = []
    for x in range(k):
        for y in range(k):
            xy = mult[x, y]
            block = ff.zeros((n, k * n))
            block[:, y * n : (y + 1) * n] += g.elements[x]
            block[:, xy * n : (xy + 1) * n] -= ff.eye(n)
            block[:, x * n : (x + 1) * n] += ff.eye(n)
            rows.append(block % p)
    z1 = ff.nullspace(np.vstack(rows) % p, p).shape[1] - n  # drop f(1) freedom
    # Unnormalized bar cocycles satisfy f(1) = f(1) + 1.f(1) - ... ; instead
    # count honestly: solutions with no normalization, coboundaries included.
    z1 = ff.nullspace(np.vstack(rows) % p, p).shape[1]
    cob = np.vstack([(g.elements[x] - ff.eye(n)) % p for x in range(k)])
    return z1 - ff.rank(cob, p)


def bar_h2_oracle(g: sl.FiniteGroupAction):
    """H^2 from the full bar differentials d1: C^1 -> C^2 and d2: C^2 -> C^3."""
    p, n, k = g.p, g.dim, g.order
    mult = cayley_table(g)
    # d2 f (x, y, z) = x.f(y,z) - f(xy,z) + f(x,yz) - f(x,y); unknowns f(x,y).
    unknowns = k * k * n

    def slot(x, y):
        return (x * k + y) * n

    # Batched row elimination: echelon basis accumulated over constraint chunks.
    echelon: list[np.ndarray] = []
    pivots: dict[int, int] = {}

    def reduce_row(row):
        row = row % p
        while True:
            nz = np.nonzero(row)[0]
            if nz.size == 0:
                return None
            lead = nz[0]
            if lead in pivots:
                row = (row - row[lead] * echelon[pivots[lead]]) % p
            else:
                row = row * pow(int(row[lead]), p - 2, p) % p
                pivots[lead] = len(echelon)
                echelon.append(row)
                return lead

    for x in range(k):
        for y in range(k):
            xy = mult[x, y]
            for z in range(k):
                yz = mult[y, z]
                xyz = mult[xy, z]
                for c in range(n):
                    row = np.zeros(unknowns, dtype=np.int64)
                    row[slot(y, z) : slot(y, z) + n] += g.elements[x][c]
                    row[slot(xy, z) + c] -= 1
                    row[slot(x, yz) + c] += 1
                    row[slot(x, y) + c] -= 1
                    reduce_row(row)
    rank_d2 = len(echelon)
    z2 = unknowns - rank_d2
    # b2 = rank of d1: C^1 -> C^2, f |-> x.f(y) - f(xy) + f(x).
    rows = []
    for x in range(k):
        for y in range(k):
            xy = mult[x, y]
            block = ff.zeros((n, k * n))
            block[:, y * n : (y + 1) * n] += g.elements[x]
            block[:, xy * n : (xy + 1) * n] -= ff.eye(n)
            block[:, x * n : (x + 1) * n] += ff.eye(n)
            rows.append(block % p)
    b2 = ff.rank(np.vstack(rows) % p, p)
    return z2 - b2, None


def kn_system(elements, step) -> np.ndarray:
    """The 1-cocycle equations in the unknowns f(x) for all x (k.n of them),
    where elements[x] is the matrix of x on M and step is the table of
    FiniteGroupAction: f(1) = 0 and the generator closure f(x s) = f(x) +
    x.f(s), one block of n rows per (s, x), written in place and unreduced."""
    k, r = step.shape
    n = elements[0].shape[0]
    one = ff.eye(n)
    system = ff.zeros((n + r * k * n, k * n))
    system[:n, :n] = one
    top = n
    for i in range(r):
        s = step[0, i]
        for x in range(k):
            xs = step[x, i]
            block = system[top : top + n]
            block[:, xs * n : (xs + 1) * n] += one
            block[:, x * n : (x + 1) * n] -= one
            block[:, s * n : (s + 1) * n] -= elements[x]
            top += n
    return system


def coboundaries(p: int, elements) -> np.ndarray:
    """B^1 in the coordinates (f(x))_x: the columns of the stacked x - 1."""
    one = ff.eye(len(elements[0]))
    return ff.column_space(np.vstack([(mat - one) % p for mat in elements]), p)


def kn_h1_oracle(p: int, elements, step):
    """(dim, basis) of H^1(G, M) as the quotient of the k.n-unknown Z^1 by B^1."""
    quotient = ff.QuotientSpace(ff.nullspace(kn_system(elements, step), p),
                                coboundaries(p, elements), p)
    return quotient.dim, quotient.reps


def ref_kernel(a, p: int):
    """(basis, free) of the right kernel of a: the basis is the identity at
    the free (non-pivot) columns of ref_rref(a) and -R at its pivots."""
    r, pivots = ref_rref(a, p)
    n = np.shape(a)[1]
    free = [j for j in range(n) if j not in pivots]
    basis = ff.zeros((n, len(free)))
    for c, j in enumerate(free):
        basis[j, c] = 1
        for row, i in zip(r, pivots):
            basis[i, c] = -row[j] % p
    return basis, free


def free_h1_oracle(g: sl.FiniteGroupAction):
    """(dim, basis) of H^1(G, M) in finite_cohomology's convention, with no
    generator-level system.  Z^1 is the k.n-unknown one, restricted to the
    rows u = (f(s_i))_i, where it stays one-to-one.  Its canonical kernel
    basis, the one every matrix with kernel Z^1 has, is read off the RREF of
    the annihilator of Z^1; the representatives are the greedy complement
    of the stacked s_i - 1 among its columns, by successive rank tests; and
    each is lifted to (f(x))_x along f(x s) = f(x) + x.f(s)."""
    p, n, k = g.p, g.dim, g.order
    rows = (g.step[0][:, None] * n + np.arange(n)).ravel()
    z1_u = ff.nullspace(kn_system(g.elements, g.step), p)[rows]
    z1 = ref_kernel(ref_kernel(z1_u.T, p)[0].T, p)[0]
    kept = np.vstack([ff.zeros((0, n)), *(m - ff.eye(n) for m in g.generators)]) % p
    reps = []
    for c in range(z1.shape[1]):
        grown = np.hstack([kept, z1[:, c : c + 1]])
        if len(ref_rref(grown, p)[1]) > len(ref_rref(kept, p)[1]):
            kept = grown
            reps.append(z1[:, c])
    lifted = []
    for u in reps:
        f = {0: ff.zeros(n)}
        for x in range(k):
            for i, y in enumerate(g.step[x].tolist()):
                if y not in f:
                    f[y] = (f[x] + g.elements[x] @ u[i * n : (i + 1) * n]) % p
        lifted.append(np.concatenate([f[x] for x in range(k)]))
    return len(reps), np.column_stack(lifted) if lifted else ff.zeros((k * n, 0))


def tree_parents(g: sl.FiniteGroupAction) -> list:
    """The BFS tree as bfs_oracle gives it: parent[y] = (x, i), None at y = 0."""
    return [None, *zip(*(a.tolist() for a in g.tree))]


def cocycles_oracle(p: int, elements, step, parent):
    """(system, F) of `_cocycles`, one element at a time: F[y] = F[x] + x.E_i
    along the parent pointers, in BFS order, and the rows F[step[x, i]] -
    F[x] - x.E_i of each edge (x, i) off the tree, in the order of (x, i)."""
    k, r = step.shape
    n = len(elements[0])
    f = ff.zeros((k, r, n, n))
    for y in range(1, k):
        x, i = parent[y]
        f[y] = f[x]
        f[y, i] = (f[y, i] + elements[x]) % p
    rows = []
    for x in range(k):
        for i in range(r):
            if parent[step[x, i]] != (x, i):
                edge = f[step[x, i]] - f[x]
                edge[i] -= elements[x]
                rows.append(np.hstack(list(edge)))
    return np.vstack([ff.zeros((0, r * n)), *rows]), f


def coinduced_quotient(g: sl.FiniteGroupAction):
    """(generators, elements): the matrices of G on CoInd(M)/M for CoInd(M)
    = Maps(G, M), (s.f)(x) = f(x s), its quotient taken by QuotientSpace;
    the elements in BFS order, one at a time along the parent pointers."""
    p, n, (k, r) = g.p, g.dim, g.step.shape
    quotient = ff.QuotientSpace(ff.eye(k * n), np.vstack(g.elements), p)
    # s_i acts on Maps(G, M) by the block permutation f -> (f(x s_i))_x,
    # which moves the rows of block step[x, i] to block x.
    rows = g.step[:, :, None] * n + np.arange(n)
    q_gens = [quotient.coords_matrix(quotient.reps[rows[:, i].ravel()]) for i in range(r)]
    q_elements = [ff.eye(n * (k - 1))]
    for x, i in tree_parents(g)[1:]:
        q_elements.append(q_elements[x] @ q_gens[i] % p)
    return q_gens, q_elements


def coind_h2_oracle(g: sl.FiniteGroupAction) -> int:
    """dim H^2(G, M) = dim H^1(G, CoInd(M)/M) for CoInd(M) = Maps(G, M),
    with no subgroup: the shift by a module of dimension n(k - 1)."""
    q_gens, q_elements = coinduced_quotient(g)
    dim_q = len(q_elements[0])
    moved = np.vstack([ff.zeros((0, dim_q))] + [(q - ff.eye(dim_q)) % g.p for q in q_gens])
    system = cocycles_oracle(g.p, q_elements, g.step, tree_parents(g))[0]
    return ff.nullspace(system, g.p).shape[1] - ff.rank(moved, g.p)


def bfs_oracle(p: int, generators, order_bound: int = 100_000):
    """(elements, index, step, parent) by one matrix product per (element,
    generator), in the breadth-first order FiniteGroupAction promises."""
    gens = [ff.normalize(g, p) for g in generators]
    ident = ff.eye(len(gens[0]))
    elements, index, step, parent = [ident], {ident.tobytes(): 0}, [], [None]
    for x, m in enumerate(elements):
        row = []
        for i, g in enumerate(gens):
            prod = ff.mat_mul(m, g, p)
            key = prod.tobytes()
            if key not in index:
                index[key] = len(elements)
                elements.append(prod)
                parent.append((x, i))
                if len(elements) > order_bound:
                    raise sl.SelmerError("enumeration overflow beyond the order bound")
            row.append(index[key])
        step.append(row)
    return elements, index, np.array(step, dtype=np.int64), parent


def cyclic_h_oracle(order: int, mat, p: int):
    """Closed forms for cyclic groups: H^0 = ker(s-1), H^1 = ker(N)/im(s-1),
    H^2 = ker(s-1)/im(N)."""
    n = len(mat)
    s = ff.normalize(mat, p)
    norm = ff.zeros((n, n))
    power = ff.eye(n)
    for _ in range(order):
        norm = (norm + power) % p
        power = ff.mat_mul(power, s, p)
    h0 = ff.nullspace((s - ff.eye(n)) % p, p).shape[1]
    h1 = ff.nullspace(norm, p).shape[1] - ff.rank((s - ff.eye(n)) % p, p)
    h2 = h0 - ff.rank(norm, p)
    return h0, h1, h2


def cyclic_action(order: int, mat, p: int) -> sl.FiniteGroupAction:
    return sl.FiniteGroupAction(p, [ff.normalize(mat, p)])


# ---------------------------------------------------------------------------
# Finite group cohomology
# ---------------------------------------------------------------------------

def test_trivial_group():
    g = sl.FiniteGroupAction(5, [ff.eye(3)])
    assert g.order == 1
    assert sl.finite_cohomology(g, 0)[0] == 3
    assert sl.finite_cohomology(g, 1)[0] == 0
    assert sl.finite_cohomology(g, 2)[0] == 0


def test_z2_acting_by_minus_one():
    g = sl.FiniteGroupAction(5, [(-1) * ff.eye(1) % 5])
    assert g.order == 2
    assert sl.finite_cohomology(g, 0)[0] == 0
    assert sl.finite_cohomology(g, 1)[0] == 0
    assert sl.finite_cohomology(g, 2)[0] == 0


def test_zp_acting_trivially():
    # Z/5 on F_5: order not invertible, H^1 = Hom(Z/5, F_5) = F_5.
    p = 5
    shift = np.roll(ff.eye(p), 1, axis=0)  # permutation of order 5... on F_5^5
    g = sl.FiniteGroupAction(p, [shift])
    assert g.order == 5
    h0 = sl.finite_cohomology(g, 0)[0]
    h1 = sl.finite_cohomology(g, 1)[0]
    h2 = sl.finite_cohomology(g, 2)[0]
    o0, o1, o2 = cyclic_h_oracle(5, shift, p)
    assert (h0, h1, h2) == (o0, o1, o2)


def test_cyclic_oracle_agreement(monkeypatch):
    monkeypatch.setattr(sl, "MAX_ORDER", 200)
    rng = random.Random(31)
    for _ in range(12):
        p = rng.choice([5, 7])
        n = rng.randrange(1, 4)
        while True:
            mat = ff.random_invertible(rng, n, p)[0]
            g = sl.FiniteGroupAction(p, [mat])
            try:
                order = g.order
            except sl.SelmerError:
                continue
            if order <= 20:
                break
        o = cyclic_h_oracle(g.order, mat, p)
        assert sl.finite_cohomology(g, 0)[0] == o[0]
        assert sl.finite_cohomology(g, 1)[0] == o[1]
        if g.order ** 2 <= 500:
            assert sl.finite_cohomology(g, 2)[0] == o[2]


def test_nonabelian_h1_oracle():
    # S3 acting by permutation matrices on F_7^3.
    p = 7
    s = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=np.int64)
    c = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=np.int64)
    g = sl.FiniteGroupAction(p, [s, c])
    assert g.order == 6
    assert sl.finite_cohomology(g, 1)[0] == bar_h1_oracle(g)
    assert sl.finite_cohomology(g, 0)[0] == 1  # the all-ones line
    # Order prime to p: higher cohomology vanishes.
    assert sl.finite_cohomology(g, 1)[0] == 0
    assert sl.finite_cohomology(g, 2)[0] == 0


def sl2_adjoint_action(p: int) -> sl.FiniteGroupAction:
    """SL2(F_p) acting on sl2(F_p) by conjugation, via its image group."""
    e = np.array([[1, 1], [0, 1]], dtype=np.int64)
    f = np.array([[1, 0], [1, 1]], dtype=np.int64)
    basis = [np.array([[1, 0], [0, -1]]), np.array([[0, 1], [0, 0]]),
             np.array([[0, 0], [1, 0]])]

    def adjoint(m):
        minv = ff.inv(m, p)
        cols = []
        for b in basis:
            conj = ff.mat_mul(ff.mat_mul(m, b % p, p), minv, p)
            cols.append(np.array([conj[0, 0] % p, conj[0, 1] % p, conj[1, 0] % p],
                                 dtype=np.int64))
        return np.column_stack(cols)

    return sl.FiniteGroupAction(p, [adjoint(e), adjoint(f)])


def test_sl2_adjoint_h1():
    # The adjoint action factors through the center, so the enumerated image
    # group has order |SL2|/2; H^1 is unchanged since the kernel has order
    # prime to p.  p = 5 is the classical exceptional case with a
    # one-dimensional H^1; it disappears at p = 7, matching the large-image
    # prime bounds which exclude p = 5 for rank one.
    g5 = sl2_adjoint_action(5)
    assert g5.order == 60
    assert sl.finite_cohomology(g5, 1)[0] == 1 == bar_h1_oracle(g5)
    g7 = sl2_adjoint_action(7)
    assert g7.order == 168
    assert sl.finite_cohomology(g7, 1)[0] == 0
    # Its Sylow normaliser, the Borel subgroup of order 21, has the same H^1
    # (the coinduced oracle does not reach H^2 at order 168).
    n7 = normaliser_oracle(g7)
    assert n7.order == 21 and sl.finite_cohomology(n7, 1)[0] == 0


def test_enumeration_overflow_guard(monkeypatch):
    big = np.array([[1, 1], [0, 1]], dtype=np.int64)
    gens = sl2_adjoint_action(5).generators
    monkeypatch.setattr(sl, "MAX_ORDER", 20)
    with pytest.raises(sl.SelmerError):
        sl.FiniteGroupAction(13, [big, big.T])
    # The bound is the largest order allowed, in batches as one by one.
    monkeypatch.setattr(sl, "MAX_ORDER", 60)
    assert sl.FiniteGroupAction(5, gens).order == 60
    monkeypatch.setattr(sl, "MAX_ORDER", 59)
    with pytest.raises(sl.SelmerError, match="order bound"):
        sl.FiniteGroupAction(5, gens)
    with pytest.raises(sl.SelmerError, match="order bound"):
        bfs_oracle(5, gens, order_bound=59)


def test_element_cells_are_bounded_as_they_are_enumerated(monkeypatch):
    # The adjoint action of SL2(F_5) has 60 elements on F_5^3: 540 cells.
    gens = sl2_adjoint_action(5).generators
    monkeypatch.setattr(sl, "_CELL_BUDGET", 540)
    assert sl.FiniteGroupAction(5, gens).order == 60
    monkeypatch.setattr(sl, "_CELL_BUDGET", 539)
    with pytest.raises(sl.SelmerError, match="^the enumeration exceeds its cell budget$"):
        sl.FiniteGroupAction(5, gens)


def test_refused_enumeration_holds_each_element_once():
    """diag(3, 1, ..., 1) over F_65537 has order 65536 on F^40, 1600 cells an
    element, so the cell budget refuses it at element 6251, with 80 MB of
    elements.  Kept once, as the keys of the index, they leave the child's
    peak RSS below 140 MB; kept twice, it was about 185 MB.  The peak is the
    child's VmHWM: ru_maxrss is carried across fork and exec, so it reads the
    parent's peak whenever that is the larger."""
    code = textwrap.dedent("""
        import numpy as np
        from galdesk import selmer as sl
        gen = np.eye(40, dtype=np.int64)
        gen[0, 0] = 3
        try:
            sl.FiniteGroupAction(65537, [gen])
        except sl.SelmerError as err:
            print(err)
        with open("/proc/self/status") as status:
            print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(sl.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    message, peak_kb = done.stdout.splitlines()
    assert message == "the enumeration exceeds its cell budget"
    assert int(peak_kb) < 140 * 1024


def test_degree_one_cells_are_bounded_before_the_cocycles_are_built(monkeypatch):
    # k.r.n x r.n = 60.2.3 x 2.3 = 2160 cells for the adjoint SL2(F_5).
    g = sl2_adjoint_action(5)
    monkeypatch.setattr(sl, "_CELL_BUDGET", 2160)
    assert sl.finite_cohomology(g, 1)[0] == 1
    monkeypatch.setattr(sl, "_CELL_BUDGET", 2159)
    monkeypatch.setattr(sl, "_cocycles", None)  # never built
    with pytest.raises(sl.SelmerError, match="^the degree-1 cocycle system exceeds its cell budget$"):
        sl.finite_cohomology(g, 1)


def conjugated_three_cycle(seed: int, p: int) -> np.ndarray:
    """g P g^-1 for the 3-cycle permutation matrix P and a random g, formed
    in Python ints, so its order is exactly 3."""
    g, gi = ff.random_invertible(random.Random(seed), 3, p)
    perm = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    g, gi = g.tolist(), gi.tolist()
    gp = [[sum(g[i][k] * perm[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    return np.array([[sum(gp[i][k] * gi[k][j] for k in range(3)) % p for j in range(3)]
                     for i in range(3)], dtype=np.int64)


@pytest.mark.parametrize("seed", [15, 28])
def test_group_order_is_exact_or_refused_near_the_int64_bound(seed):
    """At p = 2^31 - 1 a sum of three products of residues passes 2^63, and
    the enumeration used to wrap: orders 6 and 5 for these seeds.  Such a p
    is refused; at p = 10^9 + 7 the sums fit and the order is 3."""
    with pytest.raises(sl.SelmerError) as err:
        sl.FiniteGroupAction(2**31 - 1, [conjugated_three_cycle(seed, 2**31 - 1)])
    assert str(err.value) == "p is too large: n*p^2 must be below 2^63 at dimension n = 3"
    assert sl.FiniteGroupAction(10**9 + 7, [conjugated_three_cycle(seed, 10**9 + 7)]).order == 3


def test_order_bound_refuses_one_more_element():
    # 4 = 2^2 has order (200003 - 1) / 2 = 100001 in F_200003^*, one over MAX_ORDER.
    with pytest.raises(sl.SelmerError, match="order bound"):
        sl.FiniteGroupAction(200_003, [np.array([[4]])])


@pytest.mark.parametrize("p, n, order", [(7, 10, 49), (3, 24, 27)])
def test_h2_cell_budget_refuses_before_the_subgroup_search(monkeypatch, p, n, order):
    """A Jordan block of size n, p < n <= p^2 or p^2 < n <= p^3, generates a
    cyclic group of order p^2 or p^3 on F_p^n.  Its shifted degree-2 system
    has at least k (n (k - 1))^2 cells for k = |G|: 11,289,600 and 10,513,152
    here, just over 10^7.  At p = 3, 27 (n (27 - 2))^2 is under 10^7, so the
    early bound must count k - 1 coset blocks.  It refuses before the
    multiplier table is built."""
    jordan = ff.eye(n) + np.eye(n, k=1, dtype=np.int64)
    g = sl.FiniteGroupAction(p, [jordan])
    assert g.order == order
    monkeypatch.setattr(sl, "_multiplier", lambda *args: pytest.fail("tabled"))
    monkeypatch.setattr(sl, "_p_prime_subgroup", lambda *args: pytest.fail("searched"))
    with pytest.raises(sl.SelmerError, match="^the shifted degree-2 system exceeds its cell budget$"):
        sl.finite_cohomology(g, 2)


@pytest.mark.parametrize("p, n", [(37, 15), (29, 21), (2003, 2), (10007, 2)])
def test_h2_of_a_jordan_block_shorter_than_p(p, n):
    """A Jordan block J of size n < p generates C_p on F_p^n, and its norm
    N = (J - 1)^(p - 1) is 0, so H^2 = M^G / N M = M^G, of dimension 1.  A
    shift to a coinduced module is over the cell budget at the first two,
    and a multiplier table of the group takes seconds at the last two, so
    the answer must come with neither."""
    jordan = ff.eye(n) + np.eye(n, k=1, dtype=np.int64)
    g = sl.FiniteGroupAction(p, [jordan])
    assert g.order == p
    assert sl.finite_cohomology(g, 2) == (1, None)
    assert sl.finite_cohomology(g, 0)[0] == 1 == cyclic_h_oracle(p, jordan, p)[2]


@pytest.mark.parametrize("p", [2003, 10007])
def test_h1_of_the_cyclic_group_of_j2(p):
    """J2 generates C_p on F_p^2 with norm N = 0, so H^1 = ker N / (J2 - 1)M
    has dimension 1.  The BFS tree is one path, p - 1 deep, and the lifted
    cocycle satisfies f(x s) = f(x) + x.f(s) on every element."""
    g = sl.FiniteGroupAction(p, [np.array(J2)])
    assert g.order == p
    dim, basis = sl.finite_cohomology(g, 1)
    assert dim == 1 == cyclic_h_oracle(p, J2, p)[1]
    f = basis.reshape(p, 2)
    assert f[0].tolist() == [0, 0] and f.any()
    assert np.array_equal(f[g.step[:, 0]], (f + g.elements @ f[g.step[0, 0]]) % p)


@pytest.mark.parametrize("n, h2", [(3, 1), (13, 0)])
def test_h2_of_a_jordan_block_under_a_deep_cyclic_group(n, h2):
    """C_13 generated by a Jordan block of size n in a random basis: H^2 =
    M^G / N M for the norm N = (J - 1)^12, which is zero for n < 13 and has
    rank 1 at n = 13.  The BFS tree is 12 deep, and products along it that
    are not reduced as they are formed overflow int64."""
    g, gi = ff.random_invertible(random.Random(n), n, 13)
    jordan = ff.mat_mul(g @ (ff.eye(n) + np.eye(n, k=1, dtype=np.int64)), gi, 13)
    assert sl.finite_cohomology(sl.FiniteGroupAction(13, [jordan]), 2)[0] == h2


def test_h2_of_a_jordan_block_under_a_deep_p_squared_cyclic_group():
    """C_25 generated by a Jordan block of size 6 over F_5 in a random basis:
    p^2 divides the order, so H^2 is degree 1 of the shifted module, of
    dimension 6 * 24.  The norm (J - 1)^24 is zero, so H^2 = M^G, of
    dimension 1.  The BFS tree is 24 deep, and the shifted module's elements
    overflow int64 unless each product is reduced as it is formed."""
    g, gi = ff.random_invertible(random.Random(6), 6, 5)
    jordan = ff.mat_mul(g @ (ff.eye(6) + np.eye(6, k=1, dtype=np.int64)), gi, 5)
    group = sl.FiniteGroupAction(5, [jordan])
    assert group.order == 25
    assert sl.finite_cohomology(group, 2) == (1, None)
    assert cyclic_h_oracle(25, jordan, 5)[2] == 1


def test_group_action_without_generators_is_the_trivial_group_on_zero():
    g = sl.FiniteGroupAction(5, [])
    assert (g.order, g.dim) == (1, 0)


def test_group_action_refuses_singular_or_mis_sized_generators():
    for gens in ([np.array([[1, 2], [2, 4]])], [ff.eye(2), ff.eye(3)]):
        with pytest.raises(sl.SelmerError, match="generators must be invertible and same-sized"):
            sl.FiniteGroupAction(5, gens)


def test_group_action_refuses_a_p_that_is_not_an_odd_prime():
    for p in (1, 2, 6, 25):
        with pytest.raises(sl.SelmerError, match="^p must be an odd prime$"):
            sl.FiniteGroupAction(p, [ff.eye(2)])


def diag_blocks(*blocks):
    n = sum(len(b) for b in blocks)
    out = ff.zeros((n, n))
    pos = 0
    for b in blocks:
        out[pos : pos + len(b), pos : pos + len(b)] = b
        pos += len(b)
    return out


J2 = [[1, 1], [0, 1]]
SWAP = [[0, 1], [1, 0]]
S3_GENS = [[[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]]]

# (p, generators) of order <= 12: cyclic, dihedral over F_3 and prime to p
# over F_7, the Borel subgroup of GL2(F_3), S3 permuting coordinates, and
# cyclic groups with and without p in their order, and (Z/3)^2.
SMALL_GROUPS = {
    "cyclic-5": (5, [J2]),
    "cyclic-6-dim-3": (3, [diag_blocks(J2, [[2]])]),
    "dihedral-6-mod-3": (3, [J2, diag_blocks([[2]], [[1]])]),
    "dihedral-6-mod-7": (7, [diag_blocks([[2]], [[4]]), SWAP]),
    "borel-12-mod-3": (3, [J2, diag_blocks([[2]], [[1]]), diag_blocks([[1]], [[2]])]),
    "s3-mod-3": (3, S3_GENS),
    "s3-mod-7": (7, S3_GENS),
    "cyclic-4-mod-5": (5, [[[2]]]),
    "cyclic-3-jordan-mod-3": (3, [[[1, 1, 0], [0, 1, 1], [0, 0, 1]]]),
    "cyclic-10-dim-3": (5, [diag_blocks(J2, [[4]])]),
    "cyclic-3-with-trivial-summand": (3, [diag_blocks(J2, [[1]])]),
    "elementary-9-mod-3": (3, [diag_blocks(J2, ff.eye(2)), diag_blocks(ff.eye(2), J2)]),
}


def small_group(name) -> sl.FiniteGroupAction:
    p, gens = SMALL_GROUPS[name]
    return sl.FiniteGroupAction(p, [np.array(m, dtype=np.int64) for m in gens])


@pytest.mark.parametrize("name", sorted(SMALL_GROUPS))
def test_h2_matches_bar_oracle(name):
    g = small_group(name)
    assert g.order <= 12
    dim, basis = sl.finite_cohomology(g, 2)
    assert basis is None
    assert dim == bar_h2_oracle(g)[0] == coind_h2_oracle(g)


def test_h2_affine_group_of_f5():
    # [[a, b], [0, 1]] in the Borel subgroup of GL2(F_5), order 20, on F_5^2.
    g = sl.FiniteGroupAction(5, [np.array([[2, 0], [0, 1]]), np.array(J2)])
    assert g.order == 20
    assert sl.finite_cohomology(g, 2)[0] == 1 == coind_h2_oracle(g)


def permutation_matrix(perm):
    out = ff.zeros((len(perm), len(perm)))
    out[perm, np.arange(len(perm))] = 1
    return out


# Groups where p exactly divides the order, beyond SMALL_GROUPS: the
# Sylow normaliser is the Borel subgroup (order 20, normal Sylow), of order
# 10 in the adjoint PSL2(F_5), P itself in A4 and S3 in S4 (permuting
# coordinates of F_3^4).
NORMALISER_GROUPS = {
    "affine-20-mod-5": lambda: sl.FiniteGroupAction(5, [np.array([[2, 0], [0, 1]]),
                                                        np.array(J2)]),
    "adjoint-psl2-f5": lambda: sl2_adjoint_action(5),
    "a4-mod-3": lambda: sl.FiniteGroupAction(3, [permutation_matrix([1, 2, 0, 3]),
                                                 permutation_matrix([1, 0, 3, 2])]),
    "s4-mod-3": lambda: sl.FiniteGroupAction(3, [permutation_matrix([1, 2, 3, 0]),
                                                 permutation_matrix([1, 0, 2, 3])]),
    **{name: partial(small_group, name) for name, (p, _) in SMALL_GROUPS.items()
       if sl._p_part(small_group(name).order, p) == p},
}


@functools.lru_cache(maxsize=None)
def normaliser_case(name):
    """(G, N_G(P), dim H^2(G) by the coinduced oracle)."""
    g = NORMALISER_GROUPS[name]()
    return g, normaliser_oracle(g), coind_h2_oracle(g)


def conjugation_exponents(g: sl.FiniteGroupAction, x) -> list:
    """For each element y, the a in 1..p-1 with y^-1 x y = x^a, or 0 when
    y^-1 x y is not a power of x, by matrix products one element at a time."""
    p, powers = g.p, [ff.eye(g.dim)]
    for _ in range(p - 1):
        powers.append(ff.mat_mul(powers[-1], x, p))
    exponent = {m.tobytes(): a for a, m in enumerate(powers) if a}
    return [exponent.get(ff.mat_mul(ff.mat_mul(ff.inv(m, p), x, p), m, p).tobytes(), 0)
            for m in g.elements]


def normaliser_oracle(g: sl.FiniteGroupAction) -> sl.FiniteGroupAction:
    """N_G(P) for P generated by the first element x of order p: the y with
    y^-1 x y in P, generated greedily in BFS order."""
    x = elements_of_order_p(g.elements, g.p)[0]
    gens, members = [], {ff.eye(g.dim).tobytes()}
    for m, a in zip(g.elements, conjugation_exponents(g, x)):
        if a and m.tobytes() not in members:
            gens.append(m)
            members = set(element_index(sl.FiniteGroupAction(g.p, gens)))
    return sl.FiniteGroupAction(g.p, gens)


def elements_of_order_p(elements, p):
    def power(m):
        out = ff.eye(len(m))
        for _ in range(p):
            out = ff.mat_mul(out, m, p)
        return out
    one = ff.eye(len(elements[0])).tobytes()
    return [m for m in elements if m.tobytes() != one and power(m).tobytes() == one]


@pytest.mark.parametrize("name", ["affine-20-mod-5", "adjoint-psl2-f5", "a4-mod-3",
                                  "s4-mod-3"])
def test_h2_matches_coinduced_oracle(name):
    g, _, want = normaliser_case(name)
    assert sl.finite_cohomology(g, 2) == (want, None)


@pytest.mark.parametrize("name", sorted(NORMALISER_GROUPS))
def test_sylow_normaliser(name):
    # N is a subgroup of G with a normal subgroup P of order p (the only p - 1
    # elements of order p in N), and |N| = |N_G(P)| by conjugating matrices,
    # so N = N_G(P).  Its H^1 and H^2 are those of G.
    g, n, h2 = normaliser_case(name)
    p = g.p
    assert sl._p_part(g.order, p) == p
    assert all(m.tobytes() in element_index(g) for m in n.elements)
    sylow = elements_of_order_p(n.elements, p)
    assert len(sylow) == p - 1
    keys = {m.tobytes() for m in sylow}
    x = sylow[0]
    assert n.order == sum(ff.mat_mul(ff.mat_mul(m, x, p), ff.inv(m, p), p).tobytes() in keys
                          for m in g.elements)
    assert sl.finite_cohomology(n, 1)[0] == sl.finite_cohomology(g, 1)[0]
    assert coind_h2_oracle(n) == h2


@pytest.mark.parametrize("name", sorted(NORMALISER_GROUPS))
def test_sylow_twists_match_conjugation_by_matrix_products(name):
    """The degree-2 route's x has order p, its powers are those of x, and
    its b_y, nonzero exactly on N_G(P), are the exponents of y^-1 x y."""
    g, n, _ = normaliser_case(name)
    x, powers, b = sl._sylow_twists(g)
    assert x.tobytes() in {m.tobytes() for m in elements_of_order_p(g.elements, g.p)}
    assert len(powers) == g.p
    assert all(ff.mat_mul(a, x, g.p).tobytes() == c.tobytes() for a, c in zip(powers, powers[1:]))
    assert b.tolist() == conjugation_exponents(g, x)
    assert np.count_nonzero(b) == n.order


def test_sylow_twists_under_a_deep_tree():
    """The affine group of F_23, generated by diag(17, 1) and then J2, has
    order 506.  17 generates F_23^*, so d = diag(17, 1) comes first in BFS
    order with d^22 = 1, and d^j lies 21 tree steps deep.  d^16 and d^-15 =
    diag(19^15, 1) both pass 2^63 unless each product is reduced as it is
    formed: the route must find x = J2's powers and b_y as the matrix
    products do.  H^2 = 1 as for F_5: M^P = <e1> and N_x = 0, and b_d d fixes
    e1."""
    g = sl.FiniteGroupAction(23, [np.array([[17, 0], [0, 1]]), np.array(J2)])
    assert g.order == 506
    x, powers, b = sl._sylow_twists(g)
    assert x.tobytes() in {m.tobytes() for m in elements_of_order_p(g.elements, 23)}
    assert all(ff.mat_mul(a, x, 23).tobytes() == c.tobytes() for a, c in zip(powers, powers[1:]))
    assert b.tolist() == conjugation_exponents(g, x)
    assert np.count_nonzero(b) == 506  # P = <J2> is normal
    assert sl.finite_cohomology(g, 2) == (1, None)


@pytest.mark.parametrize("make", [NORMALISER_GROUPS["affine-20-mod-5"],
                                  partial(sl2_adjoint_action, 7)])
def test_h2_fails_with_the_inverse_twist(monkeypatch, make):
    """y in N_G(P) acts on M^P / N_x M by m -> b_y y.m.  With b_y^-1 in place
    of b_y, H^2 of these groups comes out 0, not the 1 that
    test_h2_affine_group_of_f5 and test_adjoint_psl2_h2_within_sylow_bound
    assert."""
    g = make()
    assert sl.finite_cohomology(g, 2) == (1, None)
    twists = sl._sylow_twists

    def inverted(g):
        x, powers, b = twists(g)
        return x, powers, np.array([pow(int(a), -1, g.p) if a else 0 for a in b])

    monkeypatch.setattr(sl, "_sylow_twists", inverted)
    assert sl.finite_cohomology(g, 2) == (0, None)


# Beside SMALL_GROUPS and the adjoint PSL2(F_p), the cyclic group of J2 over
# F_101: its BFS tree is one path, 100 deep, so the cocycles' path sums take
# 7 doubling rounds.
ENUMERATED = {**{name: partial(small_group, name) for name in SMALL_GROUPS},
              **{f"adjoint-psl2-f{p}": partial(sl2_adjoint_action, p) for p in (5, 7, 11)},
              "cyclic-101-j2": lambda: sl.FiniteGroupAction(101, [np.array(J2)])}


@pytest.mark.parametrize("name", sorted(ENUMERATED))
def test_enumeration_matches_per_element_oracle(name):
    g = ENUMERATED[name]()
    elements, index, step, parent = bfs_oracle(g.p, g.generators)
    assert isinstance(g.elements, np.ndarray) and g.elements.dtype == np.int64
    assert g.elements.shape == (len(elements), g.dim, g.dim)
    assert g.elements.flags.c_contiguous and not g.elements.flags.writeable
    assert g.elements.tobytes() == b"".join(m.tobytes() for m in elements)
    assert element_index(g) == index
    assert g.step.dtype == step.dtype and np.array_equal(g.step, step)
    assert all(a.dtype == np.int64 and a.shape == (g.order - 1,) for a in g.tree)
    assert tree_parents(g) == parent


@pytest.mark.parametrize("name", sorted(ENUMERATED))
def test_cocycles_match_per_element_oracle(name):
    g = ENUMERATED[name]()
    got = sl._cocycles(g.p, g.elements, g.step, g.tree)
    want = cocycles_oracle(g.p, g.elements, g.step, tree_parents(g))
    assert [(a.dtype, a.shape) for a in got] == [(a.dtype, a.shape) for a in want]
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_cocycles_of_a_coinduced_module_match_per_element_oracle():
    # The affine group of F_5 of order 20 on CoInd(F_5^2)/F_5^2, of dimension 38.
    g = NORMALISER_GROUPS["affine-20-mod-5"]()
    q_elements = coinduced_quotient(g)[1]
    got = sl._cocycles(g.p, np.array(q_elements), g.step, g.tree)
    want = cocycles_oracle(g.p, q_elements, g.step, tree_parents(g))
    # 20 x 2 edges, of which 19 are on the tree.
    assert got[0].shape == ((40 - 19) * 38, 2 * 38)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


@pytest.mark.parametrize("g", [sl2_adjoint_action(5), small_group("borel-12-mod-3")])
def test_step_table_and_parents(g):
    k, r = g.step.shape
    assert (k, r) == (g.order, len(g.generators))
    for x in range(k):
        for i in range(r):
            assert np.array_equal(g.elements[g.step[x, i]],
                                  ff.mat_mul(g.elements[x], g.generators[i], g.p))
    tree_x = g.tree[0]
    assert np.all(tree_x < np.arange(1, k)) and np.array_equal(g.step[g.tree], np.arange(1, k))
    assert np.all(np.diff(tree_x) >= 0)


@pytest.mark.parametrize("g", [small_group(name) for name in sorted(SMALL_GROUPS)]
                         + [sl2_adjoint_action(5), sl2_adjoint_action(7),
                            # An identity generator, whose f(s) = f(1) is 0, and a
                            # repeated one, two generators on one row block.
                            sl.FiniteGroupAction(3, [ff.eye(2), np.array(J2)]),
                            sl.FiniteGroupAction(7, [np.array(SWAP), diag_blocks([[2]], [[4]]),
                                                     np.array(SWAP)])])
def test_h1_basis_matches_kn_oracle(g):
    dim, basis = sl.finite_cohomology(g, 1)
    want_dim, want_basis = free_h1_oracle(g)
    assert dim == want_dim
    assert basis.dtype == want_basis.dtype and basis.tobytes() == want_basis.tobytes()
    # The classes of the k.n-unknown quotient: with B^1, the two bases span alike.
    kn_dim, kn_basis = kn_h1_oracle(g.p, g.elements, g.step)
    b1 = coboundaries(g.p, g.elements)
    spans = [ff.rank(np.hstack([b1, *bases]), g.p)
             for bases in ([basis], [kn_basis], [basis, kn_basis])]
    assert kn_dim == dim and spans == [b1.shape[1] + dim] * 3


# Invariance relations: a group is the same group under any generating set
# and any basis of M, so its order and the dimensions of H^0, H^1 and H^2
# cannot move.  They need no oracle, and they move the BFS order, so the
# Schreier relators, the free columns of H^1 and the P and H that H^2 picks.
# The four groups run the three degree-2 routes: p exactly divides the order
# of the adjoint PSL2(F_5) and PSL2(F_7) (a normaliser N_G(P) != G), not
# that of S3 over F_7, and 27 = 3^3 is that of the unitriangular matrices.
UNITRIANGULAR = [ff.eye(3) + np.eye(3, k=1, dtype=np.int64) * np.array([[1], [0], [0]]),
                 ff.eye(3) + np.eye(3, k=1, dtype=np.int64) * np.array([[0], [1], [0]])]
INVARIANCE_GROUPS = {"adjoint-psl2-f5": lambda: sl2_adjoint_action(5),
                     "adjoint-psl2-f7": lambda: sl2_adjoint_action(7),
                     "s3-mod-7": partial(small_group, "s3-mod-7"),
                     "unitriangular-27-mod-3": lambda: sl.FiniteGroupAction(3, UNITRIANGULAR)}


def group_invariants(p, gens):
    g = sl.FiniteGroupAction(p, gens)
    return g.order, [sl.finite_cohomology(g, d)[0] for d in (0, 1, 2)]


@pytest.mark.parametrize("name", sorted(INVARIANCE_GROUPS))
def test_group_cohomology_is_invariant_under_generators_and_basis(name):
    g = INVARIANCE_GROUPS[name]()
    p, gens = g.p, g.generators
    rng = random.Random(name)
    i, j = rng.sample(range(len(gens)), 2)
    product = gens[i] @ gens[j] % p
    c, ci = ff.random_invertible(rng, g.dim, p)
    generating_sets = {
        "reordered": gens[::-1],
        "redundant": [*gens, product],
        "replaced": [product if x == i else m for x, m in enumerate(gens)],
        "conjugated": [c @ m @ ci % p for m in gens],
    }
    got = {key: group_invariants(p, new) for key, new in generating_sets.items()}
    assert got == dict.fromkeys(generating_sets, group_invariants(p, gens))


def sylow_bound(g):
    """(H^0, H^1, H^2) of the Sylow p-subgroup P generated by the image of
    [[1, 1], [0, 1]], cyclic of order p, where H^1 = ker N / (u - 1)M and
    H^2 = M^P / N M.  Restriction to P is injective on H^n (its index is
    prime to p), so dim H^n(G, ad) <= dim H^n(P, ad)."""
    u = g.generators[0]
    assert sl.FiniteGroupAction(g.p, [u]).order == g.p
    return cyclic_h_oracle(g.p, u, g.p)


def test_adjoint_psl2_f5_within_sylow_bound():
    g = sl2_adjoint_action(5)
    assert g.order == 60 and g.order % 25
    _, sylow_h1, sylow_h2 = sylow_bound(g)
    assert sylow_h1 == sylow_h2 == 1
    h1, h2 = sl.finite_cohomology(g, 1)[0], sl.finite_cohomology(g, 2)[0]
    assert (h1, h2) == (1, 1)
    assert h1 <= sylow_h1 and h2 <= sylow_h2


@pytest.mark.parametrize("p", [7, 11, 13])
def test_adjoint_psl2_h2_within_sylow_bound(p):
    g = sl2_adjoint_action(p)
    assert g.order == p * (p * p - 1) // 2 and g.order % (p * p)
    _, _, sylow_h2 = sylow_bound(g)
    h2, basis = sl.finite_cohomology(g, 2)
    assert basis is None
    assert h2 == 1 <= sylow_h2


def psl2_f5_squared():
    """Two adjoint PSL2(F_5) actions side by side on F_5^6: order 3600."""
    a, b = sl2_adjoint_action(5).generators
    one = ff.eye(3)
    return sl.FiniteGroupAction(5, [diag_blocks(a, one), diag_blocks(b, one),
                                    diag_blocks(one, a), diag_blocks(one, b)])


def test_h2_over_budget_refused_before_elimination(monkeypatch):
    # 25 divides the order, so the group is kept and any subgroup H with 5
    # not dividing |H| has index at least 25: the shifted module has
    # dimension at least 6 * 24, and the system at least 3600 * 4 * 144 rows
    # by 4 * 144 columns, over the budget before H is looked for.
    g = psl2_f5_squared()
    assert g.order == 3600
    monkeypatch.setattr(ff, "_reduce", lambda *args: pytest.fail("eliminated"))
    monkeypatch.setattr(sl, "_p_prime_subgroup", lambda *args: pytest.fail("searched"))
    with pytest.raises(sl.SelmerError, match="budget"):
        sl.finite_cohomology(g, 2)


J4 = ff.eye(4) + np.eye(4, k=1, dtype=np.int64)

# Groups where p^2 divides the order and the p'-part is not 1: C_18 by a
# Jordan block of size 4 (order 9) beside -1, and (Z/3)^2 as the matrices
# [[1, a, b], [0, 1, 0], [0, 0, 1]] extended by an element of order 4, whose
# first candidates in BFS order have order 3.
SHIFTED_GROUPS = {
    "cyclic-18-mod-3": lambda: sl.FiniteGroupAction(3, [diag_blocks(J4, [[2]])]),
    "affine-36-mod-3": lambda: sl.FiniteGroupAction(3, [
        ff.eye(3) + np.eye(3, k=1, dtype=np.int64) * [[1], [0], [0]],
        ff.eye(3) + np.eye(3, k=2, dtype=np.int64),
        diag_blocks([[1]], [[0, 1], [2, 0]])]),
}


@pytest.mark.parametrize("name", sorted(SHIFTED_GROUPS))
def test_h2_shifts_by_a_largest_p_prime_subgroup(name):
    """The subgroup H of the shift is closed under the Cayley table, of order
    prime to p and as large as that allows, and H^2 equals the coinduced
    oracle's, which shifts with no subgroup."""
    g = SHIFTED_GROUPS[name]()
    k, p = g.order, g.p
    assert k % (p * p) == 0 and k > sl._p_part(k, p)
    members = sl._p_prime_subgroup(g, sl._multiplier(g))
    assert len(members) == k // sl._p_part(k, p)
    assert set(cayley_table(g)[np.ix_(members, members)].ravel().tolist()) == set(members.tolist())
    assert sl.finite_cohomology(g, 2) == (coind_h2_oracle(g), None)


def test_coprime_order_has_no_higher_cohomology():
    # <2> in F_101^x has order 100, prime to 101.
    g = sl.FiniteGroupAction(101, [np.array([[2]])])
    assert g.order == 100
    assert sl.finite_cohomology(g, 1)[0] == 0
    assert sl.finite_cohomology(g, 2)[0] == 0


@pytest.mark.parametrize("make", [partial(small_group, "s3-mod-7"),
                                  partial(small_group, "dihedral-6-mod-7"),
                                  lambda: sl.FiniteGroupAction(101, [np.array([[2]])])])
def test_coprime_h1_is_zero_without_cocycles(monkeypatch, make):
    """No cocycle system, elimination or budget check: the answer is 0 and
    an empty basis of the k.n coordinates."""
    g = make()
    assert g.order % g.p
    monkeypatch.setattr(sl, "_cocycles", lambda *args: pytest.fail("cocycles built"))
    monkeypatch.setattr(ff, "_reduce", lambda *args: pytest.fail("eliminated"))
    monkeypatch.setattr(sl, "_CELL_BUDGET", 0)
    dim, basis = sl.finite_cohomology(g, 1)
    assert dim == 0 and basis.dtype == np.int64 and basis.shape == (g.order * g.dim, 0)


COPRIME_GROUPS = {**{name: partial(small_group, name)
                    for name in ("dihedral-6-mod-7", "s3-mod-7", "cyclic-4-mod-5")},
                  "trivial-mod-5": lambda: sl.FiniteGroupAction(5, [ff.eye(3)])}


@pytest.mark.parametrize("name", sorted(COPRIME_GROUPS))
def test_coprime_cocycle_system_has_no_classes(name):
    """finite_cohomology answers H^1 = 0 for these with no cocycle system;
    the system itself, reduced as degree 1 reduces it when p divides |G|,
    gives no class either."""
    g = COPRIME_GROUPS[name]()
    assert g.order % g.p
    system = sl._cocycles(g.p, g.elements, g.step, g.tree)[0]
    moved = ff.fixed_equations(g.generators, g.dim)
    reps = ff.kernel_quotient(system, moved, g.p)[0]
    assert reps.shape == (g.dim * len(g.generators), 0)
    assert ff.nullspace(system, g.p).shape[1] == ff.rank(moved, g.p)


@pytest.mark.parametrize("make", [partial(small_group, "s3-mod-7"),
                                  partial(small_group, "dihedral-6-mod-7"),
                                  lambda: sl.FiniteGroupAction(101, [np.array([[2]])])])
def test_coprime_h2_is_zero_without_elimination(monkeypatch, make):
    g = make()
    assert g.order % g.p
    monkeypatch.setattr(ff, "_reduce", lambda *args: pytest.fail("eliminated"))
    assert sl.finite_cohomology(g, 2) == (0, None)


# ---------------------------------------------------------------------------
# Selmer systems
# ---------------------------------------------------------------------------

def random_conditions(rng: random.Random, system: sl.SelmerSystem) -> sl.ConditionAssignment:
    """A random subspace L_v of random dimension at every place."""
    l = {v: ff.random_subspace(rng, system.local_dims[v],
                               rng.randrange(0, system.local_dims[v] + 1), system.p)
         for v in system.places}
    return sl.ConditionAssignment(system, l)


def test_exact_system_reciprocity_and_extremes():
    rng = random.Random(1)
    system = sl.build_exact_system(rng, 5, {"a": 3, "b": 2, "c": 2}, 4)
    assert system.reciprocity_holds()
    full = sl.ConditionAssignment(system, {v: ff.eye(system.local_dims[v])
                                           for v in system.places})
    assert sl.selmer(system, full).shape[1] == system.dim_h
    zero = sl.ConditionAssignment(system, {v: ff.zeros((system.local_dims[v], 0))
                                           for v in system.places})
    expected = ff.nullspace(system.stacked_res(), 5).shape[1]
    assert sl.selmer(system, zero).shape[1] == expected


def test_selmer_basis_independence():
    rng = random.Random(7)
    for _ in range(20):
        system = sl.build_exact_system(rng, 7, {"a": 3, "b": 3}, rng.randrange(0, 5))
        conds = random_conditions(rng, system)
        d1 = sl.selmer(system, conds).shape[1] - sl.dual_selmer(system, conds).shape[1]
        # Re-express every L_v by a random change of spanning set.
        new_l = {}
        for v in system.places:
            l = conds.l_spaces[v]
            if l.shape[1]:
                mix = ff.random_invertible(rng, l.shape[1], 7)[0]
                new_l[v] = ff.column_space((l @ mix) % 7, 7)
            else:
                new_l[v] = l
        conds2 = sl.ConditionAssignment(system, new_l)
        d2 = sl.selmer(system, conds2).shape[1] - sl.dual_selmer(system, conds2).shape[1]
        assert d1 == d2


def surjectivity_check(system: sl.SelmerSystem, target_places) -> bool:
    """Do the restrictions to target_places map H onto their local sum?"""
    mat = np.vstack([system.res[v] for v in target_places]) % system.p
    return ff.rank(mat, system.p) == sum(system.local_dims[v] for v in target_places)


def test_surjectivity_check():
    rng = random.Random(2)
    p = 5
    # H = direct sum of the locals with identity restrictions: surjective.
    dims = {"a": 2, "b": 1}
    total = 3
    image = ff.eye(total)
    system = sl.SelmerSystem(
        p, ("a", "b"), dims,
        {"a": image[:2, :], "b": image[2:, :]},
        {"a": ff.zeros((2, 0)), "b": ff.zeros((1, 0))},
        {"a": ff.eye(2), "b": ff.eye(1)},
    )
    assert surjectivity_check(system, ("a", "b"))
    assert surjectivity_check(system, ("a",))
    # H = 0 with a nonzero local space: not surjective.
    empty = sl.SelmerSystem(
        p, ("a",), {"a": 2},
        {"a": ff.zeros((2, 0))}, {"a": ff.eye(2)}, {"a": ff.eye(2)},
    )
    assert not surjectivity_check(empty, ("a",))
    # Random exact systems match the rank computation directly.
    for _ in range(10):
        system = sl.build_exact_system(rng, p, {"a": 2, "b": 2}, rng.randrange(0, 5))
        want = ff.rank(system.res["a"], p) == 2
        assert surjectivity_check(system, ("a",)) == want


def test_condition_tightening_bounds():
    """Shrinking one local condition moves Selmer down and dual Selmer up by
    at most the local codimension (the descent-sequence bound)."""
    rng = random.Random(9)
    for _ in range(50):
        system = sl.build_exact_system(rng, 5, {"a": 3, "b": 3, "c": 2},
                                       rng.randrange(2, 7))
        conds = random_conditions(rng, system)
        v = rng.choice(system.places)
        l = conds.l_spaces[v]
        if l.shape[1] == 0:
            continue
        drop = rng.randrange(0, l.shape[1] + 1)
        smaller = l[:, : l.shape[1] - drop]
        tighter = conds.replaced(v, smaller)
        s0, s1 = sl.selmer(system, conds).shape[1], sl.selmer(system, tighter).shape[1]
        d0, d1 = sl.dual_selmer(system, conds).shape[1], sl.dual_selmer(system, tighter).shape[1]
        assert s1 <= s0 <= s1 + drop
        assert d0 <= d1 <= d0 + drop


# ---------------------------------------------------------------------------
# Oracles for the Selmer-layer predicates: one quotient space per place (and
# per inflation index), taking coordinates in V_v/L_v.
# ---------------------------------------------------------------------------

def quotient_selmer_oracle(system, conditions):
    p = system.p
    rows = []
    for v in system.places:
        q = ff.QuotientSpace(ff.eye(system.local_dims[v]), conditions.l_spaces[v], p)
        if q.dim:
            rows.append(q.coords_matrix(system.res[v]) % p)
    if not rows:
        return ff.eye(system.dim_h)
    return ff.nullspace(np.vstack(rows) % p, p)


def quotient_dual_selmer_oracle(system, conditions):
    p = system.p
    rows = []
    for v in system.places:
        lperp = conditions.l_perp(v)
        q = ff.QuotientSpace(ff.eye(system.local_dims[v]), lperp, p)
        if q.dim:
            rows.append(q.coords_matrix(system.res_dual[v]) % p)
    if not rows:
        return ff.eye(system.dim_h_dual)
    return ff.nullspace(np.vstack(rows) % p, p)


def annihilator_exactness_oracle(system) -> bool:
    image = ff.column_space(system.stacked_res(), system.p)
    image_dual = ff.column_space(system.stacked_res_dual(), system.p)
    ann = ff.annihilator(image_dual, system.block_pairing().T, system.p)
    # ann lives on the V-side: {x : <x, y> = 0 for all y in image_dual}.
    return image.shape[1] == ann.shape[1] and ff.span_contains(ann, image, system.p)


def quotient_inflation_oracle(family) -> bool:
    p = family.p
    q_full = ff.QuotientSpace(family.full, family.base, p)
    quotients = [ff.QuotientSpace(h, family.base, p) for h in family.enlargements]
    total = sum(q.dim for q in quotients)
    if total != q_full.dim:
        return False
    if not total:
        return True
    joint = np.hstack([q_full.coords_matrix(q.reps) for q in quotients if q.dim])
    return ff.rank(joint, p) == total


def any_matrix(rng, m, n, p):
    """Uniform m x n matrix mod p; m or n may be zero."""
    return ff.normalize(np.array([rng.randrange(p) for _ in range(m * n)]).reshape(m, n), p)


def any_condition(rng, n, p):
    """Columns spanning 0, the whole space or a random subspace, some with a
    dependent and a zero column appended."""
    kind = rng.randrange(3)
    if kind == 0:
        return ff.zeros((n, rng.randrange(0, 3)))
    if kind == 1:
        cols = ff.random_invertible(rng, n, p)[0]
    else:
        cols = any_matrix(rng, n, rng.randrange(1, n + 2), p)
    if rng.random() < 0.5:
        cols = np.hstack([cols, cols[:, :1] * rng.randrange(p) % p, ff.zeros((n, 1))])
    return cols


def any_selmer_case(p, seed):
    """A system with random perfect pairings and conditions, and whether it
    is exact by construction.  Exact systems come from `build_exact_system`
    with res' moved by P_v^-1; the others compose both sides with random maps
    into those images, which keeps reciprocity and may break exactness."""
    rng = random.Random(seed)
    dims = {f"v{i}": rng.randrange(1, 5) for i in range(rng.randrange(1, 4))}
    base = sl.build_exact_system(rng, p, dims, rng.randrange(0, sum(dims.values()) + 1))
    pairs = {v: ff.random_invertible(rng, n, p) for v, n in dims.items()}
    pairing = {v: g for v, (g, _) in pairs.items()}
    res = dict(base.res)
    res_dual = {v: ff.mat_mul(gi, base.res_dual[v], p) for v, (_, gi) in pairs.items()}
    exact = rng.random() < 0.5
    if not exact:
        s = any_matrix(rng, base.dim_h, rng.randrange(0, base.dim_h + 2), p)
        s_dual = any_matrix(rng, base.dim_h_dual, rng.randrange(0, base.dim_h_dual + 2), p)
        res = {v: ff.mat_mul(res[v], s, p) for v in dims}
        res_dual = {v: ff.mat_mul(res_dual[v], s_dual, p) for v in dims}
    system = sl.SelmerSystem(p, base.places, dims, res, res_dual, pairing)
    conditions = sl.ConditionAssignment(system, {v: any_condition(rng, n, p)
                                                 for v, n in dims.items()})
    return system, conditions, exact


def any_inflation_family(p, seed):
    """A built family (overlapping or not), or base, enlargements and full
    drawn as random spanning sets, which may coincide, overlap or miss."""
    rng = random.Random(seed)
    kind = rng.randrange(3)
    added = [rng.randrange(1, 3) for _ in range(rng.randrange(0 if kind == 2 else 1, 4))]
    if kind < 2:
        return sl.build_inflation_family(rng, p, rng.randrange(0, 3), added,
                                         overlapping=kind == 1 and len(added) >= 2)
    n = rng.randrange(1, 7)
    base = any_matrix(rng, n, rng.randrange(0, 3), p)
    enlargements = [np.hstack([base, any_matrix(rng, n, a, p)]) for a in added]
    full = np.hstack([base, *enlargements, any_matrix(rng, n, rng.randrange(0, 2), p)])
    return sl.InflationFamily(p, base, enlargements, full)


SELMER_PRIMES = (3, 5, 7, 11, 13)


@given(st.sampled_from(SELMER_PRIMES), st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_selmer_layer_matches_quotient_oracles(p, seed):
    system, conditions, exact = any_selmer_case(p, seed)
    assert np.array_equal(sl.selmer(system, conditions),
                          quotient_selmer_oracle(system, conditions))
    assert np.array_equal(sl.dual_selmer(system, conditions),
                          quotient_dual_selmer_oracle(system, conditions))
    assert system.exactness_holds() == annihilator_exactness_oracle(system)
    if exact:
        assert system.exactness_holds()


@given(st.sampled_from(SELMER_PRIMES), st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_inflation_check_matches_quotient_oracle(p, seed):
    family = any_inflation_family(p, seed)
    assert sl.inflation_decomposition_check(family) == quotient_inflation_oracle(family)


def test_selmer_layer_eliminations(monkeypatch):
    rng = random.Random(3)
    system = sl.build_exact_system(rng, 7, {"a": 3, "b": 2, "c": 2}, 4)
    conditions = random_conditions(rng, system)
    family = sl.build_inflation_family(rng, 7, base_dim=2, added=[1, 2])
    calls = []
    reduce = ff._reduce
    monkeypatch.setattr(ff, "_reduce", lambda a, p: calls.append(a) or reduce(a, p))
    monkeypatch.setattr(ff, "QuotientSpace", lambda *args: pytest.fail("quotient built"))

    def eliminations(fn, *args):
        calls.clear()
        fn(*args)
        return len(calls)

    assert eliminations(sl.dual_selmer, system, conditions) == 1
    assert eliminations(sl.selmer, system, conditions) <= len(system.places) + 1
    # Both spaces are kept on the assignment, and so are the equations E_v;
    # `replaced` carries over no space and every E_v but the new place's.
    assert eliminations(sl.selmer, system, conditions) == 0
    assert eliminations(sl.dual_selmer, system, conditions) == 0
    # `replaced` reads the new place's E_v off the reduction that gives L_v.
    tighter = conditions.replaced("a", conditions.l_spaces["a"][:, :1])
    assert eliminations(sl.selmer, system, tighter) == 1
    assert eliminations(sl.dual_selmer, system, tighter) == 1
    fresh = sl.ConditionAssignment(system, dict(tighter.l_spaces))
    for space in (sl.selmer, sl.dual_selmer):
        assert space(system, tighter).tobytes() == space(system, fresh).tobytes()
    assert eliminations(system.exactness_holds) == 2
    assert eliminations(sl.inflation_decomposition_check, family) == 5


@given(st.sampled_from(SELMER_PRIMES), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_replaced_assignment_equals_a_fresh_one(p, seed):
    """Spaces kept on an assignment before `replaced` do not leak into the
    new one: its Selmer spaces are those of an assignment built afresh."""
    system, conditions, _ = any_selmer_case(p, seed)
    rng = random.Random(seed)
    for space in (sl.selmer, sl.dual_selmer):
        space(system, conditions)  # kept before `replaced` runs
    v = rng.choice(system.places)
    new = conditions.replaced(v, any_condition(rng, system.local_dims[v], p))
    fresh = sl.ConditionAssignment(system, dict(new.l_spaces))
    for space in (sl.selmer, sl.dual_selmer):
        assert space(system, new).tobytes() == space(system, fresh).tobytes()


def test_kept_spaces_answer_only_for_their_own_system():
    """`selmer` and `dual_selmer` refuse a system other than the one the
    assignment was made for, even an equal copy, and the basis they keep
    cannot be written through."""
    rng = random.Random(5)
    system = sl.build_exact_system(rng, 7, {"a": 3, "b": 2}, 3)
    conditions = random_conditions(rng, system)
    copy = sl.SelmerSystem(system.p, system.places, system.local_dims, system.res,
                           system.res_dual, system.pairing)
    for space in (sl.selmer, sl.dual_selmer):
        basis = space(system, conditions)
        with pytest.raises(sl.SelmerError, match="another Selmer system"):
            space(copy, conditions)
        with pytest.raises(ValueError, match="read-only"):
            basis[...] = 0


def test_condition_shape_checked():
    system = sl.build_exact_system(random.Random(0), 5, {"a": 2, "b": 1}, 1)
    for bad in (ff.zeros((1, 1)), ff.zeros(2), ff.zeros((3, 0))):
        with pytest.raises(sl.SelmerError, match="condition at a"):
            sl.ConditionAssignment(system, {"a": bad, "b": ff.eye(1)})


def test_system_construction_makes_no_elimination(monkeypatch):
    # Construction checks shapes and reciprocity, both matrix products; the
    # builders may eliminate, but not inside SelmerSystem.__post_init__.
    built = []
    post_init = sl.SelmerSystem.__post_init__
    reduce = ff._reduce

    def counted(system):
        built.append(system)
        monkeypatch.setattr(ff, "_reduce", lambda *args: pytest.fail("elimination in construction"))
        try:
            post_init(system)
        finally:
            monkeypatch.setattr(ff, "_reduce", reduce)

    monkeypatch.setattr(sl.SelmerSystem, "__post_init__", counted)
    sl.SelmerSystem(5, ("a", "b"), {"a": 2, "b": 1}, {"a": ff.eye(2), "b": ff.zeros((1, 2))},
                    {"a": ff.zeros((2, 1)), "b": ff.eye(1)}, {"a": ff.eye(2), "b": ff.eye(1)})
    sl.build_exact_system(random.Random(0), 7, {"a": 3, "b": 2}, 2)
    sl.build_annihilation_scenario(1, num_special=2)
    sl.build_avoidance_scenario(1)
    assert len(built) == 4


def test_exact_system_may_have_an_empty_place():
    system = sl.build_exact_system(random.Random(0), 5, {"a": 2, "b": 0}, 1)
    assert system.res["b"].shape == (0, 1) and system.exactness_holds()


def test_condition_assignment_refuses_a_missing_place():
    system = sl.build_exact_system(random.Random(0), 5, {"a": 2, "b": 1}, 1)
    with pytest.raises(sl.SelmerError, match="assignment misses place b"):
        sl.ConditionAssignment(system, {"a": ff.eye(2)})


def with_random_pairings(system, rng):
    """The system moved to random perfect pairings P_v, with res'_v replaced by
    P_v^-1 res'_v: every pairing value, so reciprocity, exactness and every
    (dual) Selmer group, stays the same."""
    p = system.p
    pairs = {v: ff.random_invertible(rng, system.local_dims[v], p) for v in system.places}
    return sl.SelmerSystem(p, system.places, system.local_dims, system.res,
                           {v: ff.mat_mul(gi, system.res_dual[v], p) for v, (_, gi) in pairs.items()},
                           {v: g for v, (g, _) in pairs.items()})


def test_random_pairings_at_a_large_prime():
    """At p near 10^9 the products L_v^T P_v and res_v^T P_v reach n p^2, so
    each is reduced before it meets res'_v."""
    p, rng = 1_000_000_007, random.Random(1)
    dims = {"a": 3, "b": 2, "c": 2}
    base = sl.build_exact_system(rng, p, dims, 3)
    system = with_random_pairings(base, rng)
    assert system.exactness_holds()
    l_spaces = {v: ff.random_subspace(rng, n, 1, p) for v, n in dims.items()}
    dual = sl.dual_selmer(system, sl.ConditionAssignment(system, l_spaces))
    expected = sl.dual_selmer(base, sl.ConditionAssignment(base, l_spaces))
    assert dual.shape[1] == expected.shape[1] > 0
    assert np.array_equal(dual, expected)


def test_reciprocity_enforced():
    p = 5
    with pytest.raises(sl.SelmerError):
        sl.SelmerSystem(
            p, ("a",), {"a": 1},
            {"a": ff.eye(1)}, {"a": ff.eye(1)}, {"a": ff.eye(1)},
        )


# ---------------------------------------------------------------------------
# Annihilation step
# ---------------------------------------------------------------------------

def test_annihilation_scenario_refuses_when_no_class_avoids(monkeypatch):
    monkeypatch.setattr(sl, "_class_avoiding", lambda *args, **kwargs: None)
    with pytest.raises(sl.SelmerError, match="failed to expose phi or psi"):
        sl.build_annihilation_scenario(0)


def test_annihilation_step_canonical():
    sc = sl.build_annihilation_scenario(seed=0, extra_selmer=1)
    before_dual = sl.dual_selmer(sc.system, sc.conditions).shape[1]
    assert before_dual == 1
    new_conds, report = sl.annihilation_step(
        sc.system, sc.conditions, sc.special[0], sc.ram[sc.special[0]], sc.phi, sc.psi
    )
    assert report.dual_after == 0
    assert report.selmer_after == report.selmer_before == 3


def test_annihilation_step_100_seeds():
    for seed in range(100):
        rng = random.Random(1000 + seed)
        sc = sl.build_annihilation_scenario(
            seed=seed, p=rng.choice([5, 7, 11, 13]),
            extra_selmer=rng.randrange(0, 3), num_special=rng.randrange(1, 4)
        )
        w = sc.special[0]
        new_conds, report = sl.annihilation_step(
            sc.system, sc.conditions, w, sc.ram[w], sc.phi, sc.psi
        )
        assert report.dual_after < report.dual_before
        assert report.selmer_after == report.selmer_before


def test_annihilation_iteration_terminates():
    sc = sl.build_annihilation_scenario(seed=5, num_special=3)
    conds = sc.conditions
    dual = sl.dual_selmer(sc.system, conds).shape[1]
    initial = dual
    steps = 0
    for w in sc.special:
        if dual == 0:
            break
        d = sl.dual_selmer(sc.system, conds)
        phi = sl._class_avoiding(sc.system, d, w, sc.ram[w], dual_side=True)
        s = sl.selmer(sc.system, conds)
        psi = sl._class_avoiding(sc.system, s, w, sc.ram[w], dual_side=False)
        conds, report = sl.annihilation_step(sc.system, conds, w, sc.ram[w], phi, psi)
        dual = report.dual_after
        steps += 1
    assert dual == 0
    assert steps <= initial


def first_unit_outside(basis, p):
    """The first unit vector outside span(basis)."""
    return next(e for e in ff.eye(basis.shape[0]).T if not ff.span_contains(basis, e, p))


def test_annihilation_hypothesis_violations():
    sc = sl.build_annihilation_scenario(seed=3)
    w, p = sc.special[0], sc.system.p
    # psi and phi outside Sel and Sel*.
    outside = first_unit_outside(sl.selmer(sc.system, sc.conditions), p)
    with pytest.raises(sl.SelmerError, match="psi is not a Selmer class"):
        sl.annihilation_step(sc.system, sc.conditions, w, sc.ram[w], sc.phi, outside)
    outside = first_unit_outside(sl.dual_selmer(sc.system, sc.conditions), p)
    with pytest.raises(sl.SelmerError, match="phi is not a dual-Selmer class"):
        sl.annihilation_step(sc.system, sc.conditions, w, sc.ram[w], outside, sc.psi)
    # phi restricting into the ramified annihilator: swap ram for unr so the
    # annihilator contains phi's restriction.
    bad_ram = sl.RamakrishnaData(sc.ram[w].unr, sc.ram[w].unr)
    with pytest.raises(sl.SelmerError, match="ramified annihilator at w"):
        sl.annihilation_step(sc.system, sc.conditions, w, bad_ram, sc.phi, sc.psi)
    # psi in the meet: use a Selmer class vanishing at w, found by tightening
    # the condition at w to zero.
    squeezed = sc.conditions.replaced(w, ff.zeros((2, 0)))
    sub = sl.selmer(sc.system, squeezed)
    assert sub.shape[1] >= 1
    vanishing = sub[:, 0]
    with pytest.raises(sl.SelmerError, match="unramified/ramified intersection"):
        sl.annihilation_step(sc.system, sc.conditions, w, sc.ram[w], sc.phi, vanishing)
    # Conditions must be fresh at w.
    new_conds, _ = sl.annihilation_step(sc.system, sc.conditions, w, sc.ram[w],
                                        sc.phi, sc.psi)
    with pytest.raises(sl.SelmerError, match="fresh unramified condition at w"):
        sl.annihilation_step(sc.system, new_conds, w, sc.ram[w], sc.phi, sc.psi)


def test_annihilation_step_refuses_an_unknown_index():
    sc = sl.build_annihilation_scenario(seed=3)
    w = sc.special[0]
    with pytest.raises(sl.SelmerError, match="unknown index nowhere"):
        sl.annihilation_step(sc.system, sc.conditions, "nowhere", sc.ram[w], sc.phi, sc.psi)


@pytest.mark.parametrize("layer, message", [
    ("dual_selmer", "dual Selmer did not drop"),
    ("selmer", "Selmer dimension moved"),
])
def test_annihilation_step_post_conditions_fire_on_a_planted_fault(monkeypatch, layer, message):
    """On an exact system the dual Selmer group drops and the Selmer group
    stays; a layer that finds one class too many under the new conditions
    is planted."""
    sc = sl.build_annihilation_scenario(seed=3)
    w, real = sc.special[0], getattr(sl, layer)

    def planted(system, conditions):
        basis = real(system, conditions)
        extra = ff.zeros((len(basis), 1))
        return basis if conditions is sc.conditions else np.hstack([basis, extra])

    monkeypatch.setattr(sl, layer, planted)
    with pytest.raises(VerificationFailure, match=message):
        sl.annihilation_step(sc.system, sc.conditions, w, sc.ram[w], sc.phi, sc.psi)


@pytest.mark.parametrize("seed", range(3))
def test_annihilation_step_at_a_large_prime(seed):
    """At p near 10^9 both factors of L_v^T P_v res'_v phi, and of ram^T P_w
    res'_w phi, must be reduced before they meet: a factor of n p^2 overflows
    int64.  Random pairings make L_v^T P_v a full product."""
    sc = sl.build_annihilation_scenario(seed, p=1_000_000_007, extra_selmer=1, num_special=2)
    system, w = with_random_pairings(sc.system, random.Random(seed)), sc.special[0]
    conditions = sl.ConditionAssignment(system, sc.conditions.l_spaces)
    # With ram = unr, phi restricts into the ramified annihilator.
    with pytest.raises(sl.SelmerError, match="ramified annihilator at w"):
        sl.annihilation_step(system, conditions, w, sl.RamakrishnaData(sc.ram[w].unr,
                                                                       sc.ram[w].unr),
                             sc.phi, sc.psi)
    _, report = sl.annihilation_step(system, conditions, w, sc.ram[w], sc.phi, sc.psi)
    assert report.dual_after < report.dual_before
    assert report.selmer_after == report.selmer_before


# ---------------------------------------------------------------------------
# Inflation decomposition
# ---------------------------------------------------------------------------

def test_inflation_k1_trivial():
    rng = random.Random(4)
    fam = sl.build_inflation_family(rng, 5, base_dim=2, added=[1])
    assert sl.inflation_decomposition_check(fam)


def test_inflation_two_indices_add():
    rng = random.Random(5)
    fam = sl.build_inflation_family(rng, 5, base_dim=3, added=[1, 1])
    assert sl.inflation_decomposition_check(fam)
    fam = sl.build_inflation_family(rng, 7, base_dim=2, added=[2, 1, 1])
    assert sl.inflation_decomposition_check(fam)


def test_inflation_overlapping_control_fails():
    rng = random.Random(6)
    fam = sl.build_inflation_family(rng, 5, base_dim=2, added=[1, 1], overlapping=True)
    assert not sl.inflation_decomposition_check(fam)


def test_inflation_overlap_keeps_the_other_fresh_vectors():
    fam = sl.build_inflation_family(random.Random(0), 5, base_dim=2, added=[1, 2],
                                    overlapping=True)
    assert [h.shape[1] for h in fam.enlargements] == [3, 4]
    assert not sl.inflation_decomposition_check(fam)


def test_inflation_nesting_validated():
    p = 5
    base = ff.eye(4)[:, :2]
    stray = ff.eye(4)[:, 2:3]
    with pytest.raises(sl.SelmerError, match="not nested over the base"):
        sl.InflationFamily(p, base, [stray], ff.eye(4))
    with pytest.raises(sl.SelmerError, match="enlargement exceeds the joint space"):
        sl.InflationFamily(p, base, [ff.eye(4)[:, :3]], base)


# ---------------------------------------------------------------------------
# Avoidance step
# ---------------------------------------------------------------------------

def test_avoidance_canonical():
    sc = sl.build_avoidance_scenario(seed=0)
    new_conds, report = sl.avoidance_step(
        sc.system, sc.conditions, sc.beta, sc.u_subspace, sc.y, sc.ram
    )
    assert report.selmer_after == report.selmer_before
    assert not ff.span_contains(sc.u_subspace, report.beta_psi_tilde, sc.system.p)
    # psi_tilde is in the new Selmer group.
    sel_new = sl.selmer(sc.system, new_conds)
    assert ff.span_contains(sel_new, report.psi_tilde, sc.system.p)


def test_avoidance_u_zero():
    # U = 0: any Selmer basis vector with nonzero image works; the step still
    # returns a witness with beta value outside 0.
    sc = sl.build_avoidance_scenario(seed=1)
    u0 = ff.zeros((sc.beta.shape[0], 0))
    with pytest.raises(sl.SelmerError, match="not inside U: nothing to avoid"):
        # beta(Selmer) is not inside U = 0, so there is nothing to avoid.
        sl.avoidance_step(sc.system, sc.conditions, sc.beta, u0, sc.y, sc.ram)


def test_avoidance_hypothesis_violations(monkeypatch):
    sc = sl.build_avoidance_scenario(seed=3, d_weights=3)
    p, d = sc.system.p, sc.beta.shape[0]

    def step(**changes):
        args = dict(system=sc.system, conditions=sc.conditions, beta=sc.beta,
                    u_subspace=sc.u_subspace, y=sc.y, ram=sc.ram)
        return sl.avoidance_step(**{**args, **changes})

    with pytest.raises(sl.SelmerError, match="U must be a proper subspace"):
        step(u_subspace=ff.eye(d))
    with pytest.raises(sl.SelmerError, match="fresh unramified condition at y"):
        step(conditions=sc.conditions.replaced(sc.y, sc.ram.ram))
    flat = sc.beta.copy()
    flat[-1] = flat[0]
    with pytest.raises(sl.SelmerError, match="beta is not surjective"):
        step(beta=flat)
    # No condition at v0 leaves the dual Selmer group nonzero.
    tight = sc.conditions.replaced("v0", ff.zeros((sc.system.local_dims["v0"], 0)))
    assert sl.dual_selmer(sc.system, tight).shape[1]
    with pytest.raises(sl.SelmerError, match="old dual Selmer must vanish"):
        step(conditions=tight)
    # ker Phi is the old Selmer group plus psi', so a beta of full rank on it
    # maps psi' outside U and the escape check cannot fail on its own.  With
    # every rank reported full, a beta into one line of U reaches it.
    into_u = np.outer(sc.u_subspace[:, 0], np.ones(sc.system.dim_h, dtype=np.int64)) % p
    monkeypatch.setattr(ff, "rank", lambda a, p: len(a))
    with pytest.raises(VerificationFailure, match="enlargement does not escape U"):
        step(beta=into_u)


@pytest.mark.parametrize("plant, message", [
    (lambda old, new: np.hstack([new, ff.zeros((len(new), 1))]), "new Selmer dimension moved"),
    (lambda old, new: old, "no new Selmer class has a psi'-component"),
])
def test_avoidance_selmer_checks_fire_on_a_planted_fault(monkeypatch, plant, message):
    """selmer() runs on the old conditions, on ker Phi, then on the new
    conditions; a wrong third answer is planted."""
    sc = sl.build_avoidance_scenario(seed=3, d_weights=3)
    real, answers = sl.selmer, []

    def selmer(system, conditions):
        answers.append(real(system, conditions))
        return plant(answers[0], answers[-1]) if len(answers) == 3 else answers[-1]

    monkeypatch.setattr(sl, "selmer", selmer)
    with pytest.raises(VerificationFailure, match=message):
        sl.avoidance_step(sc.system, sc.conditions, sc.beta, sc.u_subspace, sc.y, sc.ram)


def test_avoidance_with_zero_u_subspace():
    """U = 0 as a proper subspace: any new class with nonzero image escapes."""
    p = 5
    total = 5  # v0 dim 3, y dim 2
    cols = []
    for spec in [(0,), (1, 3), (2, 4)]:  # x0, psi through unr, carrier through ram
        e = ff.zeros(total)
        for i in spec:
            e[i] = 1
        cols.append(e)
    image = np.column_stack(cols)
    image_dual = ff.annihilator(image, ff.eye(total), p)
    system = sl.SelmerSystem(
        p, ("v0", "y"), {"v0": 3, "y": 2},
        {"v0": image[:3, :], "y": image[3:, :]},
        {"v0": image_dual[:3, :], "y": image_dual[3:, :]},
        {"v0": ff.eye(3), "y": ff.eye(2)},
    )
    unr = ff.zeros((2, 1)); unr[0, 0] = 1
    ram = ff.zeros((2, 1)); ram[1, 0] = 1
    conds = sl.ConditionAssignment(system, {"v0": ff.eye(3), "y": unr})
    beta = np.array([[0, 0, 1]], dtype=np.int64)  # kills the old Selmer classes
    u0 = ff.zeros((1, 0))
    new_conds, rep = sl.avoidance_step(system, conds, beta, u0, "y",
                                       sl.RamakrishnaData(unr, ram))
    assert rep.selmer_after == rep.selmer_before == 2
    assert rep.beta_psi_tilde.any()


def test_avoidance_100_seeds():
    for seed in range(100):
        rng = random.Random(2000 + seed)
        d = rng.choice([2, 3, 4, 5, 6])
        sc = sl.build_avoidance_scenario(
            seed=seed, p=rng.choice([5, 7, 11, 13]), d_weights=d,
            selmer_dim=rng.randrange(max(2, d - 1), max(2, d - 1) + 3)
        )
        new_conds, report = sl.avoidance_step(
            sc.system, sc.conditions, sc.beta, sc.u_subspace, sc.y, sc.ram
        )
        assert report.selmer_after == report.selmer_before
        assert not ff.span_contains(sc.u_subspace, report.beta_psi_tilde, sc.system.p)


@pytest.mark.parametrize("seed", range(3))
def test_avoidance_at_a_large_prime(seed):
    """At p near 10^9, beta times a Selmer basis reaches n p^2, so it is
    reduced before it meets the equations of U, and before it is reported."""
    sc = sl.build_avoidance_scenario(seed, p=1_000_000_007, d_weights=3, selmer_dim=3)
    assert sc.beta.max() < sc.system.p
    _, report = sl.avoidance_step(sc.system, sc.conditions, sc.beta, sc.u_subspace, sc.y, sc.ram)
    assert report.selmer_after == report.selmer_before
    assert np.array_equal(report.beta_psi_tilde, sc.beta @ report.psi_tilde % sc.system.p)
    assert not ff.span_contains(sc.u_subspace, report.beta_psi_tilde, sc.system.p)


def test_avoidance_scenario_shape_and_refusal():
    # U is spanned by 1 and d - 2 unit vectors, which selmer_dim >= 2 Selmer
    # columns must reach.
    for d, dim in ((2, 1), (4, 2)):
        with pytest.raises(sl.SelmerError, match="selmer_dim too small"):
            sl.build_avoidance_scenario(0, d_weights=d, selmer_dim=dim)
    sc = sl.build_avoidance_scenario(0, d_weights=4, selmer_dim=3)
    assert sc.system.local_dims == {"v0": 4, "y": 2}
    assert (sc.system.dim_h, sc.system.dim_h_dual) == (4, 2)
    assert sl.selmer(sc.system, sc.conditions).shape[1] == 3


def test_avoidance_psi_tilde_is_first_hit():
    """psi_tilde is the first new-Selmer column whose psi'-coordinate, solved
    one column at a time, is nonzero."""
    for seed in range(20):
        sc = sl.build_avoidance_scenario(seed=seed, p=[5, 7, 11, 13][seed % 4])
        p = sc.system.p
        new_conds, report = sl.avoidance_step(
            sc.system, sc.conditions, sc.beta, sc.u_subspace, sc.y, sc.ram
        )
        basis = np.hstack([sl.selmer(sc.system, sc.conditions),
                           report.psi_prime.reshape(-1, 1)])
        sel_new = sl.selmer(sc.system, new_conds)
        first = next(j for j in range(sel_new.shape[1])
                     if ff.solve(basis, sel_new[:, j], p)[-1] % p)
        assert np.array_equal(report.psi_tilde, sel_new[:, first])


def test_avoidance_dimension_count_control():
    """Two carriers threaded through y: without a condition at y the Selmer
    group gains two dimensions, not one."""
    p = 5
    # v0 has dim 4 and y dim 3, with lines unr = e0 and ram = e1 at y.  H is
    # spanned by x0, psi through unr, and carriers through e1 and e2 at y.
    image = ff.zeros((7, 4))
    for col, rows in enumerate([(0,), (1, 4), (2, 5), (3, 6)]):
        image[list(rows), col] = 1
    image_dual = ff.annihilator(image, ff.eye(7), p)
    system = sl.SelmerSystem(p, ("v0", "y"), {"v0": 4, "y": 3},
                             {"v0": image[:4], "y": image[4:]},
                             {"v0": image_dual[:4], "y": image_dual[4:]},
                             {"v0": ff.eye(4), "y": ff.eye(3)})
    unr, ram = ff.eye(3)[:, :1], ff.eye(3)[:, 1:2]
    conds = sl.ConditionAssignment(system, {"v0": ff.eye(4), "y": unr})
    # beta is onto F_5^2 and maps the old Selmer group (x0, psi) into U = span(1, 1).
    beta = np.array([[1, 1, 1, 0], [1, 1, 0, 1]], dtype=np.int64)
    u = np.ones((2, 1), dtype=np.int64)
    with pytest.raises(sl.SelmerError, match="enlargement dimension count is not one"):
        sl.avoidance_step(system, conds, beta, u, "y", sl.RamakrishnaData(unr, ram))


@pytest.mark.parametrize("planted, message", [
    (4, "enlargement does not escape U"),
    (5, r"avoidance failed: beta\(psi_tilde\) landed in U"),
])
def test_avoidance_u_checks_fire_on_a_planted_fault(monkeypatch, planted, message):
    """The step tests U three times: beta(Sel_old) inside U, then beta(psi')
    and beta(psi_tilde) outside it.  The last two cannot fail once the
    checks before them pass, so a membership test that wrongly answers
    "inside U" is planted at one of them."""
    sc = sl.build_avoidance_scenario(seed=3, d_weights=3)
    real, calls = sl._vanishes, []

    def vanishes(rows, x, p):
        calls.append(x)
        return len(calls) == planted or real(rows, x, p)

    monkeypatch.setattr(sl, "_vanishes", vanishes)
    with pytest.raises(VerificationFailure, match=message):
        sl.avoidance_step(sc.system, sc.conditions, sc.beta, sc.u_subspace, sc.y, sc.ram)
    assert len(calls) == planted


# ---------------------------------------------------------------------------
# Membership by products: the steps test Sel_L, Sel*, the ramified
# annihilator and U against equations they hold.  The oracles below test
# them with ff.span_contains against the bases the steps used to build:
# selmer, dual_selmer, ff.annihilator, intersect_spans and the column
# space of U.
# ---------------------------------------------------------------------------

STEP_PRIMES = (5, 7, 11, 13)
ANNIHILATION_HYPOTHESES = ("psi is not a Selmer class", "phi is not a dual-Selmer class",
                           "ramified annihilator at w", "unramified/ramified intersection")


def inside_or_not(rng, basis, p):
    """A random vector of span(basis), or a random vector of the ambient space."""
    if rng.random() < 0.5:
        return basis @ any_matrix(rng, basis.shape[1], 1, p)[:, 0] % p
    return any_matrix(rng, basis.shape[0], 1, p)[:, 0]


def annihilation_oracle(system, conditions, w, ram, phi, psi):
    """The first hypothesis the step must refuse, by the bases it used to build."""
    p = system.p
    if not ff.span_contains(sl.selmer(system, conditions), psi, p):
        return ANNIHILATION_HYPOTHESES[0]
    if not ff.span_contains(sl.dual_selmer(system, conditions), phi, p):
        return ANNIHILATION_HYPOTHESES[1]
    ram_perp = ff.annihilator(ram.ram, system.pairing[w], p)
    if ff.span_contains(ram_perp, system.res_dual[w] @ phi % p, p):
        return ANNIHILATION_HYPOTHESES[2]
    if ff.span_contains(intersect_spans(ram.unr, ram.ram, p), system.res[w] @ psi % p, p):
        return ANNIHILATION_HYPOTHESES[3]
    return None


@given(st.sampled_from(STEP_PRIMES), st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_annihilation_memberships_match_span_oracle(p, seed):
    rng = random.Random(seed)
    if rng.random() < 0.5:
        # A built scenario, whose phi, psi and ram pass every hypothesis.
        sc = sl.build_annihilation_scenario(seed, p, rng.randrange(0, 3), rng.randrange(1, 4))
        system, conditions, w = sc.system, sc.conditions, sc.special[0]
        phi, psi, line = sc.phi, sc.psi, sc.ram[w].ram
    else:
        # A random exact system, with a proper nonzero condition at w.
        dims = {f"v{i}": rng.randrange(1, 4) for i in range(rng.randrange(1, 4))}
        w = rng.choice(list(dims))
        dims[w] += 1
        system = sl.build_exact_system(rng, p, dims, rng.randrange(0, sum(dims.values()) + 1))
        conditions = random_conditions(rng, system).replaced(
            w, ff.random_subspace(rng, dims[w], rng.randrange(1, dims[w]), p))
        phi, psi, line = 0, 0, any_matrix(rng, dims[w], 1, p)
    psi = (psi + inside_or_not(rng, sl.selmer(system, conditions), p)) % p
    phi = (phi + inside_or_not(rng, sl.dual_selmer(system, conditions), p)) % p
    # ram: a line, with columns pairing to zero with phi at w, or psi's
    # restriction at w, so that both hypotheses at w go either way.
    phi_w, psi_w = system.res_dual[w] @ phi % p, system.res[w] @ psi % p
    blocks = [line]
    if rng.random() < 0.25:
        blocks.append(ff.nullspace((system.pairing[w] @ phi_w % p).reshape(1, -1), p))
    if rng.random() < 0.25:
        blocks.append(psi_w.reshape(-1, 1))
    ram = sl.RamakrishnaData(conditions.l_spaces[w], np.hstack(blocks))
    assert sl._into_ram_annihilator(system, w, ram, phi) == ff.span_contains(
        ff.annihilator(ram.ram, system.pairing[w], p), phi_w, p)
    expected = annihilation_oracle(system, conditions, w, ram, phi, psi)
    try:
        sl.annihilation_step(system, conditions, w, ram, phi, psi)
        got = None
    except sl.SelmerError as exc:
        got = str(exc)
    if expected is not None:
        assert expected in got
    else:
        assert got is None or not any(h in got for h in ANNIHILATION_HYPOTHESES)


@given(st.sampled_from(STEP_PRIMES), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_u_membership_matches_span_oracle(p, seed):
    rng = random.Random(seed)
    d = rng.randrange(2, 6)
    sc = sl.build_avoidance_scenario(seed=seed, p=p, d_weights=d,
                                     selmer_dim=rng.randrange(max(2, d - 1), d + 2))
    beta_sel = sc.beta @ sl.selmer(sc.system, sc.conditions) % p
    # A random spanning set of U, over all of beta(Sel), over part of it, or
    # over neither.
    u = any_matrix(rng, d, rng.randrange(0, d), p)
    kind = rng.randrange(3)
    if kind < 2:
        part = ff.eye(beta_sel.shape[1]) if kind == 0 else \
            any_matrix(rng, beta_sel.shape[1], rng.randrange(0, beta_sel.shape[1]), p)
        u = np.hstack([beta_sel @ part % p, u])
    u_basis = ff.column_space(u, p)
    equations = ff.nullspace(u.T, p).T
    for x in (inside_or_not(rng, u_basis, p), u_basis @ any_matrix(rng, u_basis.shape[1], 1, p)):
        assert sl._vanishes(equations, x, p) == ff.span_contains(u_basis, x, p)
    if u_basis.shape[1] == d:
        expected = "U must be a proper subspace"
    elif not ff.span_contains(u_basis, beta_sel, p):
        expected = "not inside U: nothing to avoid"
    else:
        expected = None
    try:
        _, report = sl.avoidance_step(sc.system, sc.conditions, sc.beta, u, sc.y, sc.ram)
        got = None
    except sl.SelmerError as exc:
        got = str(exc)
    if expected is not None:
        assert expected in got
    else:
        assert got is None
        assert not ff.span_contains(u_basis, sc.beta @ report.psi_prime % p, p)
        assert not ff.span_contains(u_basis, report.beta_psi_tilde, p)


def count_calls(monkeypatch, owner, name):
    calls = []
    fn = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: calls.append(args) or fn(*args))
    return calls


def test_builders_validate_one_system(monkeypatch):
    constructed = count_calls(monkeypatch, sl.SelmerSystem, "__post_init__")
    reciprocity = count_calls(monkeypatch, sl.SelmerSystem, "reciprocity_holds")
    for build in (partial(sl.build_exact_system, random.Random(3), 7, {"a": 3, "b": 2}, 2),
                  partial(sl.build_annihilation_scenario, seed=3, num_special=2),
                  partial(sl.build_avoidance_scenario, seed=3, d_weights=3)):
        constructed.clear()
        reciprocity.clear()
        build()
        assert len(constructed) == 1 and len(reciprocity) == 1
    system = sl.build_exact_system(random.Random(3), 7, {"a": 3, "b": 2}, 2)
    reciprocity.clear()
    # __post_init__ has checked reciprocity, so exactness does not again.
    assert system.exactness_holds() and len(reciprocity) == 0


def scenario_arrays(sc):
    s = sc.system
    rams = sc.ram.values() if isinstance(sc.ram, dict) else [sc.ram]
    out = [*(s.res[v] for v in s.places), *(s.res_dual[v] for v in s.places),
           *(sc.conditions.l_spaces[v] for v in s.places),
           *(x for r in rams for x in (r.unr, r.ram)),
           *((sc.phi, sc.psi) if hasattr(sc, "phi") else (sc.beta,))]
    return [a.tolist() for a in out]


def test_builder_draws_are_pinned():
    """The builders' seeded systems, classes and families, byte for byte: a
    draw of g^-1 in place of g, or any other change of the draws, is as valid
    a change of basis, and only this digest sees it."""
    drawn = [scenario_arrays(sl.build_annihilation_scenario(seed, p, extra, k))
             for seed, p in enumerate((5, 7, 11, 13)) for extra in (0, 2) for k in (1, 3)]
    drawn += [scenario_arrays(sl.build_avoidance_scenario(seed, p, d, d + 1))
              for seed, p in enumerate((5, 7, 11, 13)) for d in (2, 5)]
    drawn += [[h.tolist() for h in (f.base, *f.enlargements, f.full)]
              for f in [sl.build_inflation_family(random.Random(s), 7, 2, [1, 2]) for s in range(4)]]
    assert hashlib.sha256(repr(drawn).encode()).hexdigest()[:16] == "b96839c24a4f249e"


def test_step_eliminations(monkeypatch):
    ann = sl.build_annihilation_scenario(seed=3)
    avo = sl.build_avoidance_scenario(seed=3)
    w = ann.special[0]
    monkeypatch.setattr(ff, "annihilator", lambda *args: pytest.fail("annihilator called"))
    calls = count_calls(monkeypatch, ff, "_reduce")
    sl.annihilation_step(ann.system, ann.conditions, w, ann.ram[w], ann.phi, ann.psi)
    # 10 before the builder and the step shared Sel_L and Sel*, 4 before the
    # builders seeded the equations and `replaced` read E_w off its reduction.
    assert len(calls) == 3
    calls.clear()
    sl.avoidance_step(avo.system, avo.conditions, avo.beta, avo.u_subspace, avo.y, avo.ram)
    # 17 when the fresh condition was tested by eliminations, 16 before the
    # equations were seeded.
    assert len(calls) == 11


def test_step_op_eliminations(monkeypatch):
    """A builder and the step it feeds, three times over the shapes of the
    selmer-steps benchmark: at most 13 eliminations per annihilation and 17
    per avoidance on average (28.3 and 24.9 before draws carried their
    inverse, the two shared Sel_L and Sel*, and the fresh condition was
    tested by products; 18.85 and 21.92 before the builders seeded the
    equations they know, `replaced` read E_v off its reduction and g_h was
    drawn without its inverse).  Each rejected draw adds one."""
    ops = 108
    calls = count_calls(monkeypatch, ff, "_reduce")
    for i in range(ops):
        p = STEP_PRIMES[i % 4]
        sc = sl.build_annihilation_scenario(seed=i, p=p, extra_selmer=(i // 4) % 3,
                                            num_special=1 + (i // 12) % 3)
        w = sc.special[0]
        sl.annihilation_step(sc.system, sc.conditions, w, sc.ram[w], sc.phi, sc.psi)
    assert len(calls) <= 13 * ops
    calls.clear()
    for i in range(ops):
        d = 2 + (i // 4) % 5
        sc = sl.build_avoidance_scenario(seed=i, p=STEP_PRIMES[i % 4], d_weights=d,
                                         selmer_dim=max(2, d - 1) + (i // 4) % 3)
        sl.avoidance_step(sc.system, sc.conditions, sc.beta, sc.u_subspace, sc.y, sc.ram)
    assert len(calls) <= 17 * ops


def step_shapes(ops=108):
    """The builders over the shapes of the selmer-steps benchmark, as in
    test_step_op_eliminations: (annihilation, avoidance) scenarios per seed."""
    for i in range(ops):
        p, d = STEP_PRIMES[i % 4], 2 + (i // 4) % 5
        yield (sl.build_annihilation_scenario(seed=i, p=p, extra_selmer=(i // 4) % 3,
                                              num_special=1 + (i // 12) % 3),
               sl.build_avoidance_scenario(seed=i, p=p, d_weights=d,
                                           selmer_dim=max(2, d - 1) + (i // 4) % 3))


def equations_mismatch(e, l, p):
    """Why e are not independent equations of span(l) with the row space
    of nullspace(l^T)^T, by reference eliminations; None when they are."""
    n = l.shape[0]
    canonical = ff.nullspace(l.T, p).T
    if e.shape[1] != n or (e.astype(object) @ l.astype(object) % p).any():
        return "E L != 0"
    if ref_rank(e, p) != n - ref_rank(l, p):
        return "rank E != dim V - dim L"
    if len(e) != len(canonical):  # a dependent row costs every stacked reduction
        return "E has dependent rows"
    if ref_rank(np.vstack([e, canonical]), p) != ref_rank(canonical, p):
        return "row space differs from nullspace(L^T)^T"
    return None


def seeded_mismatches(sc):
    """Every E a builder seeded or `replaced` forms on its scenario, checked
    by equations_mismatch: E_v at every place, the tangent lines' equations,
    and E at the place of each replacement the steps make."""
    system, conditions, p = sc.system, sc.conditions, sc.system.p
    seeded = dict(conditions._equations)
    assert set(seeded) == set(system.places)  # every E_v was seeded
    found = [equations_mismatch(seeded[v], conditions.l_spaces[v], p) for v in system.places]
    for ram in sc.ram.values() if isinstance(sc.ram, dict) else [sc.ram]:
        assert set(ram._equations) == {("unr", p), ("ram", p)}
        found += [equations_mismatch(ram._equations[line, p], getattr(ram, line), p)
                  for line in ("unr", "ram")]
    w = sc.special[0] if hasattr(sc, "special") else sc.y
    ram = sc.ram[w] if isinstance(sc.ram, dict) else sc.ram
    for new_l in (np.hstack([ram.unr, ram.ram]), ram.ram, ff.eye(system.local_dims[w]),
                  ff.zeros((system.local_dims[w], 1))):
        new = conditions.replaced(w, new_l)
        found.append(equations_mismatch(new.equations(w), new.l_spaces[w], p))
    return [why for why in found if why is not None]


def test_seeded_equations_match_the_oracle():
    """A builder moves each canonical mark and its coordinate equations by
    its change of basis g_v, the equations by g_v^-1, and `replaced` reads
    E_v off the reduction that gives L_v: every E they seed cuts out its
    space, with the row space an elimination would give."""
    for ann, avo in step_shapes():
        assert seeded_mismatches(ann) == [] and seeded_mismatches(avo) == []


@given(st.sampled_from(SELMER_PRIMES), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_replaced_equations_match_the_oracle(p, seed):
    """On any condition, spanning sets with dependent and zero columns and
    the empty one included."""
    system, conditions, _ = any_selmer_case(p, seed)
    rng = random.Random(seed)
    v = rng.choice(system.places)
    cols = any_condition(rng, system.local_dims[v], p)
    new = conditions.replaced(v, cols)
    assert equations_mismatch(new.equations(v), new.l_spaces[v], p) is None
    # The bytes of a column-space reduction and then a nullspace one.
    l_v = ff.column_space(cols, p)
    assert new.l_spaces[v].tobytes() == l_v.tobytes()
    assert new.equations(v).tobytes() == ff.nullspace(l_v.T, p).T.tobytes()


def test_equations_moved_by_g_fail_the_oracle(monkeypatch):
    """The control: a `_dress` that moves the equations by g_v, not g_v^-1,
    seeds E that do not cut out the moved marks, and the oracle says so."""
    dress, draw = sl._dress, ff.random_invertible

    def dress_by_g(rng, p, places, local_dims, blocks, marked):
        drawn = []
        monkeypatch.setattr(ff, "random_invertible",
                            lambda *args: drawn.append(draw(*args)) or drawn[-1])
        system, moved, gh = dress(rng, p, places, local_dims, blocks, marked)
        monkeypatch.setattr(ff, "random_invertible", draw)
        g = {v: pair[0] for v, pair in zip(places, drawn)}
        # E g_v^-1 (g_v)^2 = E g_v.
        return system, {v: {name: (m, e @ g[v] % p @ g[v] % p) for name, (m, e) in marks.items()}
                        for v, marks in moved.items()}, gh

    monkeypatch.setattr(sl, "_dress", dress_by_g)
    builds = [build(seed=i, p=STEP_PRIMES[i % 4]) for i in range(24)
              for build in (sl.build_annihilation_scenario, sl.build_avoidance_scenario)]
    # Only a g_v whose square keeps a mark's span escapes.
    assert sum(bool(seeded_mismatches(sc)) for sc in builds) >= 45


@pytest.mark.parametrize("build, n", [
    # The scenarios' n is their total local dimension, over which
    # _exact_blocks sums; the family only eliminates.
    (lambda p: sl.build_annihilation_scenario(0, p), 6),
    (lambda p: sl.build_annihilation_scenario(0, p, extra_selmer=0, num_special=3), 11),
    (lambda p: sl.build_avoidance_scenario(0, p), 5),
    (lambda p: sl.build_avoidance_scenario(0, p, d_weights=4, selmer_dim=4), 7),
    (lambda p: sl.build_inflation_family(random.Random(0), p, 1, [1]), 1),
    (lambda p: sl.InflationFamily(p, ff.eye(2)[:, :1], [ff.eye(2)], ff.eye(2)), 1),
])
def test_selmer_entry_points_check_p_before_drawing(monkeypatch, build, n):
    """They drew first and then died with a bare ValueError from a modular
    inverse, or (the family) computed a verdict over Z/9."""
    monkeypatch.setattr(ff, "random_matrix", lambda *args: pytest.fail("drew"))
    for p in (4, 9):
        with pytest.raises(sl.SelmerError, match="p must be an odd prime"):
            build(p)
    with pytest.raises(sl.SelmerError, match=f"at dimension n = {n}$"):
        build(3_215_031_751)


def test_scenario_builders_refuse_sizes_without_a_scenario(monkeypatch):
    """No fresh index, or a weight space with no proper U spanned by the
    all-ones vector, used to raise a bare IndexError or build a scenario no
    step accepts."""
    monkeypatch.setattr(ff, "random_matrix", lambda *args: pytest.fail("drew"))
    for k in (0, -1):
        with pytest.raises(sl.SelmerError, match="num_special must be at least 1"):
            sl.build_annihilation_scenario(0, num_special=k)
    for d in (1, 0, -1):
        with pytest.raises(sl.SelmerError, match="d_weights must be at least 2"):
            sl.build_avoidance_scenario(0, d_weights=d)


# ---------------------------------------------------------------------------
# The Selmer invariance relation.  Sel_L and Sel*_{L-perp} are cut out place
# by place, so three changes of presentation leave Sel, Sel*, exactness and
# the step reports unchanged: relabelling the places, which moves their
# sorted order; reordering the `places` tuple; and scaling a place's pairing
# P_v by a unit c and its res'_v by c^-1, which moves neither the rows
# L_v^T P_v res'_v nor an annihilator under P_v.
# ---------------------------------------------------------------------------

def presented(system, conditions, names, order, scales):
    """The system and its assignment with place v renamed names[v], the
    places listed in `order`, and P_v, res'_v scaled by scales[v] and its
    inverse."""
    p = system.p
    new = sl.SelmerSystem(
        p, tuple(names[v] for v in order), {names[v]: system.local_dims[v] for v in order},
        {names[v]: system.res[v] for v in order},
        {names[v]: system.res_dual[v] * pow(scales[v], -1, p) % p for v in order},
        {names[v]: system.pairing[v] * scales[v] % p for v in order})
    return new, sl.ConditionAssignment(new, {names[v]: conditions.l_spaces[v] for v in order})


def annihilation_case(p, seed):
    rng = random.Random(seed)
    sc = sl.build_annihilation_scenario(seed, p, rng.randrange(3), rng.randrange(1, 4))
    w = sc.special[0]

    def report(system, conditions, names):
        return vars(sl.annihilation_step(system, conditions, names[w], sc.ram[w],
                                         sc.phi, sc.psi)[1])
    return sc.system, sc.conditions, report


def avoidance_case(p, seed):
    rng = random.Random(seed)
    d = rng.randrange(2, 7)
    sc = sl.build_avoidance_scenario(seed, p, d, max(2, d - 1) + rng.randrange(3))

    def report(system, conditions, names):
        got = sl.avoidance_step(system, conditions, sc.beta, sc.u_subspace, names[sc.y], sc.ram)
        return {key: np.asarray(x).tolist() for key, x in vars(got[1]).items()}
    return sc.system, sc.conditions, report


def payload_case(p, seed):
    """The explicit system and conditions of any_selmer_case, as a `selmer`
    payload read by the scenario reader, whose report names the places."""

    def report(system, conditions, names):
        payload = {"p": system.p, "local_dims": {v: system.local_dims[v] for v in system.places},
                   "conditions": {v: conditions.l_spaces[v].tolist() for v in system.places},
                   **{key: {v: getattr(system, key)[v].tolist() for v in system.places}
                      for key in ("res", "res_dual", "pairing")}}
        got = scenarios.run_scenario_payload("selmer", payload, 0, None)
        back = {new: old for old, new in names.items()}
        return {**got, "condition_dims": {back[v]: d for v, d in got["condition_dims"].items()}}
    return (*any_selmer_case(p, seed)[:2], report)


SELMER_CASES = {"annihilation": annihilation_case, "avoidance": avoidance_case,
                "payload": payload_case}


@given(st.sampled_from(sorted(SELMER_CASES)), st.sampled_from(STEP_PRIMES),
       st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=150, deadline=None)
def test_selmer_is_invariant_under_place_labels_order_and_pairing_scale(kind, p, seed, data):
    system, conditions, report = SELMER_CASES[kind](p, seed)
    places = system.places
    labels = data.draw(st.permutations([f"u{i}" for i in range(len(places))]))
    order = data.draw(st.permutations(places))
    units = data.draw(st.lists(st.integers(1, p - 1), min_size=len(places), max_size=len(places)))
    same, renamed = {v: v for v in places}, dict(zip(places, labels))
    one, scales = dict.fromkeys(places, 1), dict(zip(places, units))

    def observed(names, listed, scaled):
        s, c = presented(system, conditions, names, listed, scaled)
        return (sl.selmer(s, c).tolist(), sl.dual_selmer(s, c).tolist(), s.exactness_holds(),
                report(s, c, names))

    want = observed(same, places, one)
    for names, listed, scaled in [(renamed, places, one), (same, order, one),
                                  (same, places, scales), (renamed, order, scales)]:
        assert observed(names, listed, scaled) == want
