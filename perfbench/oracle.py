"""Independent mod-p linear algebra and closed forms for the benchmark oracles.

Elimination here is plain Python on lists of ints.  It shares no code with
galdesk.ffield, whose numpy elimination is the code path the benchmark
times, so an error there cannot hide itself.  Matrix products use numpy
`@`, which galdesk's elimination does not reach.
"""

from __future__ import annotations

import numpy as np


def _rows(a) -> list[list[int]]:
    return [[int(x) for x in row] for row in np.asarray(a, dtype=np.int64).tolist()]


def rref(a, p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form: (nonzero rows, pivot columns)."""
    rows = [[x % p for x in r] for r in _rows(a)]
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    top = 0
    for c in range(ncols):
        if top == len(rows):
            break
        hit = next((i for i in range(top, len(rows)) if rows[i][c]), None)
        if hit is None:
            continue
        rows[top], rows[hit] = rows[hit], rows[top]
        inv = pow(rows[top][c], p - 2, p)
        lead = [x * inv % p for x in rows[top]]
        rows[top] = lead
        for i, row in enumerate(rows):
            f = row[c]
            if i != top and f:
                rows[i] = [(x - f * y) % p for x, y in zip(row, lead)]
        pivots.append(c)
        top += 1
    return rows[:top], pivots


def rank(a, p: int) -> int:
    a = np.asarray(a, dtype=np.int64)
    if a.size == 0:
        return 0
    return len(rref(a, p)[1])


def nullspace(a, p: int) -> np.ndarray:
    """Column basis of the right kernel of a (m x n) matrix."""
    a = np.asarray(a, dtype=np.int64)
    n = a.shape[1]
    rows, pivots = rref(a, p) if a.size else ([], [])
    free = [j for j in range(n) if j not in pivots]
    basis = np.zeros((n, len(free)), dtype=np.int64)
    for k, j in enumerate(free):
        basis[j, k] = 1
        for row, piv in zip(rows, pivots):
            basis[piv, k] = -row[j] % p
    return basis


def inverse(a, p: int) -> np.ndarray:
    n = len(a)
    rows, pivots = rref(np.hstack([np.asarray(a, dtype=np.int64), np.eye(n, dtype=np.int64)]), p)
    if pivots[:n] != list(range(n)):
        raise ValueError("singular matrix")
    return np.array([row[n:] for row in rows[:n]], dtype=np.int64)


def random_invertible(rng, n: int, p: int) -> np.ndarray:
    while True:
        a = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)], dtype=np.int64)
        if rank(a, p) == n:
            return a


def random_subspace(rng, n: int, dim: int, p: int) -> np.ndarray:
    """Column basis of a random dim-dimensional subspace of F_p^n."""
    while True:
        a = np.array([[rng.randrange(p) for _ in range(dim)] for _ in range(n)], dtype=np.int64)
        if rank(a, p) == dim:
            return a


def same_span(a, b, p: int) -> bool:
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    ra, rb = rank(a, p), rank(b, p)
    return ra == rb and rank(np.hstack([a, b]), p) == ra


def in_span(basis, v, p: int) -> bool:
    basis = np.asarray(basis, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64).reshape(len(basis), -1)
    return rank(np.hstack([basis, v]), p) == rank(basis, p)


def block_diag(blocks) -> np.ndarray:
    rows = sum(b.shape[0] for b in blocks)
    cols = sum(b.shape[1] for b in blocks)
    out = np.zeros((rows, cols), dtype=np.int64)
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


# -- Selmer systems ------------------------------------------------------------


def selmer_dims(system, l_spaces) -> tuple[int, int]:
    """(dim Selmer, dim dual Selmer) from ranks alone.

    Sel = {x : res(x) in L}: the kernel of [R | -B] projects onto it with
    fibre ker B, so dim Sel = dim H + rank B - rank [R | -B].  The dual
    Selmer group is the kernel of B^T P R' for the block pairing P.
    """
    p = system.p
    places = system.places
    r = np.vstack([system.res[v] for v in places]) % p
    r_dual = np.vstack([system.res_dual[v] for v in places]) % p
    b = block_diag([np.asarray(l_spaces[v], dtype=np.int64) for v in places])
    pairing = block_diag([np.asarray(system.pairing[v], dtype=np.int64) for v in places])
    sel = r.shape[1] + rank(b, p) - rank(np.hstack([r, -b % p]), p)
    dual = r_dual.shape[1] - rank(b.T @ pairing % p @ r_dual % p, p)
    return sel, dual


def reciprocity(system) -> bool:
    total = sum(system.res[v].T @ system.pairing[v] @ system.res_dual[v]
                for v in system.places)
    return not (np.asarray(total) % system.p).any()


def exactness(system) -> bool:
    """Given reciprocity, the images are mutual annihilators iff their ranks add up."""
    p = system.p
    total = sum(system.local_dims[v] for v in system.places)
    r = np.vstack([system.res[v] for v in system.places])
    r_dual = np.vstack([system.res_dual[v] for v in system.places])
    return rank(r, p) + rank(r_dual, p) == total


# -- finite-group cohomology ------------------------------------------------------


def h0_dim(generators, p: int) -> int:
    n = generators[0].shape[0]
    stacked = np.vstack([(g - np.eye(n, dtype=np.int64)) % p for g in generators])
    return n - rank(stacked, p)


def cyclic_by_coprime_h12(g, complement, p: int) -> tuple[int, int]:
    """(dim H^1, dim H^2) of G = <g> x| H acting on F_p^n, with p prime to |H|.

    `complement` lists every h in H with the exponent b of h^-1 g h = g^b.
    By Hochschild-Serre, H^i(G, M) = H^i(<g>, M)^H.  For the cyclic group,
    H^1 = ker N / im(g - 1) with h acting as h N_b(g), and H^2 =
    M^<g> / N M with h acting as b h, where N_b = 1 + g + ... + g^(b-1) and
    N = N_k for the order k of g.  The H-invariants of a quotient have the
    dimension of the image of the averaging operator, whose factor 1/|H| is
    invertible mod p and so left out.
    """
    n = g.shape[0]
    one = np.eye(n, dtype=np.int64)
    powers = [one]
    while True:
        nxt = powers[-1] @ g % p
        if np.array_equal(nxt, one):
            break
        powers.append(nxt)

    def norm(b):
        return sum(powers[:b], np.zeros((n, n), dtype=np.int64)) % p

    def invariant_dim(num, den, act):
        avg = sum((act(h, b) for h, b in complement), np.zeros((n, n), dtype=np.int64)) % p
        moved = avg @ num % p
        return rank(np.hstack([moved, den]), p) - rank(den, p)

    big_n = norm(len(powers))
    h1 = invariant_dim(nullspace(big_n, p), (g - one) % p, lambda h, b: h @ norm(b))
    h2 = invariant_dim(nullspace((g - one) % p, p), big_n, lambda h, b: b * h)
    return h1, h2
