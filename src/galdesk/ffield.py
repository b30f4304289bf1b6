"""Exact linear algebra over prime fields F_p.

Matrices are dense numpy int64 reduced mod p; subspaces are represented by
matrices whose *columns* are basis vectors.  `solve` accepts a vector or a
matrix right-hand side, and the span helpers (`span_contains`,
`extend_basis`, `QuotientSpace.coords_matrix`) each make one elimination
rather than one per column.  A `QuotientSpace` is built from one reduction
of [denominator | numerator], and takes span(denominator) within
span(numerator) as an unchecked precondition.

`rref` is the one elimination, with two kernels chosen by input size.  Almost
every system the Selmer and local-duality layers build has at most a few
hundred cells, where numpy's per-pivot call overhead outweighs its
arithmetic, so inputs of at most `_SMALL_CELLS` cells run row-by-row
Gauss-Jordan on lists of Python ints.  Larger inputs, such as the
finite-group degree-2 systems under `selmer._H2_CELL_BUDGET`, clear each pivot
column with one vectorised update over a bounded block of rows.  Where the
crossover sits depends on how much clearing a system needs.  On the sparse,
often rank-deficient systems the layers build, the Python kernel is about 2x
faster per call up to 2^6 cells and 1.2-1.6x at 2^8, and breaks even near
2^9; on dense full-rank matrices it is 2x faster up to 2^5 cells but 0.6x
from 2^7 and 0.3x from 2^10.  Both kernels make the same pivot choices and
return the same R for every p with p^2 < 2^63 (see `products_fit`).
"""

from __future__ import annotations

import math

import numpy as np

# rref clears a pivot column in blocks of at most this many rows, which keeps
# the temporaries of one update small on the largest (tall) systems.
_CLEAR_ROWS = 64

# rref runs the Python-int kernel on inputs of at most this many cells.
_SMALL_CELLS = 256

# random_invertible and random_subspace give up after this many draws.  For an
# odd prime a random square matrix is invertible with probability above 1/2,
# so the cap is reached only for a p that is not prime (p = 1 never succeeds).
_MAX_DRAWS = 1000


def normalize(a, p: int) -> np.ndarray:
    return np.asarray(a, dtype=np.int64) % p


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def zeros(shape) -> np.ndarray:
    return np.zeros(shape, dtype=np.int64)


def mat_mul(a, b, p: int) -> np.ndarray:
    return (normalize(a, p) @ normalize(b, p)) % p


def is_prime(n: int) -> bool:
    """Trial division; the one primality test every layer uses."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def is_odd_prime(p: int) -> bool:
    return p != 2 and is_prime(p)


def products_fit(p: int, n: int) -> bool:
    """Does a sum of n products of residues mod p stay below 2^63 (int64)?"""
    return max(n, 1) * p * p < 2**63


def inv_scalar(x: int, p: int) -> int:
    x %= p
    if x == 0:
        raise ZeroDivisionError(f"0 is not invertible mod {p}")
    return pow(x, p - 2, p)


def rref(a, p: int):
    """Reduced row echelon form.  Returns (R, pivot_columns)."""
    r = np.ascontiguousarray(normalize(a, p))  # a fresh array; rows stay contiguous
    if r.size <= _SMALL_CELLS:
        return _rref_small(r, p)
    m, n = r.shape
    pivots = []
    row = 0
    for col in range(n):
        if row == m:
            break
        nz = r[row:, col].nonzero()[0]
        if nz.size == 0:
            continue
        best = row + nz[0]
        if best != row:
            r[[row, best]] = r[[best, row]]
        # Entries left of `col` are zero in the pivot row, so only col: changes.
        pivot = r[row, col:]
        pivot[:] = (pivot * inv_scalar(int(pivot[0]), p)) % p
        others = r[:, col].nonzero()[0]
        others = others[others != row]
        for start in range(0, others.size, _CLEAR_ROWS):
            rows = others[start : start + _CLEAR_ROWS]
            r[rows, col:] = (r[rows, col:] - r[rows, col, None] * pivot) % p
        pivots.append(col)
        row += 1
    return r, pivots


def _rref_small(r: np.ndarray, p: int):
    """rref on lists of Python ints: the same pivots, scaling and clearing order."""
    rows = r.tolist()
    m, n = r.shape
    pivots = []
    row = 0
    for col in range(n):
        if row == m:
            break
        best = next((i for i in range(row, m) if rows[i][col]), None)
        if best is None:
            continue
        rows[row], rows[best] = rows[best], rows[row]
        scale = inv_scalar(rows[row][col], p)
        pivot = [x * scale % p for x in rows[row][col:]]
        rows[row][col:] = pivot
        for i, other in enumerate(rows):
            f = other[col]
            if f and i != row:
                other[col:] = [(x - f * y) % p for x, y in zip(other[col:], pivot)]
        pivots.append(col)
        row += 1
    return np.array(rows, dtype=np.int64).reshape(m, n), pivots


def rank(a, p: int) -> int:
    return len(rref(a, p)[1])


def nullspace(a, p: int) -> np.ndarray:
    """Basis of the right kernel, as columns of an (n x k) matrix."""
    r, pivots = rref(a, p)
    n = r.shape[1]
    is_free = np.ones(n, dtype=bool)
    is_free[pivots] = False
    free = is_free.nonzero()[0]
    basis = zeros((n, free.size))
    basis[free, np.arange(free.size)] = 1
    basis[np.array(pivots, dtype=np.intp)] = (-r[: len(pivots), free]) % p
    return basis


def solve(a, b, p: int):
    """One solution of A x = b, or None if inconsistent.

    b may be a vector or a matrix; for a matrix, x solves every column at
    once and None means some column is inconsistent.
    """
    a = normalize(a, p)
    b = normalize(b, p)
    vec = b.ndim == 1
    if vec:
        b = b.reshape(-1, 1)
    n = a.shape[1]
    r, pivots = rref(np.hstack([a, b]), p)
    # Inconsistent iff some pivot lands in the augmented block.
    if pivots and pivots[-1] >= n:
        return None
    x = zeros((n, b.shape[1]))
    x[np.array(pivots, dtype=np.intp)] = r[: len(pivots), n:]
    return x[:, 0] if vec else x


def inv(a, p: int) -> np.ndarray:
    # A singular a leaves a pivot in the identity block, so solve gives None.
    x = solve(a, eye(len(a)), p)
    if x is None:
        raise ValueError("matrix is singular mod p")
    return x


def column_space(a, p: int) -> np.ndarray:
    """Column-span basis in RREF-canonical form (columns)."""
    a = normalize(a, p)
    r, pivots = rref(a.T, p)
    return r[: len(pivots)].T % p


def span_contains(big, small, p: int) -> bool:
    """Is the vector `small`, or every column of the matrix `small`, in span(big)?"""
    return solve(big, small, p) is not None


def annihilator(basis, pairing, p: int) -> np.ndarray:
    """{y : <x, y> = 0 for all x in span(basis)} for <x,y> = x^T P y.

    Returns a column basis inside the right-hand space of the pairing.
    """
    basis = normalize(basis, p)
    pairing = normalize(pairing, p)
    return nullspace((basis.T @ pairing) % p, p)


def extend_basis(sub, vectors, p: int) -> np.ndarray:
    """Columns of `vectors` that extend span(sub) to span(sub, vectors).

    Vectors are taken in order; the result is the greedy independent
    complement, which makes the choice deterministic.  A column of
    [sub | vectors] is a pivot of its RREF exactly when it is independent of
    the columns before it, so the pivots beyond `sub` are the greedy choice.
    """
    sub = normalize(sub, p)
    vectors = normalize(vectors, p)
    k = sub.shape[1]
    _, pivots = rref(np.hstack([sub, vectors]), p)
    return vectors[:, [c - k for c in pivots if c >= k]]


class QuotientSpace:
    """Quotient span(numerator)/span(denominator) with canonical coordinates.

    Precondition, not checked: span(denominator) lies in span(numerator).

    One reduction of [den | num] gives both bases.  Its pivot columns inside
    den are kept as `den`, so the denominator may be any spanning set of the
    subspace, with dependent or zero columns.  Its pivot columns beyond den
    are `reps`: the greedy complement `extend_basis` chooses.
    """

    def __init__(self, numerator, denominator, p: int):
        self.p = p
        self.num = normalize(numerator, p)
        den = normalize(denominator, p)
        k = den.shape[1]
        _, pivots = rref(np.hstack([den, self.num]), p)
        r_d = sum(c < k for c in pivots)
        self.den = den[:, pivots[:r_d]]
        self.reps = self.num[:, [c - k for c in pivots[r_d:]]]
        self.dim = self.reps.shape[1]

    def coords(self, v) -> np.ndarray:
        """Coordinates of [v] on the representative basis.

        v may be one vector or a matrix whose columns are vectors.
        """
        x = solve(np.hstack([self.den, self.reps]), v, self.p)
        if x is None:
            raise ValueError("vector is not in the numerator span")
        return x[self.den.shape[1] :]

    def coords_matrix(self, vectors) -> np.ndarray:
        """Coordinates of every column of `vectors`, one column each."""
        return self.coords(vectors)


def random_matrix(rng, m: int, n: int, p: int) -> np.ndarray:
    rows = [[rng.randrange(p) for _ in range(n)] for _ in range(m)]
    return np.array(rows, dtype=np.int64).reshape(m, n)


def random_invertible(rng, n: int, p: int) -> np.ndarray:
    for _ in range(_MAX_DRAWS):
        a = random_matrix(rng, n, n, p)
        if rank(a, p) == n:
            return a
    raise ValueError(f"no invertible {n} x {n} matrix mod {p} in {_MAX_DRAWS} draws")


def random_subspace(rng, n: int, dim: int, p: int) -> np.ndarray:
    """Random dim-dimensional subspace of F_p^n (column basis)."""
    if dim == 0:
        return zeros((n, 0))
    for _ in range(_MAX_DRAWS):
        a = random_matrix(rng, n, dim, p)
        if rank(a, p) == dim:
            return column_space(a, p)
    raise ValueError(f"no {dim}-dimensional subspace of F_{p}^{n} in {_MAX_DRAWS} draws")
