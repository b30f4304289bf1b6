"""Exact linear algebra over prime fields F_p.

`odd_prime` is the one check of p: every layer that takes a p passes it
through, with its own `InputError` subclass and the length n of its sums of
products, and gets it back bounded (n p^2 < 2^63), proven prime and as an
int, which the constructors keep in place of a numpy integer.

Matrices are dense numpy int64 reduced mod p; subspaces are represented by
matrices whose *columns* are basis vectors.  `solve` accepts a vector or a
matrix right-hand side, and the span helpers (`span_contains`,
`QuotientSpace.coords_matrix`) each make one elimination rather than one
per column.  A `QuotientSpace` is built from one reduction of
[denominator | numerator], and takes span(denominator) within
span(numerator) as an unchecked precondition.

H^1 = ker d1 / im d0 (d1 d0 = 0) is reduced in the free coordinates of
ker d1 by `kernel_quotient`, for tame and finite-group H^1 alike.  The
kernel basis Z of `nullspace(d1)` is the identity at the k free columns of
rref(d1), so v -> v[free] is one-to-one on ker d1, and [d0 | Z] and the
k-row [d0[free] | 1_k] have the same column relations.  One reduction of
the latter picks the representatives, the greedy complement of im d0
among Z's columns, and only those h1 columns of Z are built (1 at the free
column, -R's row at d1's pivots, by the builder `nullspace` uses for all
k).  Every row holds a pivot, so the rows past im d0's pivots, read off
the reduced rows, map a cocycle's v[free] to its class coordinates.

`_reduce` is the one elimination, with two kernels, behind `rref`, `rank`,
`nullspace`, `column_space_equations`, `QuotientSpace` and the draws.
Gauss-Jordan on lists of Python ints costs what clearing its nonzeros, row
by row, costs (a row is cleared by the pivot row's nonzeros alone), and
numpy a fixed cost per pivot.  So inputs of at most `_SMALL_CELLS` cells
run in Python, and so do sparse ones: at most `_SPARSE_CELLS` cells and
`_SPARSE_NONZEROS` nonzeros, neither side more than sixteen times the
other, and p below `_SPARSE_PRIMES`.  A taller input with n^2 at most
`_SMALL_CELLS` (so m > n) and sums of n products in int64 has rank at most
n: a block of its first n rows is reduced in Python, and one int64 product
with the block's kernel vectors finds the rows outside its span, up to
n - rank of which join its pivot rows, until none is left (at most n
rounds).  The numpy kernel takes the rows of the rest in
chunks of about `_CHUNK_CELLS` cells, in the block style of FFLAS-FFPACK
(Dumas, Giorgi and Pernet, 2008): exact matmuls (float64, or int64 for
p^2 > 2^53) reduce each chunk against the RREF basis of the rows before it
(at most n rows), one vectorised update per pivot eliminates the chunk,
and its pivot rows join the basis.  RREF is canonical, so every route
returns the same R and pivots for every p with p^2 < 2^63 (see
`products_fit`).  The Python kernel's R stays a list of rows (the tall
route's is an array, mostly zero rows): `rref`
converts it to an array, while `rank` counts its pivots, `nullspace` and
`kernel_quotient` read their kernel vectors and class map off the rows,
`column_space_equations` reads both a column basis and its equations off
one reduction, and `random_invertible` reads the inverse of a draw g off
the right half of the rows of rref([g | 1]).  `random_gl` accepts the same
draws, in the same loop, off rref(g) alone, for a caller that needs no
inverse.  `random_matrix` draws each entry as `random.Random.randrange`
does, without its Python frames.
"""

from __future__ import annotations

import operator
from itertools import islice, repeat

import numpy as np

# Where _reduce's kernels win; see the module docstring.
_SMALL_CELLS = 256
_SPARSE_CELLS = 1024
_SPARSE_NONZEROS = 128
_SPARSE_PRIMES = 2**15  # residue products fit one 30-bit digit of a Python int
_CHUNK_ROWS = 64  # at least, in a chunk of _CHUNK_CELLS cells
_CHUNK_CELLS = 4096

# random_invertible and random_subspace give up after this many draws.  For an
# odd prime a random square matrix is invertible with probability above 1/2,
# so the cap is reached only for a p that is not prime (p = 1 never succeeds).
_MAX_DRAWS = 1000

# is_prime's Miller-Rabin bases, and the first strong pseudoprime to all four.
_MR_BASES = (2, 3, 5, 7)
_MR_BOUND = 3_215_031_751


def normalize(a, p: int) -> np.ndarray:
    return np.asarray(a, dtype=np.int64) % p


def eye(n: int) -> np.ndarray:
    out = np.zeros(n * n, dtype=np.int64)  # np.eye's overhead exceeds the fill at small n
    out[:: n + 1] = 1
    return out.reshape(n, n)


def zeros(shape) -> np.ndarray:
    return np.zeros(shape, dtype=np.int64)


def mat_mul(a, b, p: int) -> np.ndarray:
    return (normalize(a, p) @ normalize(b, p)) % p


def block_diag(blocks) -> np.ndarray:
    """The square matrices `blocks` down the diagonal, zeros elsewhere."""
    n = sum(len(b) for b in blocks)
    out = zeros((n, n))
    pos = 0
    for b in blocks:
        out[pos : pos + len(b), pos : pos + len(b)] = b
        pos += len(b)
    return out


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin to the bases 2, 3, 5 and 7, which is exact
    below 3 215 031 751 (Pomerance, Selfridge and Wagstaff, 1980); every p
    with p^2 < 2^63 lies below it, and a larger n raises ValueError.  Once
    no base divides n, an n below 11^2 is prime."""
    if n >= _MR_BOUND:
        raise ValueError(f"primality of {n} is not decided at or above {_MR_BOUND}")
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n < 121:
        return n > 1
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s d with d odd
    d = (n - 1) >> s
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1:
            continue
        for _ in range(s):  # is some b^(2^r d) = -1, r < s?
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def products_fit(p: int, n: int) -> bool:
    """Does a sum of n products of residues mod p stay below 2^63 (int64)?"""
    return max(n, 1) * p * p < 2**63


def odd_prime(p: int, error: type[Exception], n: int = 1) -> int:
    """p, if it is an odd prime whose sums of n products of residues fit
    int64; otherwise `error` with the reason.  The bound comes first, so
    `is_prime` sees only p < 2^31.5."""
    p = operator.index(p)  # a numpy integer's p * p would wrap
    if not products_fit(p, n):
        raise error(f"p is too large: n*p^2 must be below 2^63 at dimension n = {n}")
    if p == 2 or not is_prime(p):
        raise error("p must be an odd prime")
    return p


def rref(a, p: int):
    """Reduced row echelon form.  Returns (R, pivot_columns)."""
    r, pivots = _reduce(a, p)
    if isinstance(r, list):
        r = np.array(r, dtype=np.int64).reshape(np.shape(a))
    return r, pivots


def _reduce(a, p: int):
    """The one elimination of this module, by the kernel rule of its docstring.
    Returns (R, pivots): R is a fresh int64 array from the numpy kernel and
    the tall route, and a list of rows of Python ints from the Python kernel,
    which callers read without converting it."""
    p = operator.index(p)  # pow takes no numpy modulus, and p * p must not wrap
    r = np.ascontiguousarray(normalize(a, p))  # a fresh array; rows stay contiguous
    m, n = r.shape
    if r.size <= _SMALL_CELLS or (
        r.size <= _SPARSE_CELLS and max(m, n) <= 16 * min(m, n) and p < _SPARSE_PRIMES
        and np.count_nonzero(r) <= _SPARSE_NONZEROS
    ):
        return _rref_small(r.tolist(), n, p)
    if n * n <= _SMALL_CELLS and products_fit(p, n):  # tall: m > n
        rows, pivots, missed = [], [], r[:n]
        while len(missed):  # rows outside the span of the block's pivot rows
            block = rows[: len(pivots)] + missed[: n - len(pivots)].tolist()
            rows, pivots = _rref_small(block, n, p)
            kernel = _kernel_vectors(rows, pivots, _free_columns(pivots, n), n, p)
            missed = r[(r @ kernel % p).any(axis=1)]
        out = zeros((m, n))
        out[: len(rows)] = rows  # rows past the pivots are zero
        return out, pivots
    step = max(_CHUNK_ROWS, _CHUNK_CELLS // max(n, 1))
    if m <= step:
        return r, _eliminate(r, p)[1]
    rows = r.any(axis=1).nonzero()[0]  # a zero row adds nothing to the row space
    basis, pivots = r[:0], []
    for start in range(0, len(rows), step):
        if len(pivots) == n:  # the basis spans F_p^n: later rows reduce to 0
            break
        chunk = _subtract_product(r[rows[start : start + step]], pivots, basis, p)
        new, new_pivots = _eliminate(chunk, p)
        if new_pivots:
            basis = np.concatenate([_subtract_product(basis, new_pivots, new, p), new])
            pivots += new_pivots
            basis, pivots = basis[np.argsort(pivots)], sorted(pivots)
    out = zeros((m, n))
    out[: len(pivots)] = basis
    return out, pivots


def _subtract_product(rows, pivots, basis, p: int) -> np.ndarray:
    """rows - rows[:, pivots] @ basis mod p, in place, for a basis in RREF with
    those pivots.  A float64 (BLAS) matmul is exact while its sums stay below
    2^53 and an int64 one below 2^63, so each sums at most limit / p^2 products."""
    coeffs = rows[:, pivots]
    hit = coeffs.any(axis=1).nonzero()[0]
    limit, dtype = (2**53, np.float64) if p * p <= 2**53 else (2**63 - 1, np.int64)
    group = max(limit // (p * p), 1)
    coeffs, sub = coeffs[hit].astype(dtype, copy=False), rows[hit]
    for s in range(0, len(pivots), group):
        c = pivots[s]  # basis rows s on are zero left of column c
        update = coeffs[:, s : s + group] @ basis[s : s + group, c:].astype(dtype, copy=False)
        sub[:, c:] = (sub[:, c:] - update.astype(np.int64, copy=False)) % p
    rows[hit] = sub
    return rows


def _eliminate(r: np.ndarray, p: int):
    """Gauss-Jordan on r in place.  Returns its nonzero rows and their pivots."""
    pivots = []
    # Row operations keep a zero column zero, so only the others can hold a pivot.
    for col in r.any(axis=0).nonzero()[0].tolist():
        row = len(pivots)
        if row == len(r):
            break
        nz = r[row:, col].nonzero()[0]
        if nz.size == 0:
            continue
        if nz[0]:
            r[[row, row + nz[0]]] = r[[row + nz[0], row]]
        pivot = r[row, col:]  # entries left of col are zero in the pivot row
        if pivot[0] != 1:
            pivot[:] = (pivot * pow(int(pivot[0]), -1, p)) % p
        others = r[:, col].nonzero()[0]
        others = others[others != row]
        if others.size:
            r[others, col:] = (r[others, col:] - r[others, col, None] * pivot) % p
        pivots.append(col)
    return r[: len(pivots)], pivots


def _rref_small(rows: list, n: int, p: int):
    """Gauss-Jordan in place on the n columns of rows, lists of Python ints,
    with the same pivots and scaling as _eliminate.  Returns (rows, pivots)."""
    m = len(rows)
    pivots = []
    for col in range(n):
        row = len(pivots)
        if row == m:
            break
        for best in range(row, m):
            if rows[best][col]:
                break
        else:
            continue
        pivot = rows[best]
        rows[best], rows[row] = rows[row], pivot
        if pivot[col] != 1:
            scale = pow(pivot[col], -1, p)
            pivot[col:] = [x * scale % p for x in pivot[col:]]
        tail = None  # the pivot row's nonzeros right of col, once a row needs them
        for other in rows:
            f = other[col]
            if f and other is not pivot:
                if tail is None:
                    tail = [(j, y) for j, y in enumerate(pivot[col + 1 :], col + 1) if y]
                other[col] = 0
                for j, y in tail:
                    other[j] = (other[j] - f * y) % p
        pivots.append(col)
    return rows, pivots


def rank(a, p: int) -> int:
    return len(_reduce(a, p)[1])


def nullspace(a, p: int) -> np.ndarray:
    """Basis of the right kernel, as columns of an (n x k) matrix."""
    r, pivots = _reduce(a, p)
    n = np.shape(a)[1]
    return _kernel_vectors(r, pivots, _free_columns(pivots, n), n, p)


def _free_columns(pivots, n: int) -> list:
    at = set(pivots)
    return [j for j in range(n) if j not in at]


def _kernel_vectors(r, pivots, cols, n: int, p: int) -> np.ndarray:
    """The kernel vectors of a reduced (R, pivots) with n columns that are 1
    at one free column of `cols` and 0 at the other free columns, as the
    columns of an (n x len(cols)) matrix: at a pivot each holds -R's row."""
    if isinstance(r, list):  # read off the rows, with no array R
        vectors = []
        for c in cols:
            v = [0] * n
            v[c] = 1
            for i, row in zip(pivots, r):
                v[i] = -row[c] % p
            vectors.append(v)
        return np.array(vectors, dtype=np.int64).reshape(len(cols), n).T.copy()
    out = zeros((n, len(cols)))
    out[cols, range(len(cols))] = 1
    out[pivots] = -r[: len(pivots), cols] % p
    return out


def kernel_quotient(d1, d0, p: int):
    """(reps, free, to_class) of ker d1 / im d0 as the module docstring
    describes, for im d0 inside ker d1 (not checked): the representatives as
    columns, the free columns of rref(d1), and the (h1 x k) map from a
    cocycle's entries at free to its class coordinates."""
    r1, pivots1 = _reduce(d1, p)
    n = np.shape(d1)[1]
    free = _free_columns(pivots1, n)
    m, k = np.shape(d0)[1], len(free)
    r, pivots = _reduce(np.concatenate([d0[free], eye(k)], axis=1), p)
    r_d = sum(c < m for c in pivots)
    reps = _kernel_vectors(r1, pivots1, [free[c - m] for c in pivots[r_d:]], n, p)
    if isinstance(r, list):  # every row holds a pivot, so r has k rows
        to_class = np.array([row[m:] for row in r[r_d:]], dtype=np.int64).reshape(k - r_d, k)
    else:
        to_class = r[r_d:, m:]
    return reps, free, to_class


def solve(a, b, p: int):
    """One solution of A x = b, or None if inconsistent.

    b may be a vector or a matrix; for a matrix, x solves every column at
    once and None means some column is inconsistent.
    """
    b = np.asarray(b, dtype=np.int64)
    vec = b.ndim == 1
    if vec:
        b = b[:, None]
    n = np.shape(a)[1]
    r, pivots = rref(np.concatenate([a, b], axis=1), p)
    # Inconsistent iff some pivot lands in the augmented block.
    if pivots and pivots[-1] >= n:
        return None
    x = zeros((n, b.shape[1]))
    x[np.array(pivots, dtype=np.intp)] = r[: len(pivots), n:]
    return x[:, 0] if vec else x


def inv(a, p: int) -> np.ndarray:
    if np.ndim(a) != 2 or len(a) != np.shape(a)[1]:
        raise ValueError(f"only a square matrix has an inverse, not one of shape {np.shape(a)}")
    # A singular a leaves a pivot in the identity block, so solve gives None.
    x = solve(a, eye(len(a)), p)
    if x is None:
        raise ValueError("matrix is singular mod p")
    return x


def column_space(a, p: int) -> np.ndarray:
    """Column-span basis in RREF-canonical form (columns)."""
    r, pivots = rref(np.transpose(a), p)
    return r[: len(pivots)].T


def column_space_equations(a, p: int):
    """(column_space(a), nullspace(a^T)^T) off the one reduction of a^T: the
    canonical basis of span(a), and equations whose kernel it is."""
    r, pivots = _reduce(np.transpose(a), p)
    m = np.shape(a)[0]
    basis = np.array(r[: len(pivots)], dtype=np.int64).reshape(len(pivots), m).T
    return basis, _kernel_vectors(r, pivots, _free_columns(pivots, m), m, p).T


def span_contains(big, small, p: int) -> bool:
    """Is the vector `small`, or every column of the matrix `small`, in span(big)?"""
    return solve(big, small, p) is not None


def annihilator(basis, pairing, p: int) -> np.ndarray:
    """{y : <x, y> = 0 for all x in span(basis)} for <x,y> = x^T P y.

    Returns a column basis inside the right-hand space of the pairing.
    """
    basis = normalize(basis, p)
    pairing = normalize(pairing, p)
    return nullspace(basis.T @ pairing, p)


def fixed_equations(mats, n: int) -> np.ndarray:
    """The blocks g - 1 of the n x n matrices `mats`, stacked and unreduced
    (rref reduces): their common kernel is the space that every g fixes."""
    return np.concatenate([zeros((0, n)), *(np.asarray(g) - eye(n) for g in mats)])


class QuotientSpace:
    """Quotient span(numerator)/span(denominator) with canonical coordinates.

    Precondition, not checked: span(denominator) lies in span(numerator).

    One reduction of [den | num] gives both bases.  Its pivot columns inside
    den are kept as `den`, so the denominator may be any spanning set of the
    subspace, with dependent or zero columns.  Its pivot columns beyond den
    are `reps`, each independent of the columns before it: the greedy
    complement of span(den) among the numerator's columns, in order.
    """

    def __init__(self, numerator, denominator, p: int):
        self.p = p
        self.num = normalize(numerator, p)
        den = normalize(denominator, p)
        k = den.shape[1]
        pivots = _reduce(np.concatenate([den, self.num], axis=1), p)[1]
        r_d = sum(c < k for c in pivots)
        self.den = den[:, pivots[:r_d]]
        self.reps = self.num[:, [c - k for c in pivots[r_d:]]]
        self.dim = self.reps.shape[1]

    def coords(self, v) -> np.ndarray:
        """Coordinates of [v] on the representative basis.

        v may be one vector or a matrix whose columns are vectors.
        """
        x = solve(np.concatenate([self.den, self.reps], axis=1), v, self.p)
        if x is None:
            raise ValueError("vector is not in the numerator span")
        return x[self.den.shape[1] :]

    def coords_matrix(self, vectors) -> np.ndarray:
        """Coordinates of every column of `vectors`, one column each."""
        return self.coords(vectors)


def random_matrix(rng, m: int, n: int, p: int) -> np.ndarray:
    """Entries drawn as rng.randrange(p) draws them, row by row: p.bit_length()
    random bits, drawn again until they are below p."""
    p = operator.index(p)  # a numpy integer has no bit_length
    if p < 1:  # no residue to draw: getrandbits would never give one
        raise ValueError(f"no residues mod {p} to draw from")
    entries = filter(p.__gt__, map(rng.getrandbits, repeat(p.bit_length())))
    rows = [list(islice(entries, n)) for _ in range(m)]
    return np.array(rows, dtype=np.int64).reshape(m, n)


def random_invertible(rng, n: int, p: int):
    """A random invertible n x n matrix g mod p and g^-1, off one rref([g | 1])."""
    g, r = _invertible_draw(rng, n, p, eye(n))
    inverse = [row[n:] for row in r] if isinstance(r, list) else r[:, n:]
    return g, np.array(inverse, dtype=np.int64).reshape(n, n)


def random_gl(rng, n: int, p: int) -> np.ndarray:
    """The g of `random_invertible`, drawn alike, off one rref(g): no inverse."""
    return _invertible_draw(rng, n, p)[0]


def _invertible_draw(rng, n: int, p: int, right=None):
    """(g, R) for the first drawn g whose first n pivots in R = rref([g | right]),
    or rref(g) with no right block, are the n columns of g: the first
    invertible draw."""
    for _ in range(_MAX_DRAWS):
        g = random_matrix(rng, n, n, p)
        r, pivots = _reduce(g if right is None else np.concatenate([g, right], axis=1), p)
        if pivots[:n] == list(range(n)):  # mod 1 there are no pivots at all
            return g, r
    raise ValueError(f"no invertible {n} x {n} matrix mod {p} in {_MAX_DRAWS} draws")


def random_subspace(rng, n: int, dim: int, p: int) -> np.ndarray:
    """Random dim-dimensional subspace of F_p^n (column basis)."""
    if dim == 0:
        return zeros((n, 0))
    for _ in range(_MAX_DRAWS):
        # one reduction of a^T gives both the rank of a and its column basis
        r, pivots = rref(random_matrix(rng, n, dim, p).T, p)
        if len(pivots) == dim:
            return r.T
    raise ValueError(f"no {dim}-dimensional subspace of F_{p}^{n} in {_MAX_DRAWS} draws")
