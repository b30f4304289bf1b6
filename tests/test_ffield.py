import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from galdesk import ffield as ff
from span_oracle import intersect_spans

PRIMES = [5, 7, 11, 13]
BIG_PRIME = 3037000493  # the largest prime p with p^2 < 2^63


def small_matrix(draw, p, max_dim=6):
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    entries = draw(
        st.lists(st.integers(0, p - 1), min_size=m * n, max_size=m * n)
    )
    return np.array(entries, dtype=np.int64).reshape(m, n)


@st.composite
def matrices(draw):
    p = draw(st.sampled_from(PRIMES))
    return p, small_matrix(draw, p)


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_rank_nullity(case):
    p, a = case
    ns = ff.nullspace(a, p)
    assert ff.rank(a, p) + ns.shape[1] == a.shape[1]
    assert ((0 <= ns) & (ns < p)).all()
    if ns.shape[1]:
        assert not ((a @ ns) % p).any()


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_solve_consistency(case):
    p, a = case
    rng = np.random.default_rng(0)
    x = rng.integers(0, p, size=a.shape[1])
    b = (a @ x) % p
    sol = ff.solve(a, b, p)
    assert sol is not None
    assert np.array_equal((a @ sol) % p, b)


def test_solve_inconsistent():
    a = np.array([[1, 0], [2, 0]], dtype=np.int64)
    assert ff.solve(a, np.array([0, 1]), 5) is None


def test_inverse_roundtrip():
    rng = __import__("random").Random(3)
    for p in PRIMES:
        a = ff.random_invertible(rng, 5, p)[0]
        assert np.array_equal(ff.mat_mul(a, ff.inv(a, p), p), ff.eye(5))


def test_singular_inverse_raises():
    with pytest.raises(ValueError):
        ff.inv(np.array([[1, 2], [2, 4]]), 5)


@pytest.mark.parametrize("a", [np.ones((2, 3)), np.ones((3, 2)), np.ones(3), ff.zeros((0, 2))])
def test_non_square_inverse_raises(a):
    # A 2 x 3 matrix used to come back with a 3 x 2 one-sided inverse.
    with pytest.raises(ValueError, match="square"):
        ff.inv(a.astype(np.int64), 5)


def test_intersect_and_sum():
    p = 7
    a = np.array([[1, 0], [0, 1], [0, 0]], dtype=np.int64)
    b = np.array([[0, 0], [1, 0], [0, 1]], dtype=np.int64)
    inter = intersect_spans(a, b, p)
    assert inter.shape[1] == 1
    assert ff.span_contains(a, inter[:, 0], p) and ff.span_contains(b, inter[:, 0], p)
    total = ff.column_space(np.hstack([a, b]), p)
    assert total.shape[1] == 3


def test_annihilator_dimensions():
    rng = __import__("random").Random(11)
    p = 11
    pairing = ff.random_invertible(rng, 6, p)[0]
    sub = ff.random_subspace(rng, 6, 2, p)
    ann = ff.annihilator(sub, pairing, p)
    assert ann.shape[1] == 4
    assert not ((sub.T @ pairing @ ann) % p).any()


def test_quotient_space_coords():
    p = 5
    num = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=np.int64)
    den = np.array([[1], [0], [0]], dtype=np.int64)
    q = ff.QuotientSpace(num, den, p)
    assert q.dim == 2
    c = q.coords(np.array([3, 2, 4]))
    rebuilt = (q.reps @ c + den[:, 0] * 0) % p
    # The class of the rebuilt vector matches the input's class.
    assert np.array_equal(q.coords(rebuilt), c)
    with pytest.raises(ValueError, match="not in the numerator span"):
        ff.QuotientSpace(num[:, :2], den, p).coords(np.array([0, 0, 1]))


def test_quotient_reps_greedy_deterministic():
    p = 7
    sub = np.array([[1], [0], [0]], dtype=np.int64)  # column 0 minus column 1
    vecs = np.array([[1, 0, 0], [1, 1, 0], [0, 0, 1]], dtype=np.int64)
    ext = ff.QuotientSpace(vecs, sub, p).reps
    # Greedy in column order: col 0 extends, col 1 is then redundant, col 2 extends.
    assert ext.shape[1] == 2
    assert np.array_equal(ext[:, 0], vecs[:, 0])
    assert np.array_equal(ext[:, 1], vecs[:, 2])


# ---------------------------------------------------------------------------
# Oracles: the row-by-row elimination and the per-column greedy extension in
# pure Python, checked against the vectorised ffield versions.
# ---------------------------------------------------------------------------


def ref_rref(a, p):
    """Row-by-row Gauss-Jordan on lists of ints.  Returns (R, pivots)."""
    m, n = a.shape
    r = [[int(x) % p for x in row] for row in a.tolist()]
    pivots = []
    row = 0
    for col in range(n):
        if row == m:
            break
        best = next((i for i in range(row, m) if r[i][col]), None)
        if best is None:
            continue
        r[row], r[best] = r[best], r[row]
        scale = pow(r[row][col], p - 2, p)
        r[row] = [x * scale % p for x in r[row]]
        for i in range(m):
            if i != row and r[i][col]:
                f = r[i][col]
                r[i] = [(x - f * y) % p for x, y in zip(r[i], r[row])]
        pivots.append(col)
        row += 1
    return r, pivots


def ref_rank(a, p):
    return len(ref_rref(a, p)[1])


def ref_extend_basis(sub, vectors, p):
    """Greedy: keep a column when it raises the rank of what is kept so far."""
    current = sub
    chosen = []
    for j in range(vectors.shape[1]):
        cand = np.hstack([current, vectors[:, j : j + 1]])
        if ref_rank(cand, p) > ref_rank(current, p):
            current = cand
            chosen.append(j)
    return chosen


def seeded_matrix(seed, p, m, n, rank=None, zero_cols=()):
    """A random m x n matrix mod p, of rank at most `rank`, with zero columns."""
    rng = np.random.default_rng(seed)
    if rank is None:
        a = rng.integers(0, p, size=(m, n))
    else:
        # Python-int products: for p near 2^31.5 an int64 product would wrap.
        left = rng.integers(0, p, size=(m, rank)).astype(object)
        a = left @ rng.integers(0, p, size=(rank, n)).astype(object)
    a = a % p
    a[:, list(zero_cols)] = 0
    return a.astype(np.int64)


@st.composite
def shaped_matrices(draw, min_rows=0, max_rows=12, min_cols=0, max_cols=12):
    p = draw(st.sampled_from(PRIMES))
    m = draw(st.integers(min_rows, max_rows))
    n = draw(st.integers(min_cols, max_cols))
    rank = draw(st.none() | st.integers(0, max(min(m, n), 0)))
    zero_cols = draw(st.sets(st.integers(0, n - 1), max_size=n)) if n else set()
    seed = draw(st.integers(0, 2**32 - 1))
    return p, seeded_matrix(seed, p, m, n, rank, sorted(zero_cols))


def assert_rref_matches(a, p):
    r, pivots = ff.rref(a, p)
    ref_r, ref_pivots = ref_rref(a, p)
    assert pivots == ref_pivots
    assert r.shape == a.shape and r.dtype == np.int64
    assert r.tolist() == ref_r


@given(shaped_matrices())
@settings(max_examples=150, deadline=None)
def test_rref_matches_row_by_row_reference(case):
    p, a = case
    assert_rref_matches(a, p)


@given(shaped_matrices(min_rows=200, max_rows=260, min_cols=1, max_cols=8))
@settings(max_examples=25, deadline=None)
def test_rref_tall_matches_reference(case):
    p, a = case
    # Every row is nonzero in column 0, so the first pivot clears more than
    # one block of rows.
    a[:, 0] = np.random.default_rng(int(a.sum())).integers(1, p, size=a.shape[0])
    assert_rref_matches(a, p)


def sparse_matrix(seed, p, m, n, nonzeros):
    """An m x n matrix mod p with exactly `nonzeros` nonzero entries."""
    rng = np.random.default_rng(seed)
    a = np.zeros(m * n, dtype=np.int64)
    a[rng.choice(m * n, nonzeros, replace=False)] = rng.integers(1, p, size=nonzeros)
    return a.reshape(m, n)


def kernel_rule(a, p):
    """The kernel that ff._reduce runs on a by the rule of ffield's docstring:
    "python" (R is _rref_small's list of rows), "tall" (_rref_small on blocks
    of the rows of an input with m > n and n^2 <= ff._SMALL_CELLS, while its
    sums of n products fit int64; R is an array) or "numpy"."""
    (m, n), nonzeros = a.shape, np.count_nonzero(a)
    if a.size <= ff._SMALL_CELLS or (
        a.size <= ff._SPARSE_CELLS and max(m, n) <= 16 * min(m, n) and p < ff._SPARSE_PRIMES
            and nonzeros <= ff._SPARSE_NONZEROS):
        return "python"
    return "tall" if m > n and n * n <= ff._SMALL_CELLS and ff.products_fit(p, n) else "numpy"


def rref_and_kernel(a, p):
    """ff.rref(a, p), and the kernel that ran: "python" when ff._reduce returns
    _rref_small's rows, "tall" when _rref_small ran and R is an array, and
    "numpy" when _rref_small did not run."""
    inner, ran = ff._rref_small, []
    ff._rref_small = lambda rows, n, q: ran.append(q) or inner(rows, n, q)
    try:
        out, listed = ff.rref(a, p), isinstance(ff._reduce(a, p)[0], list)
    finally:
        ff._rref_small = inner
    return out, "python" if listed else "tall" if ran else "numpy"


def staircase_matrix(seed, p, m, n, rank, first):
    """L B mod p for random L (m x rank) and B (rank x n): the first n rows of
    L are zero past column `first`, and each later run of (m - n) / (rank -
    first) rows reaches one column further, nonzero there.  So the rows
    outside the first n rows' span come late, each run brings one new
    direction, and a reduction that adds up to n - rank missed rows at a
    time needs a round for each run of at least n rows."""
    rng = np.random.default_rng(seed)
    run = max((m - n) // max(rank - first, 1), 1)
    depth = np.minimum(first + 1 + (np.arange(m) - n) // run, rank)
    depth[:n] = first
    left = rng.integers(0, p, size=(m, rank)).astype(object)
    left[np.arange(rank) >= depth[:, None]] = 0
    last = depth > 0
    left[last.nonzero()[0], depth[last] - 1] = rng.integers(1, p, size=last.sum()).astype(object)
    # Python-int products: for p near 2^31.5 an int64 product would wrap.
    return (left @ rng.integers(0, p, size=(rank, n)).astype(object) % p).astype(np.int64)


@st.composite
def kernel_rule_matrices(draw):
    """Inputs just inside and just outside the rule that sends an input to
    rref's Python kernel, for T = ff._SMALL_CELLS, S = ff._SPARSE_CELLS and
    Z = ff._SPARSE_NONZEROS:
    - "small": dense, T/2 to T cells (inside);
    - "dense": dense, T to 2T cells (outside, unless few entries are nonzero);
    - "sparse": T to S cells with Z - 8 to Z nonzeros (inside for p below
      ff._SPARSE_PRIMES and neither side above sixteen times the other, outside
      otherwise);
    - "sparse-many": T to S cells with Z + 1 to Z + 8 nonzeros (outside);
    - "sparse-wide": S to 2S cells with Z - 8 to Z nonzeros (outside);
    - "tall": 1 to 17 columns, so n^2 on both sides of T, and n + 1 to 64 n
      rows (or 2T / n, for n < 3), of low or full rank, whose rows outside
      the first n rows' span come late (`staircase_matrix`), for the tall route's
      rounds;
    plus matrices with no rows or no columns."""
    t, s, z = ff._SMALL_CELLS, ff._SPARSE_CELLS, ff._SPARSE_NONZEROS
    p = draw(st.sampled_from(PRIMES + [32749, 32771, BIG_PRIME]))  # around 2^15
    kind = draw(st.sampled_from(["small", "dense", "sparse", "sparse-many", "sparse-wide",
                                 "tall"]))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "tall":
        n = draw(st.integers(1, 17))
        m = draw(st.integers(n + 1, max(64 * n, 2 * t // n)))
        rank = draw(st.just(n) | st.integers(0, n))
        a = staircase_matrix(seed, p, m, n, rank, draw(st.integers(0, rank)))
    else:
        n = draw(st.integers(1, 256))  # wide enough for both sides of the aspect bound
        lo, hi = {"small": (t // 2 + 1, t), "dense": (t + 1, 2 * t),
                  "sparse-wide": (s + 1, 2 * s)}.get(kind, (t + 1, s))
        m = draw(st.integers(-(-lo // n), hi // n))
    if kind in ("small", "dense"):
        rank = draw(st.none() | st.integers(0, min(m, n)))
        zero_cols = draw(st.sets(st.integers(0, n - 1), max_size=4))
        a = seeded_matrix(seed, p, m, n, rank, sorted(zero_cols))
    elif kind != "tall":
        nonzeros = draw(st.integers(z + 1, z + 8) if kind == "sparse-many"
                        else st.integers(z - 8, z))
        a = sparse_matrix(seed, p, m, n, nonzeros)
    empty = draw(st.sampled_from([None, None, "rows", "cols"]))
    if empty == "rows":
        a = a[:0]
    elif empty == "cols":
        a = ff.zeros((m * n, 0))
    return p, a


@given(kernel_rule_matrices())
@settings(max_examples=150, deadline=None)
def test_rref_kernels_match_reference_across_threshold(case):
    p, a = case
    (r, pivots), kernel = rref_and_kernel(a, p)
    assert kernel == kernel_rule(a, p)
    ref_r, ref_pivots = ref_rref(a, p)
    assert pivots == ref_pivots
    assert r.shape == a.shape and r.dtype == np.int64
    assert r.tolist() == ref_r


@st.composite
def python_kernel_matrices(draw):
    """Inputs of at most ff._SMALL_CELLS cells of the kinds the Python kernel
    takes shortcuts on:
    - "sparse": pivot rows with few nonzeros right of the pivot;
    - "unit": a scaled permutation matrix with random columns appended, so
      that many pivot columns need no row cleared;
    - "dense": random entries, for p of 2^15 and above as well."""
    p = draw(st.sampled_from(PRIMES + [32749, 32771, 65537, BIG_PRIME]))
    kind = draw(st.sampled_from(["sparse", "unit", "dense"]))
    seed = draw(st.integers(0, 2**32 - 1))
    m = draw(st.integers(1, 16))
    n = draw(st.integers(1, ff._SMALL_CELLS // m))
    if kind == "sparse":
        return p, sparse_matrix(seed, p, m, n, draw(st.integers(0, min(m * n, 2 * m))))
    if kind == "dense":
        return p, seeded_matrix(seed, p, m, n)
    k, rng = min(m, n), np.random.default_rng(seed)
    unit = ff.zeros((m, k))
    unit[rng.permutation(m)[:k], rng.permutation(k)] = rng.integers(1, p, size=k)
    extra = sparse_matrix(seed, p, m, n - k, draw(st.integers(0, m * (n - k))))
    return p, np.hstack([unit, extra])


@given(python_kernel_matrices())
@settings(max_examples=200, deadline=None)
def test_python_kernel_matches_numpy_kernel(case):
    p, a = case
    rows, pivots = ff._rref_small(a.tolist(), a.shape[1], p)
    expected = a.copy()
    assert pivots == ff._eliminate(expected, p)[1]
    assert rows == expected.tolist()


@given(kernel_rule_matrices(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_nullspace_and_rank_match_the_array_route(case, zero_row):
    """nullspace and rank read the Python kernel's rows without building R
    (no rref call); the oracle is the kernel basis read off rref's array R:
    the identity at the free columns and -R at the pivots."""
    p, a = case
    if zero_row and len(a):
        a = a.copy()
        a[len(a) // 2] = 0
    r, pivots = ff.rref(a, p)
    n = a.shape[1]
    free = [j for j in range(n) if j not in pivots]
    expected = ff.zeros((n, len(free)))
    expected[free, np.arange(len(free))] = 1
    expected[pivots] = -r[: len(pivots), free] % p
    reduce, rref, kernels = ff._reduce, ff.rref, []
    ff._reduce = lambda *args: kernels.append(reduce(*args)) or kernels[-1]
    ff.rref = lambda *args: pytest.fail("R built as an array")
    try:
        got = ff.nullspace(a, p)
    finally:
        ff._reduce, ff.rref = reduce, rref
    assert [isinstance(k[0], list) for k in kernels] == [kernel_rule(a, p) == "python"]
    assert got.dtype == np.int64 and got.shape == (n, n - len(pivots))
    assert got.tobytes() == expected.tobytes()
    assert ff.rank(a, p) == len(pivots)


@st.composite
def cocycle_systems(draw):
    """(p, d1, d0) with d1 d0 = 0 mod p: d0 = Z X for a kernel basis Z of d1
    and an X of any rank, zero columns included.  d1 has at most
    ff._SMALL_CELLS cells ("small"), more ("dense"), or is sparse enough for
    the Python kernel above that size ("sparse")."""
    t = ff._SMALL_CELLS
    kind = draw(st.sampled_from(["small", "dense", "sparse"]))
    p = draw(st.sampled_from(PRIMES + [32749, 65537]))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "sparse":
        r, n = draw(st.integers(16, 32)), draw(st.integers(17, 32))
        d1 = sparse_matrix(seed, p, r, n, draw(st.integers(8, ff._SPARSE_NONZEROS)))
    else:
        r = draw(st.integers(1, 16) if kind == "small" else st.integers(8, 24))
        n = draw(st.integers(1, t // r) if kind == "small" else st.integers(t // r + 1, 40))
        d1 = seeded_matrix(seed, p, r, n, draw(st.none() | st.integers(0, min(r, n))))
    z = ff.nullspace(d1, p)
    m = draw(st.integers(0, 8))
    x = seeded_matrix(seed + 1, p, z.shape[1], m, draw(st.integers(0, min(z.shape[1], m))))
    return p, d1, z @ x % p


@given(cocycle_systems())
@settings(max_examples=150, deadline=None)
def test_kernel_quotient_keeps_the_chosen_kernel_columns(case):
    """The representatives are the columns of nullspace(d1) that a reduction
    of [d0 | Z] in full coordinates picks, the greedy complement of im d0;
    free is that of rref(d1); and to_class maps each representative's
    entries at free to a unit vector."""
    p, d1, d0 = case
    z = ff.nullspace(d1, p)
    reps, free, to_class = ff.kernel_quotient(d1, d0, p)
    expected = ff.QuotientSpace(z, d0, p).reps
    assert reps.dtype == np.int64 and reps.shape == expected.shape
    assert reps.tobytes() == expected.tobytes()
    assert not (d1 @ reps % p).any()
    pivots = ff.rref(d1, p)[1]
    assert free == [j for j in range(d1.shape[1]) if j not in pivots]
    h1 = reps.shape[1]
    chosen = [np.flatnonzero(v)[0] for v in reps[free].T]  # each is 1 at one free column
    assert reps.tobytes() == z[:, chosen].tobytes()
    assert to_class.dtype == np.int64 and to_class.shape == (h1, len(free))
    assert (to_class @ reps[free] % p).tolist() == ff.eye(h1).tolist()


def test_kernel_rule_on_named_inputs():
    """The rule by name: a 1000 x 1000 matrix with 40 nonzeros has a million
    cells to scan, so it goes to numpy; a 20 x 21 one with 19 goes to Python,
    unless p is too large for one-digit products, and so does a 16 x 17 one
    with 77, the size of tame-duality's largest systems, and a sparse 50 x 6
    one; a sparse 4 x 256 one, one side 64 times the other, goes to numpy,
    whose cost per pivot does not grow with the long side, and a 256 x 4 one
    to the tall route, whose blocks have 4 rows.  Above T cells the tall
    route takes 17 x 16 (16^2 = T) and 300 x 1 at BIG_PRIME, but not 17 x 17,
    300 x 17 or 17 x 16 at BIG_PRIME, where 16 products pass 2^63."""
    t, z = ff._SMALL_CELLS, ff._SPARSE_NONZEROS
    cases = [
        (np.ones((1, t), dtype=np.int64), BIG_PRIME, "python"),
        (np.ones((1, t + 1), dtype=np.int64), 7, "numpy"),
        (sparse_matrix(0, 7, 20, 21, 19), 7, "python"),
        (sparse_matrix(0, 7, 20, 21, 19), BIG_PRIME, "numpy"),
        (sparse_matrix(0, 7, 16, 17, 77), 7, "python"),
        (sparse_matrix(0, 7, 32, 32, z), 7, "python"),
        (sparse_matrix(0, 7, 32, 32, z + 1), 7, "numpy"),
        (sparse_matrix(0, 7, 40, 10, z), 7, "python"),
        (sparse_matrix(0, 7, 50, 6, z), 7, "python"),
        (sparse_matrix(0, 7, 256, 4, z), 7, "tall"),
        (sparse_matrix(0, 7, 4, 256, z), 7, "numpy"),
        (sparse_matrix(0, 7, 1000, 1000, 40), 7, "numpy"),
        (seeded_matrix(0, 7, 17, 16), 7, "tall"),
        (seeded_matrix(0, 7, 17, 17), 7, "numpy"),
        (seeded_matrix(0, 7, 300, 17), 7, "numpy"),
        (seeded_matrix(0, BIG_PRIME, 17, 16), BIG_PRIME, "numpy"),
        (seeded_matrix(0, BIG_PRIME, 300, 1), BIG_PRIME, "tall"),
    ]
    for a, p, kernel in cases:
        assert rref_and_kernel(a, p)[1] == kernel
        assert_rref_matches(a, p)


def test_rref_does_not_modify_input():
    """Both kernels, the tall route, and the numpy kernel on one chunk and on
    many, which more than 16 columns keep off the tall route."""
    inputs = {
        "python, dense": np.array([[2, 4], [1, 3]], dtype=np.int64),
        "python, sparse": sparse_matrix(1, 5, 20, 21, 19),
        "tall": seeded_matrix(3, 5, 700, 12, rank=8, zero_cols=[3]),
        "numpy, one chunk": seeded_matrix(1, 5, 20, 17),
        "numpy, chunks": seeded_matrix(2, 5, 700, 17, rank=8, zero_cols=[3]),
    }
    for name, a in inputs.items():
        before = a.copy()
        (r, _), kernel = rref_and_kernel(a, 5)
        assert kernel == name.split(",")[0]
        assert np.array_equal(a, before)
        assert r.dtype == np.int64 and r.shape == a.shape
        assert not np.shares_memory(r, a)


# Primes whose grouped products are few per matmul: groups of two in float64
# (p^2 is just under 2^52) and in int64 (p = 2^31 - 1), one product in int64.
GROUPED_PRIMES = [67108859, 2147483647, BIG_PRIME]


def chunk_rows(n):
    return max(ff._CHUNK_ROWS, ff._CHUNK_CELLS // n)


@st.composite
def tall_matrices(draw, max_cols):
    """300 to 3000 rows, at k chunks and k chunks +- 1 row; full rank or rank
    deficient, with zero columns."""
    p = draw(st.sampled_from(PRIMES + GROUPED_PRIMES))
    n = draw(st.integers(2, max_cols))  # one column takes 4096 rows a chunk
    step = chunk_rows(n)
    k = draw(st.integers(-(-300 // step), 3000 // step))
    m = min(max(k * step + draw(st.sampled_from([-1, 0, 1])), 300), 3000)
    rank = draw(st.none() | st.integers(0, n))
    zero_cols = draw(st.sets(st.integers(0, n - 1), max_size=3))
    seed = draw(st.integers(0, 2**32 - 1))
    return p, seeded_matrix(seed, p, m, n, rank, sorted(zero_cols))


@given(tall_matrices(max_cols=10))
@settings(max_examples=30, deadline=None)
def test_rref_chunks_match_reference(case):
    p, a = case
    assert_rref_matches(a, p)


@pytest.mark.parametrize("p", [67108859, 134_217_689, BIG_PRIME])
def test_rref_chunks_exact_for_large_primes(p):
    """Just under p^2 = 2^52 a float64 matmul sums two products exactly, and
    four would round; at 2^53 < p^2 < 2^54 a float64 matmul would round the
    products, so they are taken in int64; at BIG_PRIME one product at a time
    fits int64, and two do not.  Rank 4 < 6 keeps every chunk in the loop."""
    assert 1500 > 2 * chunk_rows(6)
    assert_rref_matches(seeded_matrix(0, p, 1500, 6, rank=4), p)


@pytest.mark.parametrize("p", [67108859, 134_217_689, BIG_PRIME])
def test_rref_chunks_exact_for_large_primes_past_the_tall_route(p):
    """The primes of test_rref_chunks_exact_for_large_primes on 20 columns,
    which keep the input off the tall route at every p, so the chunks' float64
    and int64 matmuls run at each."""
    assert 1500 > 2 * chunk_rows(20) and 20 * 20 > ff._SMALL_CELLS
    a = seeded_matrix(0, p, 1500, 20, rank=4)
    assert rref_and_kernel(a, p)[1] == "numpy"
    assert_rref_matches(a, p)


@pytest.mark.parametrize("late", [0, 3, 7])
def test_rref_pivot_from_the_last_chunk(late):
    """Every row but the last lies in a hyperplane that is not a coordinate
    one, so the chunks before the last reach rank n - 1; the last row brings
    the pivot at column `late`, where their basis must be cleared."""
    p, m, n = 7, 1500, 8
    assert m > 2 * chunk_rows(n)
    a = np.random.default_rng(late).integers(0, p, size=(m, n))
    a[:, late] = (a[:, (late + 1) % n] + 2 * a[:, (late + 2) % n]) % p
    a[-1] = ff.eye(n)[late]
    assert_rref_matches(a, p)


def mul_mod(a, b, p):
    """a @ b mod p, exact in int64 for residues below p < 2^31.5 and at most
    120 terms a sum: b is split into 16-bit halves, so every sum stays below
    120 * 2^47.5 < 2^55."""
    return ((a @ (b >> 16) % p << 16) + a @ (b & 0xFFFF)) % p


@st.composite
def planted_tall_matrices(draw):
    """A = L B for a planted RREF B (k x n) and an m x k matrix L of full
    column rank, so RREF(A) is B over zero rows.  The first q rows of L span
    only k - d dimensions, in no coordinate subspace, and its last m - q rows
    hold an identity: later chunks bring pivots, in any column, at which the
    basis must be cleared.  Wide enough for chunks of _CHUNK_ROWS rows, where
    ref_rref is slow."""
    p = draw(st.sampled_from(PRIMES + GROUPED_PRIMES))
    n = draw(st.integers(40, 120))
    step = chunk_rows(n)
    m = min(max(draw(st.integers(300 // step, 3000 // step)) * step
                + draw(st.sampled_from([-1, 0, 1])), 300), 3000)
    k = draw(st.sampled_from([n, n - 1]) | st.integers(0, n))
    d = draw(st.integers(0, min(k, 2)) | st.integers(0, k))
    q = draw(st.integers(0, m - k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pivots = sorted(rng.choice(n, k, replace=False).tolist())
    b = ff.zeros((k, n))
    for i, c in enumerate(pivots):
        free = [j for j in range(c + 1, n) if j not in pivots]
        b[i, free] = rng.integers(0, p, size=len(free))
        b[i, c] = 1
    left = rng.integers(0, p, size=(m, k))
    left[:q] = mul_mod(left[:q, : k - d], rng.integers(0, p, size=(k - d, k)), p)
    left[q + rng.choice(m - q, k, replace=False)] = np.eye(k, dtype=np.int64)
    return p, mul_mod(left, b, p), b, pivots


@given(planted_tall_matrices())
@settings(max_examples=30, deadline=None)
def test_rref_chunks_match_planted_basis(case):
    p, a, b, pivots = case
    r, got = ff.rref(a, p)
    assert got == pivots
    assert r.shape == a.shape and r.dtype == np.int64
    assert r[: len(pivots)].tolist() == b.tolist() and not r[len(pivots) :].any()


def test_products_fit_bounds_p():
    assert ff.products_fit(BIG_PRIME, 1)
    assert not ff.products_fit(BIG_PRIME, 2)
    assert not ff.products_fit(4294967311, 1)
    assert ff.products_fit(13, 10**15) and not ff.products_fit(13, 10**17)


def test_random_invertible_carries_its_inverse():
    """g g^-1 = 1, and the draws are those of a rank check on each draw."""
    for p in PRIMES + [BIG_PRIME]:
        for n in range(6):
            rng, ref = random.Random(p * 10 + n), random.Random(p * 10 + n)
            for _ in range(5):
                g, g_inv = ff.random_invertible(rng, n, p)
                expected = ff.random_matrix(ref, n, n, p)
                while ref_rank(expected, p) < n:
                    expected = ff.random_matrix(ref, n, n, p)
                assert np.array_equal(g, expected)
                assert g_inv.dtype == np.int64 and ((0 <= g_inv) & (g_inv < p)).all()
                product = g.astype(object) @ g_inv.astype(object) % p  # no int64 wraparound
                assert product.tolist() == ff.eye(n).tolist()


# The draws as they were made before random_matrix drew bits itself and
# random_invertible read g^-1 off the Python kernel's rows: the oracles.
def randrange_matrix(rng, m, n, p):
    rows = [[rng.randrange(p) for _ in range(n)] for _ in range(m)]
    return np.array(rows, dtype=np.int64).reshape(m, n)


def randrange_invertible(rng, n, p):
    while True:
        a = randrange_matrix(rng, n, n, p)
        r, pivots = ff.rref(np.hstack([a, ff.eye(n)]), p)
        if pivots[:n] == list(range(n)):
            return a, r[:, n:]


@pytest.mark.parametrize("p", [1, 2, 3, 5, 7, 13, 2**15 + 3, 2**31 - 1, BIG_PRIME])
def test_random_matrix_draws_as_randrange(p):
    for seed, (m, n) in enumerate([(0, 0), (0, 4), (4, 0), (1, 1), (3, 5), (6, 6), (20, 3)]):
        rng, ref = random.Random(seed), random.Random(seed)
        got = ff.random_matrix(rng, m, n, p)
        assert got.dtype == np.int64 and got.shape == (m, n)
        assert got.tobytes() == randrange_matrix(ref, m, n, p).tobytes()
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("p", [0, -1, -7])
def test_random_matrix_refuses_a_modulus_below_one(p):
    """As randrange does; getrandbits would never give a residue."""
    class NoBits:
        def getrandbits(self, k):
            pytest.fail("drew bits")

    with pytest.raises(ValueError):
        random.Random(0).randrange(p)
    with pytest.raises(ValueError, match="no residues"):
        ff.random_matrix(NoBits(), 2, 2, p)


def test_random_invertible_draws_as_before():
    """Byte for byte and to the generator's state, over both kernels: [g | 1]
    is 2 n^2 cells, so n >= 12 goes to numpy unless p is small enough for
    sparse, and mod 2 and 3 many draws are singular."""
    for seed in range(200):
        n = seed % 14
        for p in (2, 3, 7, BIG_PRIME):
            rng, ref = random.Random(seed), random.Random(seed)
            g, g_inv = ff.random_invertible(rng, n, p)
            expected, expected_inv = randrange_invertible(ref, n, p)
            assert g.tobytes() == expected.tobytes() and g.shape == expected.shape
            assert g_inv.dtype == np.int64 and g_inv.shape == (n, n)
            assert g_inv.tobytes() == expected_inv.tobytes()
            assert rng.getstate() == ref.getstate()


def test_random_gl_draws_as_random_invertible(monkeypatch):
    """The same g and generator state as random_invertible, off a reduction
    of the n x n draw alone, over both kernels."""
    shapes = count_reduced_shapes(monkeypatch)
    for seed in range(100):
        n = seed % 14
        for p in (2, 3, 7, BIG_PRIME):
            rng, ref = random.Random(seed), random.Random(seed)
            shapes.clear()
            g = ff.random_gl(rng, n, p)
            assert set(shapes) <= {(n, n)} and len(shapes) >= 1
            assert g.tobytes() == ff.random_invertible(ref, n, p)[0].tobytes()
            assert g.shape == (n, n) and rng.getstate() == ref.getstate()
    with pytest.raises(ValueError, match="draws"):
        ff.random_gl(random.Random(0), 2, 1)


def count_reduced_shapes(monkeypatch):
    shapes = []
    reduce = ff._reduce
    monkeypatch.setattr(ff, "_reduce", lambda a, p: shapes.append(np.shape(a)) or reduce(a, p))
    return shapes


def test_eye_is_numpy_eye():
    for n in range(40):
        got = ff.eye(n)
        assert got.dtype == np.int64 and got.flags.c_contiguous and got.flags.writeable
        assert got.shape == (n, n) and got.tobytes() == np.eye(n, dtype=np.int64).tobytes()


@pytest.mark.parametrize("p", PRIMES + [BIG_PRIME])
def test_column_space_equations_is_one_reduction(monkeypatch, p):
    """column_space(a) and nullspace(a^T)^T byte for byte, off one reduction,
    on both kernels and with dependent, zero and no columns."""
    rng = random.Random(p)
    cases = [ff.zeros((3, 0)), ff.zeros((0, 2)), ff.zeros((4, 2)), ff.eye(5)]
    for _ in range(60):
        m, k = rng.randrange(1, 40), rng.randrange(1, 12)
        a = ff.random_matrix(rng, m, k, p)
        cases.append(np.concatenate([a, a[:, :1] * 2 % p, ff.zeros((m, 1))], axis=1))
    shapes = count_reduced_shapes(monkeypatch)
    for a in cases:
        shapes.clear()
        basis, equations = ff.column_space_equations(a, p)
        assert shapes == [a.T.shape]
        assert basis.dtype == equations.dtype == np.int64
        assert basis.shape == (len(a), ref_rank(a, p))
        assert basis.tobytes() == ff.column_space(a, p).tobytes()
        assert equations.tobytes() == ff.nullspace(a.T, p).T.tobytes()
        assert equations.shape == (len(a) - basis.shape[1], len(a))


def test_random_draws_are_capped():
    # Mod 1 every draw has rank 0, so neither loop can succeed.
    rng = __import__("random").Random(0)
    with pytest.raises(ValueError, match="draws"):
        ff.random_invertible(rng, 2, 1)
    with pytest.raises(ValueError, match="draws"):
        ff.random_subspace(rng, 3, 1, 1)


@st.composite
def extension_cases(draw, inside=False):
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, 8))
    k_sub = draw(st.integers(0, 6))
    k_vec = draw(st.integers(0, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    # A dependent sub: its columns span at most n // 2 dimensions.
    sub = seeded_matrix(seed, p, n, k_sub, rank=min(k_sub, n // 2))
    vectors = seeded_matrix(seed + 1, p, n, k_vec, rank=draw(st.none() | st.integers(0, n)))
    # Some vectors repeat sub's columns or are zero.
    for j in range(k_vec):
        pick = rng.integers(0, 3)
        if pick == 0 and k_sub:
            vectors[:, j] = sub[:, rng.integers(0, k_sub)]
        elif pick == 1:
            vectors[:, j] = 0
    if inside:  # sub = vectors C lies in span(vectors), as QuotientSpace requires
        sub = (vectors @ seeded_matrix(seed + 2, p, k_vec, k_sub, min(k_sub, k_vec, n // 2))) % p
    return p, sub, vectors


@given(extension_cases(inside=True))
@settings(max_examples=120, deadline=None)
def test_quotient_reps_match_greedy_reference(case):
    p, sub, vectors = case
    expected = vectors[:, ref_extend_basis(sub, vectors, p)]
    assert np.array_equal(ff.QuotientSpace(vectors, sub, p).reps, expected)


def test_quotient_reps_empty_sub_and_zero_columns():
    p = 7
    vectors = np.array([[0, 1, 2, 0], [0, 0, 0, 1], [0, 0, 0, 0]], dtype=np.int64)
    ext = ff.QuotientSpace(vectors, ff.zeros((3, 0)), p).reps
    assert np.array_equal(ext, vectors[:, [1, 3]])
    assert ff.QuotientSpace(ff.zeros((3, 0)), ff.zeros((3, 0)), p).reps.shape == (3, 0)


@given(extension_cases())
@settings(max_examples=80, deadline=None)
def test_coords_matrix_matches_per_column_coords(case):
    p, sub, vectors = case
    q = ff.QuotientSpace(np.hstack([sub, vectors]), sub, p)
    span = np.hstack([sub, vectors])
    rng = np.random.default_rng(int(span.sum()))
    # Random combinations of the numerator, so every column has coordinates.
    vecs = (span @ rng.integers(0, p, size=(span.shape[1], 4))) % p
    expected = np.column_stack([q.coords(vecs[:, j]) for j in range(4)])
    assert np.array_equal(q.coords_matrix(vecs), expected)
    assert q.coords_matrix(ff.zeros((span.shape[0], 0))).shape == (q.dim, 0)


@given(extension_cases())
@settings(max_examples=80, deadline=None)
def test_span_contains_matches_rank_reference(case):
    p, big, small = case
    expected = ref_rank(np.hstack([big, small]), p) == ref_rank(big, p)
    assert ff.span_contains(big, small, p) == expected


def test_span_contains_edge_cases():
    p = 5
    big = np.array([[1], [0]], dtype=np.int64)
    assert ff.span_contains(big, ff.zeros((2, 0)), p)
    assert ff.span_contains(ff.zeros((2, 0)), ff.zeros((2, 0)), p)
    assert ff.span_contains(ff.zeros((2, 0)), ff.zeros((2, 3)), p)
    assert not ff.span_contains(ff.zeros((2, 0)), np.array([[0, 1], [0, 0]]), p)
    assert not ff.span_contains(big, np.array([[1, 0], [0, 1]]), p)


def test_solve_matrix_rhs_with_one_inconsistent_column():
    p = 7
    a = np.array([[1, 2], [2, 4], [0, 1]], dtype=np.int64)
    good = (a @ np.array([[3, 1], [5, 6]])) % p
    x = ff.solve(a, good, p)
    assert x is not None and np.array_equal((a @ x) % p, good)
    bad = good.copy()
    bad[1, 1] = (bad[1, 1] + 1) % p  # row 1 is no longer twice row 0
    assert ff.solve(a, bad, p) is None
    assert ff.solve(a, bad[:, 1], p) is None
    assert np.array_equal(ff.solve(a, bad[:, 0], p), x[:, 0])


# ---------------------------------------------------------------------------
# Oracle: the two-elimination QuotientSpace (a containment solve, then the
# greedy reference extension), checked against the one-reduction ff.QuotientSpace.
# ---------------------------------------------------------------------------


class TwoEliminationQuotient:
    """Quotient span(numerator)/span(denominator) with canonical coordinates."""

    def __init__(self, numerator, denominator, p: int):
        self.p = p
        self.num = ff.normalize(numerator, p)
        self.den = ff.normalize(denominator, p)
        if self.den.size and not ff.span_contains(self.num, self.den, p):
            raise ValueError("denominator is not contained in numerator")
        self.reps = self.num[:, ref_extend_basis(self.den, self.num, p)]
        self.dim = self.reps.shape[1]

    def coords(self, v) -> np.ndarray:
        """Coordinates of [v] on the representative basis.

        v may be one vector or a matrix whose columns are vectors.
        """
        x = ff.solve(np.hstack([self.den, self.reps]), v, self.p)
        if x is None:
            raise ValueError("vector is not in the numerator span")
        return x[self.den.shape[1] :]

    def coords_matrix(self, vectors) -> np.ndarray:
        """Coordinates of every column of `vectors`, one column each."""
        return self.coords(vectors)


@st.composite
def quotient_cases(draw):
    """(p, num, den): num dependent with zero columns; den = num C, dependent,
    zero or empty, and inside span(num) as QuotientSpace requires."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(0, 8))
    k_num = draw(st.integers(0, 9))
    k_den = draw(st.integers(0, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    num_zeros = draw(st.sets(st.integers(0, k_num - 1), max_size=3)) if k_num else set()
    num = seeded_matrix(seed, p, n, k_num, draw(st.none() | st.integers(0, n)),
                        sorted(num_zeros))
    # C of rank at most `den_rank`.
    den_rank = draw(st.integers(0, min(k_num, k_den)))
    den = (num @ seeded_matrix(seed + 1, p, k_num, k_den, den_rank)) % p
    if k_den and draw(st.booleans()):
        den[:, rng.integers(0, k_den)] = 0
    return p, num, den


@given(quotient_cases())
@settings(max_examples=400, deadline=None)
def test_quotient_space_matches_two_elimination_oracle(case):
    p, num, den = case
    expected = TwoEliminationQuotient(num, den, p)
    q = ff.QuotientSpace(num, den, p)
    assert q.dim == expected.dim
    assert q.reps.tobytes() == expected.reps.tobytes()
    assert q.reps.shape == expected.reps.shape
    # den is a basis of span(den): independent columns with the same span.
    assert q.den.shape[1] == ff.rank(den, p)
    assert np.array_equal(ff.column_space(q.den, p), ff.column_space(expected.den, p))
    rng = np.random.default_rng(int(num.sum()) + num.size)
    vecs = (num @ rng.integers(0, p, size=(num.shape[1], 5))) % p
    got = q.coords_matrix(vecs)
    assert got.tobytes() == expected.coords_matrix(vecs).tobytes()
    assert got.shape == (q.dim, 5)


def test_quotient_space_makes_one_reduction(monkeypatch):
    p = 7
    num = seeded_matrix(3, p, 6, 5)
    den = np.hstack([num[:, :2], num[:, :2] * 3 % p, ff.zeros((6, 1))])  # rank 2
    reduce = ff._reduce
    shapes = []
    monkeypatch.setattr(ff, "_reduce", lambda a, p: shapes.append(np.shape(a)) or reduce(a, p))
    q = ff.QuotientSpace(num, den, p)
    assert shapes == [(6, 10)]
    assert q.den.shape == (6, 2) and q.dim == ff.rank(num, p) - 2
    shapes.clear()
    ff.QuotientSpace(num, ff.zeros((6, 3)), p)
    assert shapes == [(6, 8)]


# Empty inputs: what the elimination returns for them is what each helper
# once special-cased, in shape, dtype and bytes.
EMPTY_SHAPES = [(0, 3), (3, 0), (0, 0)]


@pytest.mark.parametrize("shape", EMPTY_SHAPES)
def test_empty_inputs_need_no_special_case(shape):
    p = 7
    m, n = shape
    empty = ff.zeros(shape)

    def same(got, expected):
        return got.shape == expected.shape and got.dtype == expected.dtype \
            and got.tobytes() == expected.tobytes()

    assert ff.rank(empty, p) == 0
    assert [g.shape for g in ff.random_invertible(random.Random(0), 0, p)] == [(0, 0)] * 2
    # nullspace of no equations: all of F_p^n.
    assert same(ff.nullspace(empty, p), ff.eye(n))
    # span_contains with nothing to span: only zero columns lie inside.
    assert ff.span_contains(empty, ff.zeros((m, 2)), p)
    assert ff.span_contains(empty, ff.zeros(m), p)
    if m:
        assert not ff.span_contains(empty, ff.eye(m)[:, :1], p)
        assert not ff.span_contains(empty, ff.eye(m)[0], p)
    # intersect_spans with an empty side: no columns.
    other = np.ones((m, 2), dtype=np.int64)
    for a, b in [(empty, other), (other, empty), (empty, empty)]:
        assert same(intersect_spans(a, b, p), ff.zeros((m, 0)))
    # annihilator of the zero subspace: the whole right-hand space.
    if n == 0:
        pairing = ff.eye(m) if m else ff.zeros((0, 0))
        assert same(ff.annihilator(empty, pairing, p), ff.eye(m))
        assert same(ff.annihilator(empty, np.ones((m, 4), dtype=np.int64), p), ff.eye(4))


def trial_division_is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_primality_below_thirty():
    assert [n for n in range(-2, 30) if ff.is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    odd = []
    for n in range(30):
        try:
            odd.append(ff.odd_prime(n, ValueError))
        except ValueError as e:
            assert str(e) == "p must be an odd prime"
    assert odd == [3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_miller_rabin_matches_trial_division_below_1e5():
    assert [n for n in range(10**5) if ff.is_prime(n)] == \
        [n for n in range(10**5) if trial_division_is_prime(n)]


@pytest.mark.parametrize("n", [2047, 1_373_653, 25_326_001])
def test_each_miller_rabin_base_is_needed(n):
    """The first strong pseudoprimes to the bases {2}, {2, 3} and {2, 3, 5}:
    each is odd, not a multiple of 3, 5 or 7, and composite."""
    assert not trial_division_is_prime(n) and all(n % b for b in (2, 3, 5, 7))
    assert not ff.is_prime(n)


def test_a_fermat_liar_to_every_base_is_composite():
    """1 024 651 = 19.199.271 has b^(n - 1) = 1 for b = 2, 3, 5 and 7, but
    2^((n - 1)/2) is a square root of 1 other than +-1, which only the
    strong test sees."""
    n = 1_024_651
    assert not trial_division_is_prime(n) and all(pow(b, n - 1, n) == 1 for b in (2, 3, 5, 7))
    assert pow(2, (n - 1) // 2, n) not in (1, n - 1)
    assert not ff.is_prime(n)


def test_primality_is_decided_below_the_first_strong_pseudoprime_to_2_3_5_7():
    assert ff.is_prime(BIG_PRIME) and ff.is_prime(2**31 - 1) and ff.is_prime(3_215_031_749)
    assert not ff.is_prime(BIG_PRIME - 2)
    for n in (3_215_031_751, 2**61 - 1, 2**200):
        with pytest.raises(ValueError, match="not decided"):
            ff.is_prime(n)


def test_odd_prime_bounds_p_before_testing_it():
    assert ff.odd_prime(BIG_PRIME, ValueError) == BIG_PRIME
    too_large = "p is too large: n*p^2 must be below 2^63 at dimension n = "
    for p, n in ((BIG_PRIME, 2), (3_215_031_751, 1), (2**61 - 1, 1), (2**200, 3)):
        with pytest.raises(ValueError) as err:
            ff.odd_prime(p, ValueError, n)
        assert str(err.value) == f"{too_large}{n}"
    with pytest.raises(ValueError, match="^p must be an odd prime$"):
        ff.odd_prime(BIG_PRIME - 2, ValueError)
    # A numpy integer is bounded as the int it holds: its own p * p wraps.
    with pytest.raises(ValueError, match="^p is too large"):
        ff.odd_prime(np.int64(2**61 - 1), ValueError)
    assert ff.odd_prime(np.int64(13), ValueError) == 13
    with pytest.raises(TypeError):
        ff.odd_prime(7.0, ValueError)


def test_block_diag_places_each_block_on_the_diagonal():
    out = ff.block_diag([np.array([[1, 2], [3, 4]]), ff.zeros((0, 0)), np.array([[5]])])
    assert out.tolist() == [[1, 2, 0], [3, 4, 0], [0, 0, 5]]
    assert out.dtype == np.int64
    assert ff.block_diag([]).shape == (0, 0)
