"""Split reductive root data: roots, coroots, Weyl group, torus elements.

Roots are stored in simple-root coordinates and coroots in simple-coroot
coordinates; the Cartan matrix C with C[i][j] = <alpha_i, alpha_j^vee>
carries the pairing.  Weights live in fundamental-weight coordinates
extended by central coordinates, cocharacters in simple-coroot coordinates
extended the same way.  GL_n gets its own torus model (standard basis of
the diagonal cocharacter lattice) so that integral GL_n cocharacters like
diag(t, 1) are representable exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import ffield as ff
from .errors import InputError


class RootDatumError(InputError):
    pass


FAMILIES = ("A", "B", "C", "D", "E", "F", "G")

# The largest semisimple and central ranks; the reflection closure grows like rank^5.
MAX_RANK = 16

# Order of the center of the simply connected cover, per irreducible family.
def _center_order(family: str, rank: int) -> int:
    if family == "A":
        return rank + 1
    if family in ("B", "C"):
        return 2
    if family == "D":
        return 4
    if family == "E":
        return {6: 3, 7: 2, 8: 1}[rank]
    return 1  # F4, G2


# Primes that fail to be very good, per irreducible family.
def _very_good_exclusions(family: str, rank: int) -> set[int]:
    if family == "A":
        return {q for q in range(2, rank + 2) if (rank + 1) % q == 0 and ff.is_prime(q)}
    if family in ("B", "C", "D"):
        return {2}
    if family == "E" and rank == 8:
        return {2, 3, 5}
    return {2, 3}  # E6, E7, F4, G2


def _cartan_matrix(family: str, rank: int) -> np.ndarray:
    """Cartan matrix with C[i][j] = <alpha_i, alpha_j^vee> (Bourbaki numbering)."""
    if family not in FAMILIES:
        raise RootDatumError(f"unrecognized family {family!r}")
    c = 2 * np.eye(rank, dtype=np.int64)

    def link(i, j, cij=-1, cji=-1):
        c[i, j] = cij
        c[j, i] = cji

    if family == "A":
        if rank < 1:
            raise RootDatumError("rank must be >= 1")
        for i in range(rank - 1):
            link(i, i + 1)
    elif family == "B":
        # alpha_rank is the short root: <alpha_{n-1}, alpha_n^vee> = -2.
        if rank < 2:
            raise RootDatumError("B requires rank >= 2")
        for i in range(rank - 1):
            link(i, i + 1)
        c[rank - 2, rank - 1] = -2
    elif family == "C":
        if rank < 2:
            raise RootDatumError("C requires rank >= 2")
        for i in range(rank - 1):
            link(i, i + 1)
        c[rank - 1, rank - 2] = -2
    elif family == "D":
        if rank < 4:
            raise RootDatumError("D requires rank >= 4")
        for i in range(rank - 2):
            link(i, i + 1)
        link(rank - 3, rank - 1)
        c[rank - 2, rank - 1] = 0
        c[rank - 1, rank - 2] = 0
    elif family == "E":
        if rank not in (6, 7, 8):
            raise RootDatumError("E requires rank in {6,7,8}")
        # Bourbaki: node 2 (0-indexed 1) hangs off node 4 (0-indexed 3).
        chain = [0, 2, 3, 4, 5, 6, 7][: rank - 1]
        for a, b in zip(chain, chain[1:]):
            link(a, b)
        link(1, 3)
    elif family == "F":
        if rank != 4:
            raise RootDatumError("F requires rank 4")
        link(0, 1)
        link(1, 2, cij=-2, cji=-1)
        link(2, 3)
    elif family == "G":
        if rank != 2:
            raise RootDatumError("G requires rank 2")
        link(0, 1, cij=-1, cji=-3)
    return c


def _block_diag(blocks: list[np.ndarray]) -> np.ndarray:
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n), dtype=np.int64)
    pos = 0
    for b in blocks:
        k = b.shape[0]
        out[pos : pos + k, pos : pos + k] = b
        pos += k
    return out


@dataclass(frozen=True, eq=False)
class RootDatum:
    """Immutable root datum for a split reductive group."""

    cartan_type: tuple[tuple[str, int], ...]
    cartan: np.ndarray  # d x d, C[i][j] = <alpha_i, alpha_j^vee>
    positive_roots: tuple[tuple[int, ...], ...]  # simple-root coordinates
    coxeter_numbers: tuple[int, ...]  # one per irreducible factor
    # Torus model: weights and cocharacters live in dual copies of Z^n, so
    # the rows alpha_i also give <alpha_i, basis_j> and the rows alpha_i^vee
    # give <basis_j, alpha_i^vee>.
    root_vectors: np.ndarray  # d x n, rows are alpha_i
    coroot_vectors: np.ndarray  # d x n, rows are alpha_i^vee

    # -- basic sizes ---------------------------------------------------

    @property
    def rank_ss(self) -> int:
        return self.cartan.shape[0]

    @property
    def weight_dim(self) -> int:
        return self.root_vectors.shape[1]

    @property
    def num_positive(self) -> int:
        return len(self.positive_roots)

    def all_roots(self) -> list[tuple[int, ...]]:
        return list(self.positive_roots) + [
            tuple(-c for c in r) for r in self.positive_roots
        ]

    def height(self, root) -> int:
        return int(sum(root))

    @property
    def coxeter_number(self) -> int:
        """Coxeter number; max over irreducible factors for compound types."""
        if not self.coxeter_numbers:
            raise RootDatumError("semisimple part is empty")
        return max(self.coxeter_numbers)

    @property
    def center_order(self) -> int:
        out = 1
        for fam, rk in self.cartan_type:
            out *= _center_order(fam, rk)
        return out

    # -- pairings and reflections ---------------------------------------

    def pair_root_coroot(self, root, coroot_index: int) -> int:
        """<root, alpha_j^vee> for a root in simple-root coordinates."""
        return int(sum(root[i] * self.cartan[i, coroot_index] for i in range(self.rank_ss)))

    def reflect_root(self, root, j: int) -> tuple[int, ...]:
        out = [int(c) for c in root]
        out[j] -= self.pair_root_coroot(root, j)
        return tuple(out)

    def reflect_cochar(self, mu, j: int) -> np.ndarray:
        mu = np.asarray(mu, dtype=np.int64)
        return mu - int(np.dot(self.root_vectors[j], mu)) * self.coroot_vectors[j]

    def pair_weight_coroot(self, lam, j: int) -> int:
        return int(np.dot(self.coroot_vectors[j], np.asarray(lam, dtype=np.int64)))

    def reflect_weight(self, lam, j: int) -> np.ndarray:
        lam = np.asarray(lam, dtype=np.int64)
        return lam - self.pair_weight_coroot(lam, j) * self.root_vectors[j]


def build_root_datum(spec, central_rank: int = 0) -> RootDatum:
    """Build a root datum from a list of (family, rank) pairs.

    Roots are enumerated by reflection closure starting from the simple
    roots; the construction fails loudly on inconsistent Cartan data.
    """
    if not 0 <= central_rank <= MAX_RANK:
        raise RootDatumError(f"central_rank must be between 0 and {MAX_RANK}")
    ctype = tuple((str(f), int(r)) for f, r in spec)
    for fam, rk in ctype:
        if fam not in FAMILIES:
            raise RootDatumError(f"unrecognized family {fam!r}")
        if rk < 1:
            raise RootDatumError("ranks must be >= 1")
    if sum(rk for _, rk in ctype) > MAX_RANK:
        raise RootDatumError(f"ranks must sum to at most {MAX_RANK}")
    blocks = [_cartan_matrix(fam, rk) for fam, rk in ctype]
    cartan = _block_diag(blocks) if blocks else np.zeros((0, 0), dtype=np.int64)
    d = cartan.shape[0]

    positives = _positive_closure(cartan)
    coxeters = []
    offset = 0
    for fam, rk in ctype:
        factor_pos = [r for r in positives if any(r[offset : offset + rk]) ]
        h = 1 + max(sum(r) for r in factor_pos)
        coxeters.append(h)
        offset += rk

    # Simple roots are the rows of the Cartan matrix, simple coroots the unit
    # vectors, each padded by the central rank.
    pad = np.zeros((d, central_rank), dtype=np.int64)
    return RootDatum(
        cartan_type=ctype,
        cartan=cartan,
        positive_roots=positives,
        coxeter_numbers=tuple(coxeters),
        root_vectors=np.hstack([cartan, pad]),
        coroot_vectors=np.hstack([np.eye(d, dtype=np.int64), pad]),
    )


def gl_datum(n: int) -> RootDatum:
    """GL_n with the standard diagonal torus model Z^n."""
    if n < 2:
        raise RootDatumError("gl_datum requires n >= 2")
    rd = build_root_datum([("A", n - 1)], central_rank=1)  # refuses a huge n first
    # alpha_i = e_i - e_{i+1} and alpha_i^vee = e_i - e_{i+1}; characters of
    # the diagonal torus use the same Z^n model.
    simple = np.eye(n - 1, n, dtype=np.int64) - np.eye(n - 1, n, k=1, dtype=np.int64)
    return replace(rd, root_vectors=simple, coroot_vectors=simple.copy())


def _positive_closure(cartan: np.ndarray) -> tuple[tuple[int, ...], ...]:
    d = cartan.shape[0]
    if d == 0:
        return ()
    if not all(cartan[i, i] == 2 for i in range(d)):
        raise RootDatumError("diagonal Cartan entries must equal 2")
    if any(cartan[i, j] > 0 for i in range(d) for j in range(d) if i != j):
        raise RootDatumError("off-diagonal Cartan entries must be <= 0")
    simple = [tuple(int(k == i) for k in range(d)) for i in range(d)]
    seen = set(simple)
    frontier = list(simple)
    guard = 260 * max(1, d)  # no irreducible rank-8 system exceeds 240 roots
    while frontier:
        nxt = []
        for r in frontier:
            for j in range(d):
                pairing = int(sum(r[i] * cartan[i, j] for i in range(d)))
                s = list(r)
                s[j] -= pairing
                s = tuple(int(x) for x in s)
                if s not in seen:
                    seen.add(s)
                    nxt.append(s)
        frontier = nxt
        if len(seen) > guard:
            raise RootDatumError("reflection closure did not terminate; inconsistent Cartan data")
    positives = sorted(
        (r for r in seen if all(c >= 0 for c in r)), key=lambda r: (sum(r), r)
    )
    if 2 * len(positives) != len(seen):
        raise RootDatumError("root set is not symmetric; inconsistent Cartan data")
    return tuple(positives)


# -- dimension bookkeeping ------------------------------------------------


def dimension_profile(rd: RootDatum) -> tuple[int, int, int, int, int, int]:
    """(dim g0, dim n, dim b0, dim t0, Coxeter number, #Z of the sc cover)."""
    npos = rd.num_positive
    d = rd.rank_ss
    return (2 * npos + d, npos, npos + d, d, rd.coxeter_number, rd.center_order)


def very_good_prime(rd: RootDatum, p: int) -> bool:
    if not ff.is_odd_prime(p):
        raise RootDatumError("p must be an odd prime")
    for fam, rk in rd.cartan_type:
        if p in _very_good_exclusions(fam, rk):
            return False
    return True


# -- Weyl group ------------------------------------------------------------


def longest_element(rd: RootDatum) -> tuple[list[int], list[int]]:
    """Reduced word for w0 and the involution -w0 on simple indices.

    The word is in application order: w0 = s_{word[-1]} ... s_{word[0]} as a
    composite, i.e. apply word[0] first.  Descent drives rho to -rho,
    breaking ties at the lowest simple index.
    """
    d = rd.rank_ss
    if d == 0:
        raise RootDatumError("semisimple part is empty")
    lam = np.ones(rd.weight_dim, dtype=np.int64)  # rho in fw coordinates
    lam[d:] = 0
    word: list[int] = []
    while True:
        for j in range(d):
            if rd.pair_weight_coroot(lam, j) > 0:
                lam = rd.reflect_weight(lam, j)
                word.append(j)
                break
        else:
            break
    if len(word) != rd.num_positive:
        raise RootDatumError("w0 descent produced a non-reduced word")
    minus_w0 = []
    for i in range(d):
        img = _apply_word_to_root(rd, tuple(int(k == i) for k in range(d)), word)
        minus_w0.append(_simple_index(tuple(-c for c in img)))
    return word, minus_w0


def _simple_index(root) -> int:
    ones = [i for i, c in enumerate(root) if c == 1]
    if len(ones) == 1 and sum(abs(c) for c in root) == 1:
        return ones[0]
    raise RootDatumError("-w0 does not permute the simple roots")


def _apply_word_to_root(rd: RootDatum, root, word) -> tuple[int, ...]:
    for j in word:
        root = rd.reflect_root(root, j)
    return root


def w0_on_weight(rd: RootDatum, lam, word) -> np.ndarray:
    lam = np.asarray(lam, dtype=np.int64)
    for j in word:
        lam = rd.reflect_weight(lam, j)
    return lam


def w0_on_cochar(rd: RootDatum, mu, word) -> np.ndarray:
    mu = np.asarray(mu, dtype=np.int64)
    for j in word:
        mu = rd.reflect_cochar(mu, j)
    return mu


def theta_involution(rd: RootDatum, lam1, lam2):
    """theta(lam1, lam2) = (-w0 lam2, -w0 lam1), with the fixed-point flag."""
    lam1 = np.asarray(lam1, dtype=np.int64)
    lam2 = np.asarray(lam2, dtype=np.int64)
    if lam1.shape != (rd.weight_dim,) or lam2.shape != (rd.weight_dim,):
        raise RootDatumError("weights must lie in the same lattice as the datum")
    word = longest_element(rd)[0]
    t1 = -w0_on_weight(rd, lam2, word)
    t2 = -w0_on_weight(rd, lam1, word)
    fixed = bool(np.array_equal(lam1, t1) and np.array_equal(lam2, t2))
    return (t1, t2), fixed


def dominant_representative(rd: RootDatum, mu) -> np.ndarray:
    """Dominant Weyl-chamber representative of a cocharacter."""
    mu = np.asarray(mu, dtype=np.int64)
    for _ in range(8 * (rd.num_positive + 1) ** 2 + 8):
        for j in range(rd.rank_ss):
            if int(np.dot(rd.root_vectors[j], mu)) < 0:
                mu = rd.reflect_cochar(mu, j)
                break
        else:
            return mu
    raise RootDatumError("dominance descent did not terminate")


def is_central_cochar(rd: RootDatum, omega) -> bool:
    omega = np.asarray(omega, dtype=np.int64)
    return all(int(np.dot(rd.root_vectors[j], omega)) == 0 for j in range(rd.rank_ss))


def parallel_cocharacter_check(rd: RootDatum, mu_w, mu_wbar, omega) -> bool:
    """dom(mu_w) = omega - w0.dom(mu_wbar) for a central weight cocharacter omega."""
    omega = np.asarray(omega, dtype=np.int64)
    if not is_central_cochar(rd, omega):
        raise RootDatumError("omega must pair to zero with every root")
    word = longest_element(rd)[0]
    dw = dominant_representative(rd, mu_w)
    dwbar = dominant_representative(rd, mu_wbar)
    return bool(np.array_equal(dw, omega - w0_on_cochar(rd, dwbar, word)))


# -- torus elements ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TorusElement:
    """Element of T(F_p) recorded by its simple-root values."""

    rd: RootDatum
    p: int
    simple_values: tuple[int, ...]

    def __post_init__(self):
        if not ff.is_odd_prime(self.p):
            raise RootDatumError("base field characteristic must be an odd prime")
        if len(self.simple_values) != self.rd.rank_ss:
            raise RootDatumError("need one value per simple root")
        if any(v % self.p == 0 for v in self.simple_values):
            raise RootDatumError("root values must be units mod p")

    def root_value(self, root) -> int:
        """beta(t), extended multiplicatively from the simple values."""
        out = 1
        for i, c in enumerate(root):
            c = int(c)
            v = self.simple_values[i] % self.p
            if c >= 0:
                out = out * pow(v, c, self.p) % self.p
            else:
                out = out * pow(ff.inv_scalar(v, self.p), -c, self.p) % self.p
        return out


def is_regular_semisimple(t: TorusElement) -> bool:
    return all(t.root_value(r) != 1 for r in t.rd.all_roots())


def ramakrishna_root_set(t: TorusElement, q: int):
    """Roots whose arithmetic-Frobenius eigenvalue equals q mod p.

    With t the image of geometric Frobenius this is {beta : beta(t) = qbar^{-1}}.
    Returns (roots, unique flag, the root when unique).
    """
    p = t.p
    qbar = q % p
    if qbar in (0, 1):
        raise RootDatumError("q must not be 0 or 1 mod p")
    target = ff.inv_scalar(qbar, p)
    hits = [r for r in t.rd.all_roots() if t.root_value(r) == target]
    unique = len(hits) == 1
    return hits, unique, (hits[0] if unique else None)


def unique_root_certificate(rd: RootDatum, alpha_index: int, use_control: bool = False) -> bool:
    """Check that beta = alpha_i is the unique root pairing to 2 against
    4 rho^vee - alpha_i^vee (or against 2 rho^vee when use_control is set).

    <beta, rho^vee> = height(beta), so the pairing is 4 ht(beta) - <beta, alpha^vee>
    (control: 2 ht(beta)); brute force over the full root set.
    """
    if rd.rank_ss == 0:
        raise RootDatumError("semisimple part is empty")
    alpha = tuple(int(k == alpha_index) for k in range(rd.rank_ss))
    hits = []
    for beta in rd.all_roots():
        ht = rd.height(beta)
        if use_control:
            val = 2 * ht
        else:
            val = 4 * ht - rd.pair_root_coroot(beta, alpha_index)
        if val == 2:
            hits.append(beta)
    return hits == [alpha]


# -- adjoint-action helpers --------------------------------------------------


def adjoint_torus_matrix(rd: RootDatum, p: int, simple_values) -> np.ndarray:
    """Adjoint action of a torus element on g0 = t0 + sum of root spaces.

    Basis order: simple coroots (t0), then roots in the datum's enumeration
    order (positives first, then matching negatives).
    """
    t = TorusElement(rd, p, tuple(v % p for v in simple_values))
    d = rd.rank_ss
    roots = rd.all_roots()
    n = d + len(roots)
    m = np.zeros((n, n), dtype=np.int64)
    for i in range(d):
        m[i, i] = 1
    for k, root in enumerate(roots):
        m[d + k, d + k] = t.root_value(root)
    return m
