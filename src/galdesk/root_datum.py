"""Split reductive root data: roots, coroots, Weyl group, torus elements.

Roots are stored in simple-root coordinates and coroots in simple-coroot
coordinates; the Cartan matrix C with C[i][j] = <alpha_i, alpha_j^vee>
carries the pairing.  Weights live in fundamental-weight coordinates,
cocharacters in simple-coroot coordinates.  GL_n gets its own torus model
(standard basis of the diagonal cocharacter lattice) so that integral GL_n
cocharacters like diag(t, 1) are representable exactly.

Family facts live in two places only: the Cartan matrix and the table of
the ranks each family takes.  The roots, the Coxeter number, the order of
the centre and the primes that are not very good all derive from C.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import ffield as ff
from .errors import InputError


class RootDatumError(InputError):
    pass


# The ranks each family takes, as (least, greatest).  The total rank is at
# most MAX_RANK, as the reflection closure grows like rank^5.
MAX_RANK = 16
RANKS = {"A": (1, MAX_RANK), "B": (2, MAX_RANK), "C": (2, MAX_RANK), "D": (4, MAX_RANK),
         "E": (6, 8), "F": (4, 4), "G": (2, 2)}


def _cartan_matrix(family: str, rank: int) -> np.ndarray:
    """Cartan matrix with C[i][j] = <alpha_i, alpha_j^vee> (Bourbaki numbering)."""
    c = 2 * np.eye(rank, dtype=np.int64)
    # A chain of simple bonds; D's last node and E's node 2 (0-indexed 1)
    # branch off it.
    chain = [0, *range(2, rank)] if family == "E" else range(rank - 1 if family == "D" else rank)
    branch = {"D": [(rank - 3, rank - 1)], "E": [(1, 3)]}.get(family, [])
    for i, j in [*zip(chain, chain[1:]), *branch]:
        c[i, j] = c[j, i] = -1
    # The multiple bonds: <long, short^vee> = -2 or -3.
    if family == "B":
        c[rank - 2, rank - 1] = -2
    elif family == "C":
        c[rank - 1, rank - 2] = -2
    elif family == "F":
        c[1, 2] = -2
    elif family == "G":
        c[1, 0] = -3
    return c


@dataclass(frozen=True, eq=False)
class RootDatum:
    """Immutable root datum for a split reductive group."""

    cartan: np.ndarray  # d x d, C[i][j] = <alpha_i, alpha_j^vee>
    positive_roots: tuple[tuple[int, ...], ...]  # simple-root coordinates
    highest_roots: tuple[tuple[int, ...], ...]  # one per irreducible factor, in its coordinates
    # Torus model: weights and cocharacters live in dual copies of Z^n, so
    # the rows alpha_i also give <alpha_i, basis_j> and the rows alpha_i^vee
    # give <basis_j, alpha_i^vee>.
    root_vectors: np.ndarray  # d x n, rows are alpha_i
    coroot_vectors: np.ndarray  # d x n, rows are alpha_i^vee

    # -- basic sizes ---------------------------------------------------

    @property
    def rank_ss(self) -> int:
        return len(self.cartan)

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
        """1 + the height of the highest root; max over irreducible factors."""
        return max(1 + self.height(r) for r in self.highest_roots)

    @property
    def center_order(self) -> int:
        """Order of the centre of the simply connected cover: det C, by
        fraction-free elimination.  Every leading minor of a Cartan matrix
        is positive, so no pivot is 0."""
        m = [[int(x) for x in row] for row in self.cartan]
        prev = 1
        for k in range(len(m) - 1):
            for i in range(k + 1, len(m)):
                for j in range(k + 1, len(m)):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            prev = m[k][k]
        return m[-1][-1]

    @cached_property
    def _cartan_columns(self) -> list[list[int]]:
        """Column j of C as Python ints: <alpha_i, alpha_j^vee> for each i."""
        return self.cartan.T.tolist()

    def pair_root_coroot(self, root, coroot_index: int) -> int:
        """<root, alpha_j^vee> for a root in simple-root coordinates."""
        return int(sum(x * c for x, c in zip(root, self._cartan_columns[coroot_index])))


def build_root_datum(spec) -> RootDatum:
    """Build a root datum from a list of (family, rank) pairs.

    This is the one place a type is refused.  The roots are the reflection
    closure of the simple roots in the Cartan matrix; every other invariant
    is derived from it.
    """
    ctype = tuple((str(f), int(r)) for f, r in spec)
    if not ctype:
        raise RootDatumError("semisimple part is empty")
    for fam, _ in ctype:
        if fam not in RANKS:
            raise RootDatumError(f"unrecognized family {fam!r}")
    # The total comes before the rank table, so a huge rank is refused as too large.
    if sum(rk for _, rk in ctype) > MAX_RANK:
        raise RootDatumError(f"ranks must sum to at most {MAX_RANK}")
    for fam, rk in ctype:
        least, greatest = RANKS[fam]
        if not least <= rk <= greatest:
            raise RootDatumError(f"there is no root system of type {fam}{rk}")
    cartan = ff.block_diag([_cartan_matrix(fam, rk) for fam, rk in ctype])
    positives = _positive_closure(cartan)
    # A factor's roots vanish off its own coordinates, so its highest root
    # is the highest of the positive roots cut to them.
    highest, offset = [], 0
    for _, rk in ctype:
        highest.append(max((r[offset : offset + rk] for r in positives), key=sum))
        offset += rk
    # Simple roots are the rows of the Cartan matrix, simple coroots the unit vectors.
    return RootDatum(
        cartan=cartan,
        positive_roots=positives,
        highest_roots=tuple(highest),
        root_vectors=cartan,
        coroot_vectors=np.eye(len(cartan), dtype=np.int64),
    )


def gl_datum(n: int) -> RootDatum:
    """GL_n with the standard diagonal torus model Z^n."""
    if n < 2:
        raise RootDatumError("gl_datum requires n >= 2")
    rd = build_root_datum([("A", n - 1)])  # refuses a huge n first
    # alpha_i = e_i - e_{i+1} and alpha_i^vee = e_i - e_{i+1}; characters of
    # the diagonal torus use the same Z^n model.
    simple = np.eye(n - 1, n, dtype=np.int64) - np.eye(n - 1, n, k=1, dtype=np.int64)
    return replace(rd, root_vectors=simple, coroot_vectors=simple.copy())


def _positive_closure(cartan: np.ndarray) -> tuple[tuple[int, ...], ...]:
    d = len(cartan)
    columns = cartan.T.tolist()  # Python ints, not numpy scalars
    simple = [tuple(int(k == i) for k in range(d)) for i in range(d)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for r in frontier:
            for j, column in enumerate(columns):
                s = list(r)
                s[j] -= sum(x * c for x, c in zip(r, column))
                s = tuple(s)
                if s not in seen:
                    seen.add(s)
                    nxt.append(s)
        frontier = nxt
    return tuple(sorted((r for r in seen if all(c >= 0 for c in r)), key=lambda r: (sum(r), r)))


# -- dimension bookkeeping ------------------------------------------------


def dimension_profile(rd: RootDatum) -> tuple[int, int, int, int, int, int]:
    """(dim g0, dim n, dim b0, dim t0, Coxeter number, #Z of the sc cover)."""
    npos = rd.num_positive
    d = rd.rank_ss
    return (2 * npos + d, npos, npos + d, d, rd.coxeter_number, rd.center_order)


def very_good_prime(rd: RootDatum, p: int) -> bool:
    """p divides neither det C nor a coefficient of any factor's highest root."""
    ff.odd_prime(p, RootDatumError)
    return rd.center_order % p != 0 and all(c % p for r in rd.highest_roots for c in r)


# -- Weyl group ------------------------------------------------------------


def weyl_act(x, word, pair, shift) -> np.ndarray:
    """Apply the simple reflections of `word` to x, word[0] first, where
    s_j(x) = x - (pair[j] . x) shift[j] (Bourbaki, Lie Groups and Lie
    Algebras, ch. VI, 1.1).  The rows give the lattice: roots in simple-root
    coordinates take (C^T, 1), weights (coroot rows, root rows) and
    cocharacters (root rows, coroot rows)."""
    x = np.asarray(x, dtype=np.int64)
    for j in word:
        x = x - int(np.dot(pair[j], x)) * shift[j]
    return x


def longest_element(rd: RootDatum) -> tuple[list[int], list[int]]:
    """Reduced word for w0 and the involution -w0 on simple indices.

    The word is in application order: w0 = s_{word[-1]} ... s_{word[0]} as a
    composite, i.e. apply word[0] first.  Descent drives rho to -rho,
    breaking ties at the lowest simple index.  It runs in fundamental-weight
    coordinates, where <lam, alpha_j^vee> = lam_j and alpha_j is row j of
    the Cartan matrix, whatever the torus model.
    """
    one = ff.eye(rd.rank_ss)
    lam = np.ones(rd.rank_ss, dtype=np.int64)  # rho
    word: list[int] = []
    while (lam > 0).any():
        j = int(np.argmax(lam > 0))
        lam = weyl_act(lam, [j], one, rd.cartan)
        word.append(j)
    # w0 sends alpha_i to -alpha_{-w0(i)}.
    return word, [weyl_act(a, word, rd.cartan.T, one).tolist().index(-1) for a in one]


def theta_involution(rd: RootDatum, lam1, lam2):
    """theta(lam1, lam2) = (-w0 lam2, -w0 lam1), with the fixed-point flag."""
    lam1 = np.asarray(lam1, dtype=np.int64)
    lam2 = np.asarray(lam2, dtype=np.int64)
    if lam1.shape != (rd.weight_dim,) or lam2.shape != (rd.weight_dim,):
        raise RootDatumError("weights must lie in the same lattice as the datum")
    word = longest_element(rd)[0]
    t1 = -weyl_act(lam2, word, rd.coroot_vectors, rd.root_vectors)
    t2 = -weyl_act(lam1, word, rd.coroot_vectors, rd.root_vectors)
    fixed = bool(np.array_equal(lam1, t1) and np.array_equal(lam2, t2))
    return (t1, t2), fixed


def dominant_representative(rd: RootDatum, mu) -> np.ndarray:
    """Dominant Weyl-chamber representative of a cocharacter."""
    mu = np.asarray(mu, dtype=np.int64)
    # Each reflection takes one positive root off those negative on mu.
    while True:
        for j in range(rd.rank_ss):
            if int(np.dot(rd.root_vectors[j], mu)) < 0:
                mu = weyl_act(mu, [j], rd.root_vectors, rd.coroot_vectors)
                break
        else:
            return mu


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
    w0_dwbar = weyl_act(dwbar, word, rd.root_vectors, rd.coroot_vectors)
    return bool(np.array_equal(dw, omega - w0_dwbar))


# -- torus elements ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TorusElement:
    """Element of T(F_p) recorded by its simple-root values."""

    rd: RootDatum
    p: int
    simple_values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "p", ff.odd_prime(self.p, RootDatumError))
        if len(self.simple_values) != self.rd.rank_ss:
            raise RootDatumError("need one value per simple root")
        if any(v % self.p == 0 for v in self.simple_values):
            raise RootDatumError("root values must be units mod p")

    def root_value(self, root) -> int:
        """beta(t), extended multiplicatively from the simple values."""
        out = 1
        for v, c in zip(self.simple_values, root):
            out = out * pow(v, int(c), self.p) % self.p  # a unit takes any exponent
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
    target = pow(qbar, -1, p)
    hits = [r for r in t.rd.all_roots() if t.root_value(r) == target]
    unique = len(hits) == 1
    return hits, unique, (hits[0] if unique else None)


def unique_root_certificate(rd: RootDatum, alpha_index: int) -> bool:
    """Check that beta = alpha_i is the unique root pairing to 2 against
    4 rho^vee - alpha_i^vee.

    <beta, rho^vee> = height(beta), so the pairing is 4 ht(beta) - <beta, alpha^vee>;
    brute force over the full root set.
    """
    alpha = tuple(int(k == alpha_index) for k in range(rd.rank_ss))
    hits = [beta for beta in rd.all_roots()
            if 4 * rd.height(beta) - rd.pair_root_coroot(beta, alpha_index) == 2]
    return hits == [alpha]


# -- adjoint-action helpers --------------------------------------------------


def adjoint_torus_matrix(rd: RootDatum, p: int, simple_values) -> np.ndarray:
    """Adjoint action of a torus element on g0 = t0 + sum of root spaces.

    Basis order: simple coroots (t0), then roots in the datum's enumeration
    order (positives first, then matching negatives).
    """
    t = TorusElement(rd, p, tuple(simple_values))
    d = rd.rank_ss
    roots = rd.all_roots()
    n = d + len(roots)
    m = np.zeros((n, n), dtype=np.int64)
    for i in range(d):
        m[i, i] = 1
    for k, root in enumerate(roots):
        m[d + k, d + k] = t.root_value(root)
    return m
