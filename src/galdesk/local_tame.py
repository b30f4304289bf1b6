"""Cohomology of the tame local quotient <sigma, tau | sigma tau sigma^-1 = tau^q>
acting on finite-field modules of exponent p.

A 1-cocycle is recorded by its values (a, b) on (sigma, tau).  Writing Phi
and T for the two actions, the relator forces

    (1 - T^q) a + (Phi - S_q) b = 0,      S_q = 1 + T + ... + T^{q-1},

coboundaries are ((Phi-1)m, (T-1)m), and H^2 is the cokernel of that same
relator map.  The local duality pairing is the cup product pushed through
the relator chain:

    V(x, y) = <a, Phi' b'> - <S_q b, T'^q a'> - sum_{i=1}^{q-1} <N_i b, T'^i b'>

with primes denoting the dual-twist actions and N_i = 1 + ... + T^{i-1}.
It is bilinear in the stacked cocycles x = (a; b) on M and y = (a'; b') on
M^vee(1), so V(x, y) = x^T G y for one 2n x 2n matrix G.  The dual twist
has T' = (T^T)^-1, so N_i^T T'^i = T' + T'^2 + ... + T'^i (and S_q = N_q):

    G = [[0,                     Phi'                          ],
         [-sum_{m=1}^{q} T'^m,   -sum_{m=1}^{q-1} (q - m) T'^m ]]

The upper-right block pairs a with b'; the lower blocks pair b with a' and
with b'.  Since T'^p = 1, the terms group by m mod p, so G is a weighted sum
of the dual's table of powers T'^0, ..., T'^p for any q.  The overall scalar
is pinned down by the checks the duality operations must satisfy (perfect
Gram matrices, annihilator of the unramified subspace).

Each module family builds that table of inertia powers once, by doubling
in ceil(log2 p) batched products, T^(k+j) = T^j T^k for j <= k, and reads
every power of T from it: the order check T^p = 1, T^q, the relator's S_q
as prefix sums, and T^-1 = T^(p-1) for the dual.  It holds (p + 1) n^2
entries and is read-only: a twist shares it, and the dual reads it reversed
and transposed, as T'^k = (T^(p-k))^T.  Phi^-1 is one elimination, except
for a dual, a twist or an adjoint module, which take it in closed form and
check it with one product.

H^1 = Z^1/B^1 is `ffield.kernel_quotient` of the relator d1 and the
coboundaries d0, reduced as ffield's docstring describes; the Gram matrix
of the pairing on the H^1 bases is formed once per module, as H^1 is.  The
image of H^1(W) for an invariant subspace W (the Ramakrishna condition) is
read off the cocycles of M with values in W, (w x; w y) for (x; y) in the
kernel of the n x 2k system d1 (1_2 (x) w), so W gets no module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import ffield as ff
from .errors import InputError
from .root_datum import (
    RootDatum,
    TorusElement,
    adjoint_torus_matrix,
    is_regular_semisimple,
    ramakrishna_root_set,
)


class TameModuleError(InputError):
    pass


# The largest table T^0..T^p, (p + 1) n^2 entries; it bounds the pairing's O(p) products.
MAX_TABLE_CELLS = 10**6


@dataclass(frozen=True, eq=False)
class TameGaloisModule:
    """Module over the tame quotient: arithmetic Frobenius Phi, inertia Tau."""

    p: int
    phi: np.ndarray
    q: int
    tau: np.ndarray | None = None
    twist: int = 0

    def __post_init__(self):
        p = ff.odd_prime(self.p, TameModuleError)
        object.__setattr__(self, "p", p)  # an int, whatever integer type was given
        phi = ff.normalize(self.phi, p)
        object.__setattr__(self, "phi", phi)
        n = len(phi)
        if phi.shape != (n, n):
            raise TameModuleError("Phi must be square")
        one = ff.eye(n)
        tau = self.tau if self.tau is not None else one
        tau = ff.normalize(tau, p)
        object.__setattr__(self, "tau", tau)
        if self.q < 2:
            raise TameModuleError("q must be at least 2")
        if self.q % p == 0:
            raise TameModuleError("q must be prime to p")
        if (p + 1) * n * n > MAX_TABLE_CELLS:
            raise TameModuleError(f"(p + 1) n^2 exceeds the table budget of {MAX_TABLE_CELLS}")
        try:
            phi_inv = self.phi_inv
        except ValueError:
            raise TameModuleError("Phi must be invertible") from None
        # One product checks an inverse inherited through _with_inverse.  Phi,
        # T and Phi^-1 are reduced, so the products need no normalize.
        if not np.array_equal(phi @ phi_inv % p, one):
            raise TameModuleError("Phi^-1 does not invert Phi")
        powers = self._tau_powers
        if not np.array_equal(powers[p], one):
            raise TameModuleError("Tau must have order dividing p")
        if not np.array_equal(phi @ tau % p @ phi_inv % p, powers[self.q % p]):
            raise TameModuleError("Phi Tau Phi^-1 != Tau^q")

    @classmethod
    def _with_inverse(cls, phi_inv, p, phi, q, tau, twist, powers=None) -> "TameGaloisModule":
        """A module whose Phi^-1, and perhaps its inertia table, is already
        known: they are seeded into their caches before __post_init__ runs,
        which then checks Phi^-1, T^p = 1 and T^q against them."""
        m = cls.__new__(cls)
        m.__dict__["phi_inv"] = phi_inv
        if powers is not None:
            m.__dict__["_tau_powers"] = powers
        m.__init__(p, phi, q, tau, twist)
        return m

    @property
    def dim(self) -> int:
        return len(self.phi)

    @cached_property
    def phi_inv(self) -> np.ndarray:
        return ff.inv(self.phi, self.p)

    @cached_property
    def _tau_powers(self) -> np.ndarray:
        """T^0, ..., T^p stacked as a read-only (p + 1) x n x n array, by
        doubling: with T^0..T^k filled, one batched product gives
        T^(k+j) = T^j T^k for j = 1..min(k, p - k)."""
        p = self.p
        powers = np.empty((p + 1, self.dim, self.dim), dtype=np.int64)
        powers[0], powers[1] = ff.eye(self.dim), self.tau
        k = 1
        while k < p:
            j = min(k, p - k)
            powers[k + 1 : k + j + 1] = powers[1 : j + 1] @ powers[k] % p
            k += j
        powers.flags.writeable = False  # twists and the dual share it
        return powers

    @cached_property
    def phi_eff(self) -> np.ndarray:
        """Arithmetic Frobenius including the Tate twist: qbar^e * Phi."""
        return (pow(self.q, self.twist, self.p) * self.phi) % self.p

    def twisted(self, e: int) -> "TameGaloisModule":
        return self if e == 0 else TameGaloisModule._with_inverse(
            self.phi_inv, self.p, self.phi, self.q, self.tau, self.twist + e, self._tau_powers)

    def dual_twist(self) -> "TameGaloisModule":
        """M^vee(1): arithmetic action qbar * (Phi_eff^T)^-1, inertia (Tau^T)^-1."""
        return self._dual

    @cached_property
    def _dual(self) -> "TameGaloisModule":
        # Phi_eff = s.Phi with s = qbar^twist, and Tau^-1 = Tau^(p-1) as Tau^p = 1.
        # Phi_d = c.Phi^-T with c = qbar/s = qbar^(1 - twist) has the inverse c^-1.Phi^T.
        p = self.p
        c = pow(self.q, 1 - self.twist, p)
        # c Phi^-T < p^2 fits int64, as the table budget keeps p below 10^6;
        # __post_init__ reduces it.
        phi_d = c * self.phi_inv.T
        phi_d_inv = pow(c, -1, p) * self.phi.T % p
        # T' = (T^T)^-1 has T'^k = (T^(p-k))^T: the table reversed and transposed.
        powers = self._tau_powers[::-1].transpose(0, 2, 1)
        return TameGaloisModule._with_inverse(phi_d_inv, p, phi_d, self.q, powers[1], 0, powers)

    # -- relator operators -------------------------------------------------

    @cached_property
    def relator_matrix(self) -> np.ndarray:
        """d1 as an (n x 2n) block matrix [1 - T^q | Phi - S_q] acting on (a; b).

        S_q = N_q with N_k = 1 + T + ... + T^{k-1}, folded by T^p = 1 into
        (q div p) N_p + N_{q mod p}.
        """
        p = self.p
        powers = self._tau_powers
        whole, rem = divmod(self.q, p)
        # Below p^3 <= 10^18 in int64, as the table budget keeps p below 10^6;
        # reduced with Phi below.
        sq = whole % p * powers[:p].sum(axis=0) + powers[:rem].sum(axis=0)
        return np.hstack([(ff.eye(self.dim) - powers[rem]) % p, (self.phi_eff - sq) % p])

    @cached_property
    def pairing_matrix(self) -> np.ndarray:
        """G (2n x 2n) with V(x, y) = x^T G y for stacked cocycles x on M and
        y on M.dual_twist(); see the module docstring."""
        p, n, q = self.p, self.dim, self.q
        md = self.dual_twist()
        # -sum_{m=1}^{q} T'^m and -sum_{m=1}^{q} (q - m) T'^m (its m = q term
        # is zero), grouped by c = m mod p, which occurs k times in 1..q.  The
        # weights are formed in Python ints: k (q - c) overflows int64 for
        # large q.
        ks = [(q - c) // p + 1 for c in range(1, p + 1)]
        weights = np.array([[k % p for k in ks],
                            [k * (q - c) % p for c, k in enumerate(ks, 1)]],
                           dtype=np.int64)
        # p terms below p^2 sum below p^3, in int64 under the table budget.
        terms = weights[:, :, None, None] * md._tau_powers[None, 1:]
        g = ff.zeros((2 * n, 2 * n))
        g[:n, n:] = md.phi_eff
        g[n:, :n], g[n:, n:] = -terms.sum(axis=1) % p
        return g

    @cached_property
    def coboundary_matrix(self) -> np.ndarray:
        """d0 as a (2n x n) block matrix [Phi - 1; T - 1]."""
        return ff.fixed_equations([self.phi_eff, self.tau], self.dim)

    @cached_property
    def _gram(self):
        # Entries below p: sums of 2n products fit int64 under the table budget.
        p = self.p
        h1, h1d = h1_space(self), h1_space(self.dual_twist())
        g = h1.basis_cocycles.T @ self.pairing_matrix % p @ h1d.basis_cocycles % p
        g.flags.writeable = False  # every caller shares it
        return g, h1, h1d

    @cached_property
    def _h1(self) -> "H1Space":
        # B^1 = im d0 lies in Z^1 = ker d1: d1 d0 = Phi_eff T - T^q Phi_eff,
        # which __post_init__ refuses to let be nonzero.
        d1, d0 = self.relator_matrix, self.coboundary_matrix
        return H1Space(self, *ff.kernel_quotient(d1, d0, self.p))


@dataclass(eq=False)
class H1Space:
    """H^1 of a tame module with a canonical representative basis: the
    greedy complement of B^1 among the columns of Z^1's kernel basis."""

    module: TameGaloisModule
    basis_cocycles: np.ndarray  # (2n x h1), columns are (a; b) stacked representatives
    free: list  # the k = dim Z^1 free columns of the relator
    to_class: np.ndarray  # (h1 x k), a cocycle's entries at `free` -> its class coordinates

    @property
    def dim(self) -> int:
        return self.basis_cocycles.shape[1]

    def class_coords(self, cocycle) -> np.ndarray:
        """Coordinates of the class of a cocycle on the representative basis;
        `cocycle` may be a matrix whose columns are cocycles."""
        p = self.module.p
        v = ff.normalize(cocycle, p)
        if (self.module.relator_matrix @ v % p).any():
            raise ValueError("not a cocycle")
        return self.to_class @ v[self.free] % p

    def cocycle_from_coords(self, coords) -> np.ndarray:
        return (self.basis_cocycles @ ff.normalize(coords, self.module.p)) % self.module.p


def h1_space(m: TameGaloisModule) -> H1Space:
    """H^1(M), computed once per module and cached on it."""
    return m._h1


def cohomology_dims(m: TameGaloisModule) -> tuple[int, int, int]:
    """(h0, h1, h2): fixed space, relator-kernel classes, relator cokernel.

    All three are read off the cached H^1 = Z^1/B^1: h0 = n - rank d0 with
    rank d0 = dim B^1 = dim Z^1 - h1, and h2 = n - rank d1 = dim Z^1 - n.
    """
    h1 = h1_space(m)
    z1_dim = len(h1.free)
    return m.dim - (z1_dim - h1.dim), h1.dim, z1_dim - m.dim


# -- local condition subspaces ----------------------------------------------


@dataclass(eq=False)
class LocalConditionSubspace:
    """Subspace of H^1(M) in class coordinates, with a provenance label."""

    space: H1Space
    basis: np.ndarray  # (h1 x k) columns, class coordinates
    label: str

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def unramified_subspace(m: TameGaloisModule) -> LocalConditionSubspace:
    """Classes represented with b = 0; only defined for trivial inertia."""
    if not np.array_equal(m.tau, ff.eye(m.dim)):
        raise TameModuleError("unramified subspace requires Tau = identity")
    return _class_span(m, np.vstack([ff.eye(m.dim), ff.zeros((m.dim, m.dim))]), "unramified")


def _class_span(m: TameGaloisModule, cocycles, label: str) -> LocalConditionSubspace:
    """The subspace of H^1(M) spanned by the classes of the columns of `cocycles`."""
    space = h1_space(m)
    return LocalConditionSubspace(space, ff.column_space(space.class_coords(cocycles), m.p), label)


def image_subspace(m: TameGaloisModule, sub_basis, label: str) -> LocalConditionSubspace:
    """Image of H^1(W) -> H^1(M) for an invariant subspace W spanned by the
    columns of `sub_basis`: the classes of the cocycles of M with values in
    W, which are those of H^1(W)."""
    p = m.p
    w = ff.normalize(sub_basis, p)
    if not ff.span_contains(w, np.hstack([m.phi_eff @ w, m.tau @ w]), p):
        raise TameModuleError("subspace is not invariant")
    # (a; b) = (w x; w y) is a cocycle when d1 (1_2 (x) w) (x; y) = 0; the
    # columns of w may be dependent, as the image spans the same cocycles.
    # Both products stay unreduced: rref and class_coords reduce.
    n, d = w.shape
    both = ff.zeros((2 * n, 2 * d))
    both[:n, :d] = both[n:, d:] = w
    return _class_span(m, both @ ff.nullspace(m.relator_matrix @ both, p), label)


# -- duality pairing ---------------------------------------------------------


def tate_pairing(m: TameGaloisModule):
    """Local duality pairing H^1(M) x H^1(M^vee(1)) -> F_p as a callable.

    Arguments to the returned function are stacked cocycles (a; b) on M and
    (a'; b') on M.dual_twist(), and its value is x^T G y mod p for
    G = m.pairing_matrix.
    """
    p = m.p
    g = m.pairing_matrix

    def pair(x, y) -> int:
        return int(ff.mat_mul(x, g, p) @ ff.normalize(y, p)) % p

    return pair


def pairing_gram(m: TameGaloisModule):
    """(B^T G B', H^1(M), H^1(M^vee(1))): the Gram matrix of the duality
    pairing on the canonical H^1 bases, read-only, with both spaces;
    computed once per module and cached on it, as H^1 is."""
    return m._gram


def annihilator_subspace(m: TameGaloisModule, sub: LocalConditionSubspace) -> LocalConditionSubspace:
    """Annihilator of a subspace of H^1(M) inside H^1(M^vee(1))."""
    g, h1, h1d = pairing_gram(m)
    basis = ff.annihilator(sub.basis, g, m.p)
    return LocalConditionSubspace(h1d, basis, f"ann({sub.label})")


# -- adjoint modules ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AdjointModule:
    """g0 with arithmetic Frobenius acting through a torus element.

    Basis order: the simple coroots spanning t0, then the roots in datum
    order.  The stored torus element is the image of geometric Frobenius,
    so the arithmetic action on g_beta is beta(t)^{-1}; `module.twisted(e)`
    gives the Tate twist g0(e).
    """

    rd: RootDatum
    t: TorusElement
    q: int

    def __post_init__(self):
        if self.t.rd is not self.rd:
            raise TameModuleError("torus element belongs to a different datum")

    @property
    def p(self) -> int:
        return self.t.p

    @property
    def dim(self) -> int:
        return self.rd.rank_ss + len(self.rd.all_roots())

    def root_index(self, root) -> int:
        return self.rd.rank_ss + self.rd.all_roots().index(tuple(root))

    @cached_property
    def module(self) -> TameGaloisModule:
        # beta(t)^-1 = beta(t^-1), and t^-1 has the inverse simple values, so
        # Phi is the adjoint matrix of t^-1 and Phi^-1 that of t.
        p, values = self.p, self.t.simple_values
        inverse = [pow(v, -1, p) for v in values]
        return TameGaloisModule._with_inverse(adjoint_torus_matrix(self.rd, p, values), p,
                                              adjoint_torus_matrix(self.rd, p, inverse),
                                              self.q, None, 0)

    @cached_property
    def _ramakrishna(self):
        # A refusal raises, so it is not cached and fires on every call.
        if self.q % self.p in (0, 1):
            raise TameModuleError("q must not be 0 or 1 mod p")
        if not is_regular_semisimple(self.t):
            raise TameModuleError("Frobenius image must be regular semisimple")
        _, unique, alpha = ramakrishna_root_set(self.t, self.q)
        return unique, alpha


def is_ramakrishna_type(a: AdjointModule):
    """(flag, root): exactly one root whose value at geometric Frobenius is
    qbar^{-1}; computed once per adjoint module."""
    return a._ramakrishna


def ramakrishna_subspace(a: AdjointModule, alpha) -> LocalConditionSubspace:
    """Image of H^1(W) in H^1(g0) for W = t_alpha + g_alpha."""
    ok, cert = is_ramakrishna_type(a)
    if not ok or tuple(cert) != tuple(alpha):
        raise TameModuleError("alpha is not the certified Ramakrishna root")
    p = a.p
    basis = np.hstack([t_alpha_basis(a.rd, alpha, p, a.dim),
                       _root_line(a, alpha)])
    return image_subspace(a.module, basis, "ramakrishna")


def t_alpha_basis(rd: RootDatum, alpha, p: int, ambient_dim: int) -> np.ndarray:
    """ker(alpha) inside t0, embedded in the adjoint coordinates."""
    d = rd.rank_ss
    row = np.array([[rd.pair_root_coroot(alpha, j) for j in range(d)]], dtype=np.int64)
    small = ff.nullspace(row, p)
    out = ff.zeros((ambient_dim, small.shape[1]))
    out[:d] = small
    return out


def _root_line(a: AdjointModule, root) -> np.ndarray:
    return ff.eye(a.dim)[:, [a.root_index(root)]]


def l_alpha_component(a: AdjointModule, vector, alpha) -> int:
    """Coefficient along alpha^vee in the t_alpha + l_alpha splitting of t0."""
    d = a.rd.rank_ss
    t_part = ff.normalize(vector[:d], a.p)
    pairing = sum(int(a.rd.pair_root_coroot(alpha, j)) * int(t_part[j]) for j in range(d))
    return pairing * pow(2, -1, a.p) % a.p


def dual_root_component(a: AdjointModule, dual_vector, root) -> int:
    """g_{-root}-component of a dual vector under the invariant-form identification.

    The invariant form pairs g_gamma with g_{-gamma}, so the g_{-root}
    component of an element of the dual module is its coefficient on the
    dual-basis vector indexed by g_root.
    """
    neg = tuple(-c for c in root)
    return int(ff.normalize(dual_vector, a.p)[a.root_index(neg)])


# -- local predicates ---------------------------------------------------------


def reg_checks(rd: RootDatum, p: int, generators, kappa_values) -> tuple[bool, bool]:
    """(REG, REG*) for Borel-valued generator matrices acting on g0.

    Matrices use the adjoint basis (t0, then roots).  REG asks that the
    induced action on g/b has no common fixed vector; REG* twists each
    generator by its mod-p cyclotomic value first.
    """
    if len(generators) != len(kappa_values):
        raise TameModuleError("need one cyclotomic value per generator")
    d = rd.rank_ss
    roots = rd.all_roots()
    n = d + len(roots)
    borel = list(range(d)) + [d + k for k, r in enumerate(roots) if sum(r) > 0]
    neg = sorted(set(range(n)) - set(borel))
    quotient_actions = []
    for g in generators:
        g = ff.normalize(g, p)
        if g.shape != (n, n):
            raise TameModuleError("generator has the wrong shape")
        if g[np.ix_(neg, borel)].any():
            raise TameModuleError("generator does not preserve the Borel subalgebra")
        quotient_actions.append(g[np.ix_(neg, neg)])
    twisted = [kappa % p * g for kappa, g in zip(kappa_values, quotient_actions)]
    # REG (REG*) holds when the (twisted) actions fix no common vector.
    return tuple(ff.rank(ff.fixed_equations(mats, len(neg)), p) == len(neg)
                 for mats in (quotient_actions, twisted))


def nonsplit_check(rd: RootDatum, p: int, q: int, sigma_scalars, tau_scalars,
                   phi_sigma, phi_tau) -> bool:
    """Non-splitness of the F^1b/F^2b cocycle: every simple-root class is nonzero.

    The cocycle is given by its values on the two tame generators; each
    simple-root line is a one-dimensional tame module with the supplied
    scalar actions.
    """
    d = rd.rank_ss
    arrays = [ff.normalize(x, p) for x in (sigma_scalars, tau_scalars, phi_sigma, phi_tau)]
    if any(a.shape != (d,) for a in arrays):
        raise TameModuleError("need one entry per simple root")
    sig, tau, vs, vt = arrays
    for i in range(d):
        line = TameGaloisModule(p, np.array([[sig[i]]]), q, np.array([[tau[i]]]))
        cocycle = np.array([vs[i], vt[i]], dtype=np.int64)
        # T = 1 on a line (t^p = t in F_p), so this is (Phi - S_q) v_t, a
        # product of two residues: zero exactly when it is zero mod p.
        if (line.relator_matrix @ cocycle).any():
            raise TameModuleError(f"cocycle relation violated on the line of root {i}")
        b1 = line.coboundary_matrix  # (2 x 1)
        if ff.span_contains(b1, cocycle, p):
            return False
    return True
