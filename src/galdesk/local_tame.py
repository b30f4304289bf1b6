"""Cohomology of the tame local quotient <sigma, tau | sigma tau sigma^-1 = tau^q>
acting on finite-field modules of exponent p.

A 1-cocycle is recorded by its values (a, b) on (sigma, tau).  Writing Phi
and T for the two actions, the relator forces

    (1 - T^q) a + (Phi - S_q) b = 0,      S_q = 1 + T + ... + T^{q-1},

coboundaries are ((Phi-1)m, (T-1)m), and H^2 is the cokernel of that same
relator map.  The local duality pairing is the cup product pushed through
the relator chain:

    V(x, y) = <a, Phi' b'> - <S_q b, T'^q a'> - sum_{i=1}^{q-1} <S_i b, T'^i b'>

with primes denoting the dual-twist actions and S_i = 1 + ... + T^{i-1}.
It is bilinear in the stacked cocycles x = (a; b) on M and y = (a'; b') on
M^vee(1), so V(x, y) = x^T G y for one 2n x 2n matrix G.  The dual twist
has T' = (T^T)^-1, so S_i^T T'^i = T' + T'^2 + ... + T'^i:

    G = [[0,                     Phi'                          ],
         [-sum_{m=1}^{q} T'^m,   -sum_{m=1}^{q-1} (q - m) T'^m ]]

The upper-right block pairs a with b'; the lower blocks pair b with a' and
with b'.  The overall scalar is pinned down by the checks the duality
operations must satisfy (perfect Gram matrices, annihilator of the
unramified subspace).

Inertia is read in closed form.  T^p = 1 + N^p in characteristic p for
N = T - 1, so T^p = 1 exactly when N^J = 0, J = min(n, p).  Then
T^m = sum_j C(m, j) N^j, and the hockey-stick identity (Graham, Knuth and
Patashnik, Concrete Mathematics, 5.1) gives, with exact binomials for any q,

    T^q = sum_j C(q, j) N^j,          S_q = sum_j C(q, j + 1) N^j,
    sum_{m=1}^{q} T'^m = sum_j C(q + 1, j + 1) N'^j - 1,
    sum_{m=1}^{q-1} (q - m) T'^m = sum_j C(q + 1, j + 2) N'^j - q.

A module keeps N^0, N^1, ... to its last nonzero power (N^0 alone when
T = 1) and forms T^q and S_q once; a twist shares them, and the dual's
T' = (sum_j (-N)^j)^T and its powers are sums of the N^j.  Phi^-1 is one
elimination, except for a dual, a twist or an adjoint module, which take it
in closed form and check it with one product.

H^1 = Z^1/B^1 is `ffield.kernel_quotient` of the relator d1 and the
coboundaries d0, reduced as ffield's docstring describes; the Gram matrix
of the pairing on the H^1 bases is formed once per module, as H^1 is.  The
image of H^1(W) for an invariant subspace W (the Ramakrishna condition) is
read off the cocycles of M with values in W, (w x; w y) for (x; y) in the
kernel of the n x 2k system d1 (1_2 (x) w), so W gets no module.
"""

from __future__ import annotations

import math
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


@dataclass(frozen=True, eq=False)
class TameGaloisModule:
    """Module over the tame quotient: arithmetic Frobenius Phi, inertia Tau."""

    p: int
    phi: np.ndarray
    q: int
    tau: np.ndarray | None = None
    twist: int = 0

    def __post_init__(self):
        n = len(self.phi)
        # _gram and class_coords sum 2n products of residues, in int64 below this bound.
        p = ff.odd_prime(self.p, TameModuleError, 2 * n)
        object.__setattr__(self, "p", p)  # an int, whatever integer type was given
        phi = ff.normalize(self.phi, p)
        object.__setattr__(self, "phi", phi)
        if phi.shape != (n, n):
            raise TameModuleError("Phi must be square")
        one = ff.eye(n)
        tau = one if self.tau is None else ff.normalize(self.tau, p)
        if tau.shape != (n, n):
            raise TameModuleError("Tau must have the shape of Phi")
        object.__setattr__(self, "tau", tau)
        if self.q < 2:
            raise TameModuleError("q must be at least 2")
        if self.q % p == 0:
            raise TameModuleError("q must be prime to p")
        try:
            phi_inv = self.phi_inv
        except ValueError:
            raise TameModuleError("Phi must be invertible") from None
        # One product checks an inverse inherited through _with_inverse.  Phi,
        # T and Phi^-1 are reduced, so the products need no normalize, and
        # two reduced n x n int64 matrices are equal when their bytes are.
        if (phi @ phi_inv % p).tobytes() != one.tobytes():
            raise TameModuleError("Phi^-1 does not invert Phi")
        # T^p = 1 + N^p = 1 exactly when N^min(n, p) = 0.
        if self._nil_powers[min(n, p):].any():
            raise TameModuleError("Tau must have order dividing p")
        if (phi @ tau % p @ phi_inv % p).tobytes() != self._tau_sums[0].tobytes():
            raise TameModuleError("Phi Tau Phi^-1 != Tau^q")

    @classmethod
    def _with_inverse(cls, phi_inv, p, phi, q, tau, twist, **known) -> "TameGaloisModule":
        """A module whose Phi^-1, and perhaps its powers of N, T^q and S_q, are
        seeded into their caches; __post_init__ checks Phi^-1 and T^q against them."""
        m = cls.__new__(cls)
        m.__dict__.update(known, phi_inv=phi_inv)
        m.__init__(p, phi, q, tau, twist)
        return m

    @property
    def dim(self) -> int:
        return len(self.phi)

    @cached_property
    def phi_inv(self) -> np.ndarray:
        return ff.inv(self.phi, self.p)

    @cached_property
    def _nil_powers(self) -> np.ndarray:
        """N^0, N^1, ... for N = T - 1, stacked, up to the last nonzero power;
        it runs on to a nonzero N^J, J = min(n, p), which __post_init__ refuses."""
        p, powers = self.p, [ff.eye(self.dim)]
        power = nil = (self.tau - powers[0]) % p
        while power.any() and len(powers) <= min(self.dim, p):
            powers.append(power)
            power = power @ nil % p
        powers = np.array(powers)
        powers.flags.writeable = False  # twists share it
        return powers

    def _nil_sums(self, *coeffs) -> np.ndarray:
        """sum_j c_j N^j mod p for each list of integers (c_0, c_1, ...), stacked:
        at most min(n, p) terms below p^2, in int64 under the constructor's bound."""
        p, powers = self.p, self._nil_powers
        c = np.array([[x % p for x in row] for row in coeffs], dtype=np.int64)
        flat = powers.reshape(len(powers), powers[0].size)
        return (c @ flat % p).reshape(len(c), *powers.shape[1:])

    @cached_property
    def _tau_sums(self) -> np.ndarray:
        """T^q and S_q, formed once for the constructor's check and the relator."""
        q, js = self.q, range(len(self._nil_powers))
        return self._nil_sums([math.comb(q, j) for j in js], [math.comb(q, j + 1) for j in js])

    @cached_property
    def phi_eff(self) -> np.ndarray:
        """Arithmetic Frobenius including the Tate twist: qbar^e * Phi."""
        return (pow(self.q, self.twist, self.p) * self.phi) % self.p

    def twisted(self, e: int) -> "TameGaloisModule":
        return self if e == 0 else TameGaloisModule._with_inverse(
            self.phi_inv, self.p, self.phi, self.q, self.tau, self.twist + e,
            _nil_powers=self._nil_powers, _tau_sums=self._tau_sums)

    def dual_twist(self) -> "TameGaloisModule":
        """M^vee(1): arithmetic action qbar * (Phi_eff^T)^-1, inertia (Tau^T)^-1."""
        return self._dual

    @cached_property
    def _dual(self) -> "TameGaloisModule":
        # Phi_eff = s.Phi with s = qbar^twist, and Phi_d = c.Phi^-T with
        # c = qbar/s = qbar^(1 - twist) has the inverse c^-1.Phi^T.
        p, c = self.p, pow(self.q, 1 - self.twist, self.p)
        # c Phi^-T < p^2 fits int64 (odd_prime bounds p); __post_init__ reduces it.
        phi_d = c * self.phi_inv.T
        phi_d_inv = pow(c, -1, p) * self.phi.T % p
        # T' = (T^-1)^T = 1 + N', and N'^i is the transpose of
        # (sum_{j>0} (-N)^j)^i = sum_j (-1)^j C(j - 1, i - 1) N^j (N'^0 = 1).
        k = len(self._nil_powers)
        rows = [[(-1) ** j * math.comb(j - 1, i - 1) if i and j else int(i == j)
                 for j in range(k)] for i in range(k)]
        dual = self._nil_sums(*rows, [(-1) ** j for j in range(k)]).transpose(0, 2, 1).copy()
        dual.flags.writeable = False  # its twists share the powers
        return TameGaloisModule._with_inverse(phi_d_inv, p, phi_d, self.q, dual[k], 0,
                                              _nil_powers=dual[:k])

    # -- relator operators -------------------------------------------------

    @cached_property
    def relator_matrix(self) -> np.ndarray:
        """d1 as an (n x 2n) block matrix [1 - T^q | Phi - S_q] acting on (a; b)."""
        p, (tau_q, s_q) = self.p, self._tau_sums
        return np.concatenate([(ff.eye(self.dim) - tau_q) % p, (self.phi_eff - s_q) % p], axis=1)

    @cached_property
    def pairing_matrix(self) -> np.ndarray:
        """G (2n x 2n) with V(x, y) = x^T G y for stacked cocycles x on M and
        y on M.dual_twist(); see the module docstring."""
        n, q, js = self.dim, self.q, range(len(self._nil_powers))
        md = self.dual_twist()  # its N' has as many nonzero powers as N
        g = ff.zeros((2 * n, 2 * n))
        g[:n, n:] = md.phi_eff
        # -sum_{m=1}^{q} T'^m and -sum_{m=1}^{q-1} (q - m) T'^m in closed form.
        g[n:, :n], g[n:, n:] = md._nil_sums([(j == 0) - math.comb(q + 1, j + 1) for j in js],
                                             [q * (j == 0) - math.comb(q + 1, j + 2) for j in js])
        return g

    @cached_property
    def coboundary_matrix(self) -> np.ndarray:
        """d0 as a (2n x n) block matrix [Phi - 1; T - 1]."""
        return ff.fixed_equations([self.phi_eff, self.tau], self.dim)

    @cached_property
    def _gram(self):
        # Entries below p: sums of 2n products fit int64 under the constructor's bound.
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
    if len(m._nil_powers) > 1:  # T = 1 exactly when N^0 is the only power kept
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
