"""Finite-group cohomology and synthetic Selmer-system linear algebra:
Selmer/dual-Selmer computation, the dual-annihilation step, the inflation
decomposition check, and the avoidance step.

Group cohomology in degrees 1 and 2 comes from one cocycle system over the
generators, constrained by the Schreier relators of the breadth-first
enumeration (Holt, Eick and O'Brien, Handbook of Computational Group Theory,
2.4).  The group is held as arrays, each element once, with its BFS tree as
two index arrays; a coinduced module's matrices and the words of
`_multiplier` are filled a BFS layer at a time, the cocycle system's path
sums by pointer doubling (Wyllie, The Complexity of Parallel Computations,
1979) in ceil(log2 depth) steps.  When p does not divide |G|, H^1 = H^2 =
0 and nothing is built (Brown, Cohomology of Groups, III.10).  Otherwise
H^1 is `ffield.kernel_quotient` of that system, reduced as ffield's
docstring describes and as tame H^1 is, and degree 2 is a count of ranks:
- when p exactly divides |G|, H^2 is the N_G(P)-stable part of H^2(P, M) =
  M^P / N_P M for a subgroup P of order p (Cartan-Eilenberg, Homological
  Algebra, ch. XII; Brown III.10), three eliminations of n columns;
- otherwise it is degree 1 of CoInd_H^G(M)/M (dimension shifting) for a
  subgroup H of order prime to p, of dimension n([G:H] - 1), by Shapiro's
  lemma (Brown III.5-6).
Subgroups and cosets are found by index arithmetic on the step table of the
enumeration, with no matrix product.

Synthetic systems make global duality true by construction: the global space
H maps isomorphically onto a chosen subspace I of the direct sum of local
spaces, and the dual global space H' onto the annihilator of I under the
local pairings.  "New primes" are explicit indices carried by the system;
nothing is ever searched for.

A local condition L_v enters only through equations whose kernel it is, so
Sel_L and Sel*_{L-perp} are each one nullspace, and exactness and the
inflation decomposition are rank counts; no quotient space is built.  Both
are kept on the assignment, which a builder and its step share.  The steps
test membership by one product against equations they hold (Sel_L, Sel*,
L_w, the tangent lines, an annihilator, the weight subspace U), and each
builder validates the one system it returns.

Equations are eliminated only where nothing already gives them.  A builder
dresses canonical coordinate subspaces (L_0, the tangent lines) by a
change of basis g_v, which moves their coordinate equations to rows of
g_v^-1 (`_dress`), and seeds those, and none for a condition that is all
of V_v, as E_v and as the tangent lines' equations; `replaced` reads the
new place's E_v off the kernel vectors of the reduction that gives its
L_v.  Sel_L is read off the RREF of the stacked E_v res_v, which depends
on their row spaces alone, so seeded equations give the same bases.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from . import ffield as ff
from .errors import InputError, VerificationFailure


class SelmerError(InputError):
    pass


# The largest total local dimension build_exact_system draws a system on.
MAX_LOCAL_DIM = 256

# The largest group order FiniteGroupAction enumerates.
MAX_ORDER = 100_000


# ---------------------------------------------------------------------------
# Finite group actions and their cohomology
# ---------------------------------------------------------------------------

# Cell budget of the arrays that a group of order k with r generators on
# F_p^n builds: its k elements (k.n^2 cells, checked as they are enumerated;
# degree 2 builds no more when p exactly divides k), the degree-1 cocycle
# system (at most k.r.n x r.n) and, when p^2 divides k, the degree-2 one:
# k.r.n([G:H] - 1) x r.n([G:H] - 1), checked before the multiplier table is
# built, from [G:H] >= |G|_p, and again once H is known.
_CELL_BUDGET = 10**7

# The enumeration multiplies at most this many queued elements by the
# generators in one matmul.
_ENUM_ROWS = 256


@dataclass(eq=False)
class FiniteGroupAction:
    """Group generated by matrices over F_p, enumerated breadth first.

    elements is one read-only (k, n, n) int64 array in BFS order, step[x, i]
    is the index of elements[x] @ generators[i], and the BFS tree is two
    int64 arrays, tree = (tree_x, tree_i): the step (tree_x[y - 1],
    tree_i[y - 1]) first reached y >= 1.
    """

    p: int
    generators: list[np.ndarray]
    elements: np.ndarray = field(init=False)
    step: np.ndarray = field(init=False)
    tree: tuple = field(init=False)

    def __post_init__(self):
        n = len(self.generators[0]) if self.generators else 0
        # The enumeration sums n products, the degree-1 lift r.n of them.
        p = self.p = ff.odd_prime(self.p, SelmerError, len(self.generators) * n)
        gens = [ff.normalize(g, p) for g in self.generators]
        for g in gens:
            if g.shape != (n, n) or ff.rank(g, p) < n:
                raise SelmerError("generators must be invertible and same-sized")
        self.generators = gens
        r, width = len(gens), 8 * n * n  # the bytes of one element
        stacked = np.array(gens, dtype=np.int64).reshape(r, n, n)
        # index maps each element's bytes to its index in dict order, so its
        # keys are the only copy of the elements.  Each batch of queued keys
        # times every generator is keyed by slices of one buffer; found holds
        # the x.r + i of each step to a new element.
        index = {ff.eye(n).tobytes(): 0}
        queue, step, found = list(index), [], []
        while queue:
            batch, queue = queue[:_ENUM_ROWS], queue[_ENUM_ROWS:]
            acts = np.frombuffer(b"".join(batch), dtype=np.int64).reshape(len(batch), 1, n, n)
            prods, base = (acts @ stacked % p).tobytes(), len(step)
            for j in range(len(batch) * r):
                key = prods[j * width : (j + 1) * width]
                y = index.setdefault(key, k := len(index))
                if y == k:
                    if len(index) > MAX_ORDER:
                        raise SelmerError("enumeration overflow beyond the order bound")
                    _check_budget(len(index), 1, n, "the enumeration")
                    queue.append(key)
                    found.append(base + j)
                step.append(y)
        self.elements = np.frombuffer(b"".join(index), dtype=np.int64).reshape(len(index), n, n)
        self.step = np.array(step, dtype=np.int64).reshape(len(index), r)
        self.tree = np.divmod(np.array(found, dtype=np.int64), r)

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def dim(self) -> int:
        return len(self.elements[0])


def finite_cohomology(g: FiniteGroupAction, degree: int):
    """(dimension, basis) of H^degree(G, M) for degree in {0, 1, 2}.

    Degree 0 is the fixed space.  Degree 1 is 0, with no system built, when
    p does not divide |G|, as degree 2 below; otherwise it reduces the
    generator-level system of `_cocycles` in the values u = (f(s_i))_i by
    `ffield.kernel_quotient` and lifts its representatives to the
    coordinates (f(x))_x, so it always works on G itself.

    Degree 2 returns only a dimension (the basis is None):
    - p does not divide |G|: restriction to the trivial Sylow subgroup is
      injective, so H^2 = 0 and nothing is built (Brown, Cohomology of
      Groups, III.10).
    - p exactly divides |G|: a subgroup P = <x> of order p meets each
      conjugate other than itself trivially, so by the stable-element theorem
      restriction maps H^2(G, M) onto the N_G(P)-invariants of H^2(P, M)
      (Cartan-Eilenberg, ch. XII; Brown III.10).  The periodic resolution of
      P gives H^2(P, M) = M^P / N_x M, N_x = sum_a x^a, by cup product with a
      generator of H^2(P, Z) = Hom(P, Q/Z); y with y^-1 x y = x^(b_y)
      multiplies it by b_y, so y acts on M^P / N_x M by m -> b_y y.m
      (`_tate_h2`).  No array has more than the enumeration's k.n^2 cells.
    - p^2 divides |G|: for a subgroup H of order prime to p, CoInd_H^G M =
      {f: G -> M, f(hx) = h.f(x)} with (s.f)(x) = f(x s) has H^n(G, CoInd) =
      H^n(H, M) = 0 for n >= 1 (Shapiro's lemma, Brown III.5-6), and m -> (x
      -> x.m) embeds M.  So H^2(G, M) = H^1(G, Q) for Q = CoInd/M, of
      dimension n([G:H] - 1); H is grown greedily (`_p_prime_subgroup`), and
      H = {1} gives the plain coinduced module.  The cell budget refuses the
      system before the multiplier table is built when even [G:H] = |G|_p,
      the smallest index possible, is over it.
    """
    p, n, (k, r) = g.p, g.dim, g.step.shape
    if degree == 0:
        basis = ff.nullspace(ff.fixed_equations(g.generators, n), p)
        return basis.shape[1], basis

    if degree == 1:
        if k % p:
            return 0, ff.zeros((k * n, 0))
        _check_budget(k, r, n, "the degree-1 cocycle system")
        # u_i = f(s_i) on Z^1, so B^1 is spanned there by the blocks s_i - 1.
        system, f = _cocycles(p, g.elements, g.step, g.tree)
        reps = ff.kernel_quotient(system, ff.fixed_equations(g.generators, n), p)[0]
        return reps.shape[1], f.transpose(0, 2, 1, 3).reshape(k * n, r * n) @ reps % p

    if degree == 2:
        sylow = _p_part(k, p)
        if sylow == 1:
            return 0, None
        if sylow == p:
            return _tate_h2(g), None
        _check_budget(k, r, n * (sylow - 1), "the shifted degree-2 system")
        times = _multiplier(g)
        coset, head, reps = _right_cosets(g, times, _p_prime_subgroup(g, times))
        dim_q = n * (len(reps) - 1)
        _check_budget(k, r, dim_q, "the shifted degree-2 system")
        # s_i maps f to (f(t_j s_i))_j, and t_j s_i = h t_j' puts the block h
        # at (j, j') of its matrix on CoInd, in the coordinates (f(t_j))_j.
        # Q is the complement f(t_0) = f(1) = 0, and f is reduced into it by
        # subtracting the image (t_j f(1))_j of M.
        y = g.step[reps].T
        s = ff.zeros((r, len(reps), n, len(reps), n))
        s[np.arange(r)[:, None], np.arange(len(reps)), :, coset[y], :] = g.elements[head[y]]
        s = s.reshape(r, n * len(reps), n * len(reps))
        q_gens = s[:, n:, n:] - g.elements[reps[1:]].reshape(dim_q, n) @ s[:, :n, n:]  # unreduced
        q_elements = ff.eye(dim_q)[None].repeat(k, axis=0)  # row 0 is the identity
        for lo, hi, xs, gs in _layers(g.tree):
            q_elements[lo:hi] = q_elements[xs] @ q_gens[gs] % p
        # dim H^1(G, Q) = dim Z^1 - dim B^1, and dim B^1 = dim Q - dim Q^G.
        system = _cocycles(p, q_elements, g.step, g.tree)[0]
        moved = ff.fixed_equations(q_gens, dim_q)
        return r * dim_q - ff.rank(system, p) - ff.rank(moved, p), None

    raise SelmerError("degree must be 0, 1, or 2")


def _cocycles(p: int, acts, step, tree):
    """(system, F) for the 1-cocycles of G on M, acts[x] acting on F_p^n.

    The unknowns are u = (f(s_1), ..., f(s_r)); along the BFS tree f(y) =
    sum_i F[y, i] u_i, F blocks-major (k, r, n, n), with F[0] = 0 and F[y] =
    F[x] + x.E_i for the parent (x, i) of y, E_i picking out f(s_i).  Edge
    (x, i) gives F[step[x, i]] - F[x] - x.E_i = 0.  That is zero on the k - 1
    tree edges, so only the others enter the system: the Schreier relators,
    which generate every relation of G.  Z^1 is the kernel of the system,
    returned unreduced, in the unknowns u.  F starts as the tree edge into
    each y, whose path sums f += f[up]; up = up[up] doubles from the
    parents, in ceil(log2 depth) steps, below |G| p; F is reduced once.
    """
    (k, r), n = step.shape, len(acts[0])
    f = ff.zeros((k, r, n, n))
    f[np.arange(1, k), tree[1]] = acts[tree[0]]  # the tree edge into each y
    up = np.concatenate([[0], tree[0]])  # the parents, the root its own
    while up.any():
        f += f[up]
        up = up[up]
    f = f % p
    relator = np.ones((k, r), dtype=bool)
    relator[tree] = False
    xs, gs = relator.nonzero()
    system = f[step[xs, gs]] - f[xs]
    system[np.arange(len(xs)), gs] -= acts[xs]
    return system.transpose(0, 2, 1, 3).reshape(len(xs) * n, r * n), f


def _layers(tree):
    """(lo, hi, xs, gs) per BFS layer: y in lo..hi-1 is xs[y - lo] . s_gs[y - lo].
    Parents are nondecreasing, so a layer is every y whose parent is in the one before."""
    tree_x, tree_i = tree
    lo, hi = 1, 1 + int(tree_x.searchsorted(1))
    while lo < hi:
        yield lo, hi, tree_x[lo - 1 : hi - 1], tree_i[lo - 1 : hi - 1]
        lo, hi = hi, 1 + int(tree_x.searchsorted(hi))


def _p_part(k: int, p: int) -> int:
    """The largest power of p dividing k."""
    part = 1
    while k % (part * p) == 0:
        part *= p
    return part


def _check_budget(k: int, r: int, dim: int, what: str) -> None:
    if k * r * dim * r * dim > _CELL_BUDGET:
        raise SelmerError(f"{what} exceeds its cell budget")


def _tate_h2(g: FiniteGroupAction) -> int:
    """dim (M^P / N_x M)^{N_G(P)}, y acting by m -> b_y y.m (`finite_cohomology`):
    Z spans M^P and E cuts out N_x M, so the fixed classes are the kernel of
    the stacked E (b_y y - 1) Z, less the dim N_x M inside it."""
    p, n = g.p, g.dim
    x, powers, b = _sylow_twists(g)
    z = ff.nullspace(x - ff.eye(n), p)  # ffield reduces what it eliminates
    e = ff.nullspace(powers.sum(axis=0).T, p).T
    twisted = (b[:, None, None] * g.elements - ff.eye(n))[b > 0] % p
    rows = (e @ twisted % p @ z).reshape(-1, z.shape[1])
    return z.shape[1] - ff.rank(rows, p) - (n - len(e))


def _sylow_twists(g: FiniteGroupAction):
    """(x, x^0 .. x^(p - 1), b) when p exactly divides |G|: x = y^(|G|/p) != 1
    for the first such y, and b[y] the a with y^-1 x y = x^a, 0 off N_G(P).
    Inverses are walked down the BFS tree; y^-1 x y is found by its bytes."""
    p, n, k = g.p, g.dim, g.order
    one, width = ff.eye(n), 8 * n * n
    x = next(a for a in (_power(y, k // p, p) for y in g.elements) if (a != one).any())
    powers = one[None]  # each pass appends them times x^len(powers)
    while len(powers) < p:
        powers = np.concatenate([powers, powers[: p - len(powers)] @ (powers[-1] @ x % p) % p])
    exponent = {powers[a].tobytes(): a for a in range(1, p)}
    inverse = one[None].repeat(k, axis=0)
    gen_inverses = g.elements[(g.step == 0).argmax(axis=0)]  # z . s_i = 1
    for lo, hi, xs, gs in _layers(g.tree):
        inverse[lo:hi] = gen_inverses[gs] @ inverse[xs] % p
    conj = ((inverse @ x % p) @ g.elements % p).tobytes()
    b = [exponent.get(conj[y * width : (y + 1) * width], 0) for y in range(k)]
    return x, powers, np.array(b, dtype=np.int64)


def _power(a, e: int, p: int):
    """a^e mod p by repeated squaring."""
    out = ff.eye(len(a))
    while e:
        out, a, e = out @ a % p if e & 1 else out, a @ a % p, e >> 1
    return out


def _multiplier(g: FiniteGroupAction):
    """times(a, b): the index of elements[a] @ elements[b], elementwise over
    index arrays.  b's word along the BFS tree is applied to a through the
    step table, so no matrix is multiplied."""
    k, r = g.step.shape
    layers = list(_layers(g.tree))
    letters = np.full((k, len(layers)), r)  # letter r multiplies by 1
    for depth, (lo, hi, xs, gs) in enumerate(layers):
        letters[lo:hi] = letters[xs]
        letters[lo:hi, depth] = gs
    table = np.concatenate([g.step, np.arange(k)[:, None]], axis=1)

    def times(a, b):
        for column in letters.T:
            a = table[a, column[b]]
        return a

    return times


def _subgroup(times, gens, limit: int):
    """Sorted indices of the subgroup generated by the indices gens, or None
    once it has more than limit elements."""
    members = {0}
    frontier = np.array([0])
    while frontier.size:
        new = set(times(frontier[:, None], np.asarray(gens)).ravel().tolist()) - members
        members |= new
        if len(members) > limit:
            return None
        frontier = np.fromiter(new, dtype=np.int64, count=len(new))
    return np.array(sorted(members), dtype=np.int64)


def _p_prime_subgroup(g: FiniteGroupAction, times) -> np.ndarray:
    """Sorted indices of a subgroup H with p not dividing |H|, grown greedily
    in BFS order: y outside H joins when the subgroup with y has order prime
    to p and at most the p'-part of |G|, the most |H| can be."""
    k = g.order
    limit = k // _p_part(k, g.p)
    gens, members = [], np.zeros(1, dtype=np.int64)
    for y in range(1, k):
        if len(members) == limit:
            break
        if y in members:
            continue
        grown = _subgroup(times, gens + [y], limit)
        if grown is not None and len(grown) % g.p:
            gens, members = gens + [y], grown
    return members


def _right_cosets(g: FiniteGroupAction, times, members):
    """(coset, head, reps) for the right cosets H t_j of the subgroup with the
    given sorted indices: reps[j] is the first index of the j-th coset, so
    reps[0] = 0, and y = head[y] . reps[coset[y]] with head[y] in H."""
    every = np.arange(g.order)
    left = times(members[:, None], every)  # left[m, y] = h_m . y
    first = left.min(axis=0)
    reps = np.flatnonzero(first == every)
    coset = np.searchsorted(reps, first)
    head = np.empty(g.order, dtype=np.int64)
    head[left[:, reps]] = members[:, None]
    return coset, head, reps


# ---------------------------------------------------------------------------
# Selmer systems
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class SelmerSystem:
    """Global spaces with local restriction maps and local pairings.

    res[v] is (dim V_v x dim H), res_dual[v] is (dim V'_v x dim H'), and
    pairing[v] is the matrix of the pairing V_v x V'_v -> k.  Construction
    checks shapes and reciprocity only: perfect pairings are a hypothesis,
    which the builders meet with identity pairings and a payload reader
    checks where a pairing enters, and exactness is a verdict,
    `exactness_holds`.
    """

    p: int
    places: tuple[str, ...]
    local_dims: dict
    res: dict
    res_dual: dict
    pairing: dict

    def __post_init__(self):
        if not self.places:
            raise SelmerError("a Selmer system needs at least one place")
        h, h_dual = self.dim_h, self.dim_h_dual
        self.p = ff.odd_prime(self.p, SelmerError,
                              max(h, h_dual, *(self.local_dims[v] for v in self.places)))
        for v in self.places:
            nv = self.local_dims[v]
            if self.res[v].shape != (nv, h):
                raise SelmerError(f"res at {v} is not {nv} x {h}")
            if self.res_dual[v].shape != (nv, h_dual):
                raise SelmerError(f"res_dual at {v} is not {nv} x {h_dual}")
            if self.pairing[v].shape != (nv, nv):
                raise SelmerError(f"pairing at {v} has the wrong shape")
        if not self.reciprocity_holds():
            raise SelmerError("reciprocity fails: sum of local pairings is nonzero")

    @property
    def dim_h(self) -> int:
        return next(iter(self.res.values())).shape[1]

    @property
    def dim_h_dual(self) -> int:
        return next(iter(self.res_dual.values())).shape[1]

    def stacked_res(self):
        return np.concatenate([self.res[v] for v in self.places])

    def stacked_res_dual(self):
        return np.concatenate([self.res_dual[v] for v in self.places])

    def block_pairing(self):
        return ff.block_diag([self.pairing[v] for v in self.places])

    def reciprocity_holds(self) -> bool:
        total = ff.zeros((self.dim_h, self.dim_h_dual))
        for v in self.places:
            left = self.res[v].T @ self.pairing[v] % self.p
            total = (total + left @ self.res_dual[v]) % self.p
        return not total.any()

    def exactness_holds(self) -> bool:
        """Is the image of H the annihilator of the image of H'?  Reciprocity
        puts it inside, and is not tested again: __post_init__ refuses a
        system without it.  The annihilator is the kernel of the transpose of
        the stacked P_v res'_v, of dimension sum dim V_v minus its rank, so
        equality is a rank count."""
        total = sum(self.local_dims[v] for v in self.places)
        paired = np.concatenate([self.pairing[v] @ self.res_dual[v] for v in self.places])
        return ff.rank(self.stacked_res(), self.p) + ff.rank(paired, self.p) == total


@dataclass(eq=False)
class ConditionAssignment:
    """Per-place subspaces L_v with their duality annihilators."""

    system: SelmerSystem
    l_spaces: dict
    # E_v per place, filled by `equations`; `replaced` carries over all but one.
    _equations: dict = field(default_factory=dict, init=False, repr=False)
    # Sel_L and Sel*_{L-perp}, filled by `kept`; `replaced` carries neither over.
    _spaces: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for v in self.system.places:
            if v not in self.l_spaces:
                raise SelmerError(f"assignment misses place {v}")
            l = np.asarray(self.l_spaces[v])
            if l.ndim != 2 or l.shape[0] != self.system.local_dims[v]:
                raise SelmerError(f"condition at {v} is not a column basis in V_{v}")

    def l_perp(self, v) -> np.ndarray:
        return ff.annihilator(self.l_spaces[v], self.system.pairing[v], self.system.p)

    @classmethod
    def _with_equations(cls, system, l_spaces, equations) -> "ConditionAssignment":
        """An assignment whose E_v are already known at the places of
        `equations`: they are seeded into the cache that `equations` fills."""
        out = cls(system, l_spaces)
        out._equations.update(equations)
        return out

    def equations(self, v) -> np.ndarray:
        """E_v, whose kernel is L_v: nullspace(L_v^T)^T, one elimination per
        place, unless a builder or `replaced` seeded equations of the same
        row space."""
        if v not in self._equations:
            self._equations[v] = ff.nullspace(self.l_spaces[v].T, self.system.p).T
        return self._equations[v]

    def kept(self, system: SelmerSystem, name: str, build) -> np.ndarray:
        """The space `name`, build() once; for the assignment's own system only."""
        if system is not self.system:
            raise SelmerError("the conditions belong to another Selmer system")
        if name not in self._spaces:
            self._spaces[name] = build()
            self._spaces[name].setflags(write=False)  # every caller shares it
        return self._spaces[name]

    def replaced(self, v, new_l) -> "ConditionAssignment":
        """The assignment with L_v = span(new_l), whose canonical basis and
        E_v come off one reduction of new_l^T."""
        new = dict(self.l_spaces)
        new[v], e_v = ff.column_space_equations(new_l, self.system.p)
        kept = {u: e for u, e in self._equations.items() if u != v}
        return ConditionAssignment._with_equations(self.system, new, {**kept, v: e_v})

    def dims(self) -> dict:
        return {v: int(self.l_spaces[v].shape[1]) for v in self.system.places}


def selmer(system: SelmerSystem, conditions: ConditionAssignment) -> np.ndarray:
    """Sel_L = {h : res_v h in L_v for all v}, as a column basis in H-coordinates.

    E_v = nullspace(L_v^T)^T has kernel L_v, so Sel_L is the nullspace of the
    stacked E_v res_v.  All equations of L_v share one row space, so the
    basis, read off its RREF, does not depend on which are taken.
    """
    return conditions.kept(system, "selmer", lambda: ff.nullspace(
        np.concatenate([conditions.equations(v) @ system.res[v] for v in system.places]), system.p))


def dual_selmer(system: SelmerSystem, conditions: ConditionAssignment) -> np.ndarray:
    """Sel*_{L-perp} = {h' : res'_v h' in L_v-perp for all v}, in H'-coordinates.

    y lies in L_v-perp exactly when L_v^T P_v y = 0, so the rows L_v^T P_v res'_v
    need no elimination of their own.
    """
    p = system.p
    return conditions.kept(system, "dual_selmer", lambda: ff.nullspace(np.concatenate(
        [(conditions.l_spaces[v].T @ system.pairing[v] % p) @ system.res_dual[v]
         for v in system.places]), p))


def _vanishes(rows, x, p: int) -> bool:
    """Is x, or every column of x, in the kernel of rows?  Both are reduced
    first, so each may come unreduced from a product of residues."""
    return not ((rows % p) @ (x % p) % p).any()


# ---------------------------------------------------------------------------
# The annihilation step
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class RamakrishnaData:
    """Unramified and ramified tangent lines at a fresh index."""

    unr: np.ndarray
    ram: np.ndarray
    _equations: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def _with_equations(cls, p: int, unr, ram) -> "RamakrishnaData":
        """The lines of the pairs (line, its equations mod p) unr and ram; the
        equations are seeded into the cache that `equations` fills."""
        out = cls(unr[0], ram[0])
        out._equations.update({("unr", p): unr[1], ("ram", p): ram[1]})
        return out

    def equations(self, line: str, p: int) -> np.ndarray:
        """Equations of span(unr) or span(ram), by name, mod p; made once each."""
        if (line, p) not in self._equations:
            self._equations[line, p] = ff.nullspace(getattr(self, line).T, p).T
        return self._equations[line, p]


@dataclass(eq=False)
class StepReport:
    selmer_before: int
    selmer_after: int
    dual_before: int
    dual_after: int


def annihilation_step(system: SelmerSystem, conditions: ConditionAssignment,
                      w: str, ram: RamakrishnaData, phi, psi):
    """Enlarge the condition at w from unramified to unramified + ramified.

    Hypotheses (errors, no mutation, when violated): phi is a dual-Selmer
    class whose restriction at w avoids the ramified annihilator, and psi a
    Selmer class whose restriction at w avoids the unramified/ramified
    intersection.  The dual condition at w shrinks to the intersection of the
    two annihilators, which is exactly what cuts the new dual Selmer group
    out of the old one: its dimension drops by one while the Selmer dimension
    is unchanged.
    """
    p = system.p
    if w not in system.places:
        raise SelmerError(f"unknown index {w}")
    if not _is_fresh(conditions, w, ram, p):
        raise SelmerError("step requires the fresh unramified condition at w")
    phi = ff.normalize(phi, p)
    psi = ff.normalize(psi, p)
    sel_before, dual_before = selmer(system, conditions), dual_selmer(system, conditions)
    # Sel_L and Sel* are the kernels of the E_v and L_v^T P_v used just above.
    if not all(_vanishes(conditions.equations(v), system.res[v] @ psi, p)
               for v in system.places):
        raise SelmerError("psi is not a Selmer class")
    if not all(_vanishes(conditions.l_spaces[v].T @ system.pairing[v],
                         system.res_dual[v] @ phi, p) for v in system.places):
        raise SelmerError("phi is not a dual-Selmer class")
    if _into_ram_annihilator(system, w, ram, phi):
        raise SelmerError("phi restricts into the ramified annihilator at w")
    if _into_unr_meet_ram(system, w, ram, psi):
        raise SelmerError("psi restricts into the unramified/ramified intersection at w")
    # `replaced` reduces [unr | ram] to its column space, unr + ram.
    new_conditions = conditions.replaced(w, np.concatenate([ram.unr, ram.ram], axis=1))
    sel_after, dual_after = selmer(system, new_conditions), dual_selmer(system, new_conditions)
    report = StepReport(sel_before.shape[1], sel_after.shape[1],
                        dual_before.shape[1], dual_after.shape[1])
    if report.dual_after >= report.dual_before:
        raise VerificationFailure("dual Selmer did not drop; system is not exact enough")
    if report.selmer_after != report.selmer_before:
        raise VerificationFailure("Selmer dimension moved; system is not exact enough")
    return new_conditions, report


def _is_fresh(conditions: ConditionAssignment, w, ram: RamakrishnaData, p: int) -> bool:
    """Is L_w = span(unr)?  Each lies in the kernel of the other's equations."""
    return _vanishes(conditions.equations(w), ram.unr, p) and \
        _vanishes(ram.equations("unr", p), conditions.l_spaces[w], p)


def _into_ram_annihilator(system, w, ram: RamakrishnaData, phi) -> bool:
    """Does the dual class phi restrict at w into ram's annihilator, the
    kernel of ram^T P_w?"""
    return _vanishes(ram.ram.T @ system.pairing[w], system.res_dual[w] @ phi, system.p)


def _into_unr_meet_ram(system, w, ram: RamakrishnaData, psi) -> bool:
    """Does the class psi restrict at w into unr meet ram?"""
    at_w = system.res[w] @ psi  # _vanishes reduces it
    return all(_vanishes(ram.equations(x, system.p), at_w, system.p) for x in ("unr", "ram"))


# ---------------------------------------------------------------------------
# Inflation decomposition
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class InflationFamily:
    """Nested global spaces inside a common ambient: base <= each enlargement <= full."""

    p: int
    base: np.ndarray
    enlargements: list[np.ndarray]
    full: np.ndarray

    def __post_init__(self):
        self.p = ff.odd_prime(self.p, SelmerError)  # it only eliminates
        for h in [*self.enlargements, self.full]:
            if not ff.span_contains(h, self.base, self.p):
                raise SelmerError("family is not nested over the base")
        for h in self.enlargements:
            if not ff.span_contains(self.full, h, self.p):
                raise SelmerError("enlargement exceeds the joint space")


def inflation_decomposition_check(family: InflationFamily) -> bool:
    """Do the one-index quotients decompose the joint quotient?

    True iff the inflations induce an isomorphism from the direct sum of
    H_i/H_base onto H_full/H_base.  Every H_i lies in H_full, so that holds
    exactly when the quotient dimensions add and base + sum H_i = H_full.
    """
    p = family.p
    base = ff.rank(family.base, p)
    full = ff.rank(family.full, p)
    added = sum(ff.rank(h, p) - base for h in family.enlargements)
    joint = np.concatenate([family.base, *family.enlargements], axis=1)
    return added == full - base and ff.rank(joint, p) == full


# ---------------------------------------------------------------------------
# The avoidance step
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class AvoidanceReport:
    selmer_before: int
    selmer_after: int
    psi_prime: np.ndarray
    psi_tilde: np.ndarray
    beta_psi_tilde: np.ndarray


def avoidance_step(system: SelmerSystem, conditions: ConditionAssignment,
                   beta, u_subspace, y: str, ram: RamakrishnaData):
    """Escape a proper weight subspace U by allowing ramification at y.

    Preconditions: the assignment at y is the fresh unramified one, beta is
    surjective onto the weight space and sees only classes unramified-or-
    conditioned away from y, the old Selmer image under beta lies in U, the
    old dual Selmer vanishes, and the enlargement contributes exactly one
    dimension.  Returns new conditions (the ramified line at y) and a Selmer
    class psi_tilde with beta(psi_tilde) outside U.
    """
    p = system.p
    beta = ff.normalize(beta, p)
    u_subspace = ff.normalize(u_subspace, p)
    d_weights = beta.shape[0]
    # U is the kernel of these equations, so membership in U is one product,
    # and U is proper exactly when there is at least one.
    u_equations = ff.nullspace(u_subspace.T, p).T
    if u_subspace.shape[0] != d_weights or not len(u_equations):
        raise SelmerError("U must be a proper subspace of the weight space")
    if not _is_fresh(conditions, y, ram, p):
        raise SelmerError("step requires the fresh unramified condition at y")
    if ff.rank(beta, p) < d_weights:
        raise SelmerError("beta is not surjective onto the weight space")
    sel_old = selmer(system, conditions)
    if dual_selmer(system, conditions).shape[1] != 0:
        raise SelmerError("old dual Selmer must vanish before avoidance")
    if not _vanishes(u_equations, beta @ sel_old, p):
        raise SelmerError("beta(old Selmer) is not inside U: nothing to avoid")
    # ker Phi: conditions away from y, no condition at y.
    relaxed = conditions.replaced(y, ff.eye(system.local_dims[y]))
    ker_phi = selmer(system, relaxed)
    if ker_phi.shape[1] != sel_old.shape[1] + 1:
        raise SelmerError("enlargement dimension count is not one")
    if ff.rank(beta @ ker_phi, p) != d_weights:  # the rank of beta, checked above
        raise SelmerError("beta does not factor through the conditioned classes")
    # Deterministic psi': the first ker Phi basis vector outside Sel_old, a subspace of it.
    psi_prime = ff.QuotientSpace(ker_phi, sel_old, p).reps[:, 0]
    if _vanishes(u_equations, beta @ psi_prime, p):
        raise VerificationFailure("enlargement does not escape U")
    new_conditions = conditions.replaced(y, ram.ram)
    sel_new = selmer(system, new_conditions)
    if sel_new.shape[1] != sel_old.shape[1]:
        raise VerificationFailure("new Selmer dimension moved; enlargement is inconsistent")
    # psi_tilde: the first new-Selmer vector with nonzero psi'-coordinate.  Sel_new
    # lies in ker Phi = Sel_old + <psi'>, so the solve always succeeds.
    coords = ff.solve(np.concatenate([sel_old, psi_prime[:, None]], axis=1), sel_new, p)
    hits = coords[-1].nonzero()[0]
    if not hits.size:
        raise VerificationFailure("no new Selmer class has a psi'-component")
    psi_tilde = sel_new[:, hits[0]]
    beta_val = (beta @ psi_tilde) % p
    if _vanishes(u_equations, beta_val, p):
        raise VerificationFailure("avoidance failed: beta(psi_tilde) landed in U")
    return new_conditions, AvoidanceReport(
        sel_old.shape[1], sel_new.shape[1], psi_prime, psi_tilde, beta_val
    )


# ---------------------------------------------------------------------------
# Builders: canonical scenarios dressed by seeded changes of basis
# ---------------------------------------------------------------------------


def build_exact_system(rng: random.Random, p: int, local_dims: dict,
                       global_dim: int) -> SelmerSystem:
    """Random exact system: H maps onto a random subspace I of the local sum,
    H' onto the annihilator of I; identity pairings."""
    total = sum(local_dims.values())
    if any(n < 0 for n in local_dims.values()) or total > MAX_LOCAL_DIM:
        raise SelmerError(f"local dimensions must be >= 0 with a sum of at most {MAX_LOCAL_DIM}")
    if not 0 <= global_dim <= total:
        raise SelmerError("global dimension out of range")
    image = ff.random_subspace(rng, total, global_dim, p)
    places = tuple(sorted(local_dims))
    return SelmerSystem(p, places, dict(local_dims), *_exact_blocks(p, places, local_dims, image))


def _exact_blocks(p: int, places: tuple, local_dims: dict, image):
    """(res, res', pairing) of the exact system with identity pairings in
    which H maps onto the span of `image` in the local sum, whose rows run
    over `places` in order, and H' onto its annihilator."""
    image_dual = ff.annihilator(image, ff.eye(len(image)), p)
    res, res_dual, pos = {}, {}, 0
    for v in places:
        s = local_dims[v]
        res[v], res_dual[v] = image[pos : pos + s], image_dual[pos : pos + s]
        pos += s
    return res, res_dual, {v: ff.eye(local_dims[v]) for v in places}


def _dress(rng: random.Random, p: int, places: tuple, local_dims: dict, blocks, marked: dict):
    """Seeded change of basis on the local blocks and global spaces of the
    system with the (res, res', pairing) `blocks` of `_exact_blocks`.

    `marked` maps a place to a dict of named coordinate subspaces of that
    local space, each given by the coordinates that span it; they are
    transported along.  The change g_v moves span(e_i : i in cols) to the
    span of g_v's columns cols, and the equations e_j^T (j not in cols) of
    the one to the rows j of g_v^-1, equations of the other.  A mark becomes
    the pair (columns, equations), with no elimination.  Returns the dressed
    system, the transported marks, and the global change g_h (new
    coordinates x relate to canonical ones by x_old = g_h x_new).  The
    changes (g_v, g_v^-T) and (g_h, g_h') keep the identity pairings,
    reciprocity, exactness and every rank, so only the dressed system is
    built and validated; g_h and g_h' are drawn without their inverses.
    """
    res, res_dual = {}, {}
    new_marked = {v: {} for v in marked}
    for v in places:
        g, g_inv = ff.random_invertible(rng, local_dims[v], p)
        res[v] = (g @ blocks[0][v]) % p
        res_dual[v] = (g_inv.T @ blocks[1][v]) % p
        for name, cols in marked.get(v, {}).items():
            rest = [j for j in range(local_dims[v]) if j not in cols]
            new_marked[v][name] = g[:, cols], g_inv[rest]
    gh = ff.random_gl(rng, res[places[0]].shape[1], p)
    gh_dual = ff.random_gl(rng, res_dual[places[0]].shape[1], p)
    res = {v: (m @ gh) % p for v, m in res.items()}
    res_dual = {v: (m @ gh_dual) % p for v, m in res_dual.items()}
    return SelmerSystem(p, places, dict(local_dims), res, res_dual, blocks[2]), new_marked, gh


@dataclass(eq=False)
class AnnihilationScenario:
    system: SelmerSystem
    conditions: ConditionAssignment
    special: tuple[str, ...]
    ram: dict
    phi: np.ndarray
    psi: np.ndarray


def build_annihilation_scenario(seed: int, p: int = 5, extra_selmer: int = 1,
                                num_special: int = 1) -> AnnihilationScenario:
    """Exact system with fresh indices w1..wk, dual classes obstructed one per
    index, and a Selmer class meeting every unramified line.

    Canonical shape before dressing: the v0 block carries s0 conditioned
    coordinates plus one ghost coordinate per special index; the image of H
    is spanned by plain Selmer vectors, one Selmer vector threading the
    unramified lines, and one ghost per index threading the ramified line.
    """
    k = num_special
    if k < 1:
        raise SelmerError("num_special must be at least 1")
    if extra_selmer < -1:  # -1 leaves s0 = 1: psi alone in L0
        raise SelmerError("extra_selmer must be at least -1")
    s0 = 2 + extra_selmer
    n0 = s0 + k
    p = ff.odd_prime(p, SelmerError, n0 + 2 * k)  # _exact_blocks sums over the local sum
    rng = random.Random(seed)
    specials = tuple(f"w{i}" for i in range(k))
    places = ("v0", *specials)
    local_dims = {"v0": n0, **{w: 2 for w in specials}}
    e = ff.eye(n0 + 2 * k)
    # psi threads the unramified coordinate of every w_i, the ghost of w_i
    # its ramified coordinate.
    psi_vec = e[:, s0 - 1] + e[:, n0::2].sum(axis=1)
    ghosts = e[:, s0:n0] + e[:, n0 + 1 :: 2]
    image = np.column_stack([e[:, : s0 - 1], psi_vec, ghosts])  # 0/1 entries
    blocks = _exact_blocks(p, places, local_dims, image)
    # L0 is the first s0 coordinates of v0, unr and ram the two of each w_i.
    marked = {"v0": {"L": range(s0)}, **{w: {"unr": [0], "ram": [1]} for w in specials}}
    system, marked, _ = _dress(rng, p, places, local_dims, blocks, marked)
    l0, l0_equations = marked["v0"]["L"]
    conditions = ConditionAssignment._with_equations(
        system, {"v0": ff.column_space(l0, p), **{w: marked[w]["unr"][0] for w in specials}},
        {"v0": l0_equations, **{w: marked[w]["unr"][1] for w in specials}})
    ram_data = {w: RamakrishnaData._with_equations(p, marked[w]["unr"], marked[w]["ram"])
                for w in specials}
    sel, dual = selmer(system, conditions), dual_selmer(system, conditions)
    phi = _class_avoiding(system, dual, specials[0], ram_data[specials[0]], dual_side=True)
    psi = _class_avoiding(system, sel, specials[0], ram_data[specials[0]], dual_side=False)
    if phi is None or psi is None:
        raise SelmerError("scenario construction failed to expose phi or psi")
    return AnnihilationScenario(system, conditions, specials, ram_data, phi, psi)


def _class_avoiding(system, basis, w, ram: RamakrishnaData, dual_side: bool):
    """First basis class whose restriction at w avoids the step's forbidden
    subspace: the ramified annihilator (dual side) or unr meet ram (Selmer side)."""
    into = _into_ram_annihilator if dual_side else _into_unr_meet_ram
    return next((basis[:, j] for j in range(basis.shape[1])
                 if not into(system, w, ram, basis[:, j])), None)


@dataclass(eq=False)
class AvoidanceScenario:
    system: SelmerSystem
    conditions: ConditionAssignment
    y: str
    ram: RamakrishnaData
    beta: np.ndarray
    u_subspace: np.ndarray


def build_avoidance_scenario(seed: int, p: int = 5, d_weights: int = 2,
                             selmer_dim: int = 2) -> AvoidanceScenario:
    """Vanishing dual Selmer, beta(Selmer) inside a proper subspace U, and a
    ramified escape direction at the fresh index y.

    The canonical image of H is spanned by Selmer vectors unramified at y,
    one Selmer vector through the unramified line, and one carrier through
    the ramified line.
    """
    if d_weights < 2:
        raise SelmerError("d_weights must be at least 2, for a proper U")
    if selmer_dim < max(2, d_weights - 1):
        raise SelmerError("selmer_dim too small to span U while staying inside it")
    p = ff.odd_prime(p, SelmerError, selmer_dim + 3)  # _exact_blocks sums over the local sum
    rng = random.Random(seed)
    n0, ny = selmer_dim + 1, 2
    places = ("v0", "y")
    local_dims = {"v0": n0, "y": ny}
    e = ff.eye(n0 + ny)
    image = np.column_stack([
        e[:, : selmer_dim - 1],
        e[:, selmer_dim - 1] + e[:, n0],  # through the unramified line
        e[:, selmer_dim] + e[:, n0 + 1],  # the carrier, through the ramified line
    ])
    blocks = _exact_blocks(p, places, local_dims, image)
    marked = {"y": {"unr": [0], "ram": [1]}}
    # Weight map in canonical H-coordinates: Selmer columns land in U (spanned
    # by the all-ones vector and d-2 unit vectors), the carrier lands outside.
    w = ff.eye(d_weights)
    u_basis = np.column_stack([np.ones(d_weights, dtype=np.int64), w[:, 1 : d_weights - 1]])
    beta = ff.zeros((d_weights, image.shape[1]))
    beta[:, :selmer_dim] = u_basis[:, np.arange(selmer_dim) % u_basis.shape[1]]
    beta[:, selmer_dim:] = w[:, [d_weights - 1]]
    system, marked, gh = _dress(rng, p, places, local_dims, blocks, marked)
    beta = (beta @ gh) % p
    # The v0 bundle carries no constraint: the whole space, with no equations.
    conditions = ConditionAssignment._with_equations(
        system, {"v0": ff.eye(n0), "y": marked["y"]["unr"][0]},
        {"v0": ff.zeros((0, n0)), "y": marked["y"]["unr"][1]})
    ram_data = RamakrishnaData._with_equations(p, marked["y"]["unr"], marked["y"]["ram"])
    return AvoidanceScenario(system, conditions, "y", ram_data, beta, u_basis)


def build_inflation_family(rng: random.Random, p: int, base_dim: int,
                           added: list[int], overlapping: bool = False) -> InflationFamily:
    """Nested enlargements adding the given number of fresh dimensions each;
    the overlapping control makes two enlargements share a new vector."""
    if base_dim < 0 or any(extra < 0 for extra in added):
        raise SelmerError("base_dim and the added dimensions must be at least 0")
    p = ff.odd_prime(p, SelmerError)  # it only eliminates
    k = len(added)
    ambient = base_dim + sum(added) + 2
    g = ff.random_gl(rng, ambient, p)
    base = g[:, :base_dim]
    enlargements = []
    pos = base_dim
    for i, extra in enumerate(added):
        fresh = g[:, pos : pos + extra]
        if overlapping and i == 1 and k >= 2:
            shared = g[:, [base_dim]]  # first enlargement's vector
            fresh = np.concatenate([shared, fresh[:, 1:]], axis=1)
        enlargements.append(ff.column_space(np.concatenate([base, fresh], axis=1), p))
        pos += extra
    full_cols = [base] + [h for h in enlargements]
    full = ff.column_space(np.concatenate(full_cols, axis=1), p)
    return InflationFamily(p, ff.column_space(base, p), enlargements, full)
