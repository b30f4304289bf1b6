"""Truncated power series over Z_p, Newton-polygon root counting, the
root-of-unity constancy test, weight-space ranks, parallel-weight
functionals, and the infinitesimal-weight dichotomy.

Series are finitely supported coefficient maps on exponent multi-indices of
total degree <= cap D, with PadicInt coefficients at precision <= cap N.
The root-of-unity budget is the set of Teichmuller representatives: those
are the only roots of unity in Z_p for odd p, so a unit series over Z_p can
only be constant at one of them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .padics import PadicInt, PrecisionError, log_unit, teichmuller, teichmuller_budget, teichmuller_part


class SeriesError(ValueError):
    pass


def _monomials(nvars: int, max_degree: int):
    for total in range(max_degree + 1):
        for cuts in itertools.combinations(range(total + nvars - 1), nvars - 1):
            prev = -1
            parts = []
            for c in cuts:
                parts.append(c - prev - 1)
                prev = c
            parts.append(total + nvars - 2 - prev)
            yield tuple(parts)


@dataclass(eq=False)
class TruncatedSeries:
    """Finitely many PadicInt coefficients on multi-indices of degree <= cap."""

    p: int
    nvars: int
    prec: int
    degree_cap: int
    coeffs: dict[tuple[int, ...], PadicInt] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for idx, c in self.coeffs.items():
            idx = tuple(int(i) for i in idx)
            if len(idx) != self.nvars or any(i < 0 for i in idx):
                raise SeriesError(f"bad exponent {idx}")
            if sum(idx) > self.degree_cap:
                continue
            if not isinstance(c, PadicInt):
                c = PadicInt(self.p, int(c), self.prec)
            clean[idx] = c.at_precision(min(c.prec, self.prec))
        self.coeffs = clean

    # -- constructors --------------------------------------------------------

    @classmethod
    def constant(cls, value, p: int, nvars: int, prec: int, degree_cap: int):
        zero = tuple(0 for _ in range(nvars))
        return cls(p, nvars, prec, degree_cap, {zero: value})

    # -- access ----------------------------------------------------------------

    def coeff(self, idx) -> PadicInt:
        idx = tuple(idx)
        return self.coeffs.get(idx, PadicInt.zero(self.p, self.prec))

    @property
    def constant_term(self) -> PadicInt:
        return self.coeff(tuple(0 for _ in range(self.nvars)))

    def is_unit(self) -> bool:
        return self.constant_term.is_unit()

    def is_zero_at_prec(self) -> bool:
        return all(c.is_zero_at_prec() for c in self.coeffs.values())

    # -- arithmetic --------------------------------------------------------------

    def _check_compatible(self, other: "TruncatedSeries"):
        if (self.p, self.nvars) != (other.p, other.nvars):
            raise SeriesError("incompatible series")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_compatible(other)
        prec = min(self.prec, other.prec)
        cap = min(self.degree_cap, other.degree_cap)
        out = {}
        for idx in set(self.coeffs) | set(other.coeffs):
            out[idx] = self.coeff(idx) + other.coeff(idx)
        return TruncatedSeries(self.p, self.nvars, prec, cap, out)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.p, self.nvars, self.prec, self.degree_cap,
                               {i: -c for i, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_compatible(other)
        prec = min(self.prec, other.prec)
        cap = min(self.degree_cap, other.degree_cap)
        out: dict[tuple[int, ...], PadicInt] = {}
        for i1, c1 in self.coeffs.items():
            for i2, c2 in other.coeffs.items():
                idx = tuple(a + b for a, b in zip(i1, i2))
                if sum(idx) > cap:
                    continue
                prod = c1 * c2
                out[idx] = out[idx] + prod if idx in out else prod
        return TruncatedSeries(self.p, self.nvars, prec, cap, out)

    def scale(self, c: PadicInt) -> "TruncatedSeries":
        return TruncatedSeries(self.p, self.nvars, min(self.prec, c.prec), self.degree_cap,
                               {i: x * c for i, x in self.coeffs.items()})

    def inverse(self) -> "TruncatedSeries":
        """Unit-series inverse to the degree cap."""
        if not self.is_unit():
            raise SeriesError("inverse of a non-unit series")
        c0_inv = self.constant_term.unit_inverse()
        out = {tuple(0 for _ in range(self.nvars)): c0_inv}
        for idx in _monomials(self.nvars, self.degree_cap):
            if sum(idx) == 0:
                continue
            acc = PadicInt.zero(self.p, self.prec)
            for jdx, cj in self.coeffs.items():
                if sum(jdx) == 0:
                    continue
                kdx = tuple(a - b for a, b in zip(idx, jdx))
                if any(x < 0 for x in kdx):
                    continue
                if kdx in out:
                    acc = acc + cj * out[kdx]
            out[idx] = -(c0_inv * acc)
        return TruncatedSeries(self.p, self.nvars, self.prec, self.degree_cap, out)

    def divide(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self * other.inverse()

    # -- reductions -----------------------------------------------------------

    def dual_reduction(self, var: int) -> tuple[int, int]:
        """(a0, a1) mod p: image under reduction by (p, X_var^2, other vars)."""
        zero = tuple(0 for _ in range(self.nvars))
        e = tuple(int(i == var) for i in range(self.nvars))
        return self.coeff(zero).residue % self.p, self.coeff(e).residue % self.p

    def specialize_to_axis(self, var: int) -> "TruncatedSeries":
        """One-variable series: every other variable set to 0."""
        out = {}
        for idx, c in self.coeffs.items():
            if all(v == 0 for i, v in enumerate(idx) if i != var):
                out[(idx[var],)] = c
        return TruncatedSeries(self.p, 1, self.prec, self.degree_cap, out)

    def serialize(self) -> dict:
        return {
            "p": self.p,
            "nvars": self.nvars,
            "prec": self.prec,
            "degree_cap": self.degree_cap,
            "coeffs": sorted(
                [[list(i), str(c.residue), c.prec] for i, c in self.coeffs.items()]
            ),
        }


def series_from_payload(payload: dict) -> TruncatedSeries:
    coeffs = {}
    for entry in payload["coeffs"]:
        idx, digits = entry[0], entry[1]
        prec = entry[2] if len(entry) > 2 else payload["prec"]
        coeffs[tuple(idx)] = PadicInt(payload["p"], int(digits), prec)
    return TruncatedSeries(payload["p"], payload["nvars"], payload["prec"],
                           payload["degree_cap"], coeffs)


# -- Newton polygon / Weierstrass data ----------------------------------------


@dataclass(frozen=True)
class WeierstrassData:
    vertices: tuple[tuple[int, Fraction], ...]
    degree: int | None  # None when undetermined at this precision
    slopes: tuple[tuple[Fraction, int], ...]  # (root valuation, multiplicity)

    @property
    def undetermined(self) -> bool:
        return self.degree is None


def weierstrass_data(g: TruncatedSeries) -> WeierstrassData:
    """Newton polygon and Weierstrass degree of a one-variable series.

    The degree is the index of the first unit coefficient; it counts the
    roots (with multiplicity, over the algebraic closure) in the open unit
    disk.  When no coefficient is a unit at this precision the degree is
    undetermined.
    """
    if g.nvars != 1:
        raise SeriesError("Newton polygon needs a one-variable series")
    if g.is_zero_at_prec():
        raise SeriesError("zero series")
    vals = {}
    for idx, c in g.coeffs.items():
        v = c.valuation()
        if v is not None:
            vals[idx[0]] = v
    degree = None
    for i in sorted(vals):
        if vals[i] == 0:
            degree = i
            break
    points = sorted(vals.items())
    hull = _lower_hull(points)
    slopes: list[tuple[Fraction, int]] = []
    if degree is not None:
        for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
            if x2 > degree:
                break
            slope = Fraction(y1 - y2, x2 - x1)  # root valuation on this segment
            if slope > 0:
                slopes.append((slope, x2 - x1))
    vertices = tuple((x, Fraction(y)) for x, y in hull)
    return WeierstrassData(vertices, degree, tuple(slopes))


def _lower_hull(points):
    hull = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


# -- constancy test -----------------------------------------------------------


@dataclass(frozen=True)
class Constant:
    zeta: PadicInt


@dataclass(frozen=True)
class NonconstantWitness:
    zeta: PadicInt
    var: int
    degree: int


@dataclass(frozen=True)
class Undetermined:
    zeta: PadicInt
    escalated: bool


def constancy_test(g: TruncatedSeries, budget=None, regenerate=None):
    """Is the unit series a constant root of unity?

    Returns Constant(zeta) when g - zeta vanishes at precision for some zeta
    in the budget; otherwise a NonconstantWitness carrying the Teichmuller
    part of the constant term and a positive Weierstrass degree in some
    variable direction.  When every coefficient of g - zeta is a non-unit the
    verdict escalates once (doubled caps via `regenerate`) before reporting
    Undetermined.
    """
    if not g.is_unit():
        raise SeriesError("constancy test needs a unit series")
    budget = budget if budget is not None else teichmuller_budget(g.p, g.prec)
    if not budget:
        raise SeriesError("empty root-of-unity budget")
    for zeta in budget:
        diff = g - TruncatedSeries.constant(zeta, g.p, g.nvars, g.prec, g.degree_cap)
        if diff.is_zero_at_prec():
            return Constant(zeta)
    zeta0 = teichmuller_part(g.constant_term)
    witness = _direction_witness(g, zeta0)
    if witness is not None:
        return NonconstantWitness(zeta0, witness[0], witness[1])
    if regenerate is not None:
        g2 = regenerate(min(2 * g.prec, 64), 2 * g.degree_cap)
        verdict = constancy_test(g2, None, None)
        if isinstance(verdict, Undetermined):
            return Undetermined(verdict.zeta, escalated=True)
        return verdict
    return Undetermined(zeta0, escalated=False)


def _direction_witness(g: TruncatedSeries, zeta: PadicInt):
    """(var, degree >= 1) with a unit coefficient of g - zeta on some axis."""
    diff = g - TruncatedSeries.constant(zeta, g.p, g.nvars, g.prec, g.degree_cap)
    for var in range(g.nvars):
        axis = diff.specialize_to_axis(var)
        if axis.is_zero_at_prec():
            continue
        wd = weierstrass_data(axis)
        if wd.degree is not None and wd.degree >= 1:
            return var, wd.degree
    return None


# -- units model and weight points ---------------------------------------------


class WeightsError(ValueError):
    pass


@dataclass(frozen=True)
class UnitsModel:
    """Local unit groups above p: paired places, f one-unit generators each."""

    p: int
    pairs: tuple[tuple[str, str, int], ...]
    torsion_order: int = 0  # defaults to p - 1

    def __post_init__(self):
        for w, wbar, f in self.pairs:
            if w == wbar:
                raise WeightsError("a place cannot be paired with itself")
            if f < 1:
                raise WeightsError("local degree must be >= 1")
        names = [n for w, wbar, _ in self.pairs for n in (w, wbar)]
        if len(set(names)) != len(names):
            raise WeightsError("place labels must be distinct")
        if self.torsion_order == 0:
            object.__setattr__(self, "torsion_order", self.p - 1)

    @property
    def places(self) -> tuple[str, ...]:
        return tuple(n for w, wbar, _ in self.pairs for n in (w, wbar))

    def degree_of(self, place: str) -> int:
        for w, wbar, f in self.pairs:
            if place in (w, wbar):
                return f
        raise WeightsError(f"unknown place {place!r}")

    def conjugate(self, place: str) -> str:
        for w, wbar, _ in self.pairs:
            if place == w:
                return wbar
            if place == wbar:
                return w
        raise WeightsError(f"unknown place {place!r}")

    def slots(self) -> list[tuple[str, int]]:
        return [(pl, j) for pl in self.places for j in range(self.degree_of(pl))]


@dataclass(frozen=True)
class NormOneElement:
    """Exponent vector on the generators with zero norm on every pair."""

    model: UnitsModel
    exponents: tuple[tuple[str, int, int], ...]  # (place, generator, exponent)

    def __post_init__(self):
        slots = set(self.model.slots())
        for pl, j, _ in self.exponents:
            if (pl, j) not in slots:
                raise WeightsError(f"no generator {(pl, j)} in the model")
        for w, wbar, f in self.model.pairs:
            for j in range(f):
                total = sum(e for pl, jj, e in self.exponents
                            if jj == j and pl in (w, wbar))
                if total != 0:
                    raise WeightsError("element is not norm-one")


@dataclass(eq=False)
class WeightPoint:
    """Character recorded by its values on the one-unit generators."""

    model: UnitsModel
    values: dict[tuple[str, int], PadicInt]
    torsion: dict[tuple[str, int], int] = field(default_factory=dict)
    algebraic_exponents: dict[tuple[str, int], int] | None = None

    def __post_init__(self):
        for slot in self.model.slots():
            if slot not in self.values:
                raise WeightsError(f"missing value at {slot}")
            if not self.values[slot].is_unit():
                raise WeightsError("weight values must be units")

    def value(self, place: str, j: int) -> PadicInt:
        return self.values[(place, j)]


def algebraic_weight(model: UnitsModel, exponents: dict, prec: int,
                     torsion: dict | None = None) -> WeightPoint:
    """Weight with value (1+p)^{n_slot} at each generator slot, times a
    finite-order part given per slot as a unit residue mod p."""
    base = PadicInt(model.p, 1 + model.p, prec)
    torsion = dict(torsion or {})
    values = {}
    for slot in model.slots():
        n = int(exponents.get(slot, 0))
        value = _unit_power(base, n)
        if slot in torsion:
            value = value * teichmuller(int(torsion[slot]), model.p, prec)
        values[slot] = value
    return WeightPoint(model, values, torsion, dict(exponents))


def _unit_power(u: PadicInt, n: int) -> PadicInt:
    if n >= 0:
        return PadicInt(u.p, pow(u.residue, n, u.modulus), u.prec)
    inv = u.unit_inverse()
    return PadicInt(u.p, pow(inv.residue, -n, u.modulus), u.prec)


def is_locally_parallel(chi: WeightPoint) -> bool:
    if chi.algebraic_exponents is None:
        raise WeightsError("parallel predicate needs algebraic exponents")
    for w, wbar, f in chi.model.pairs:
        for j in range(f):
            if chi.algebraic_exponents.get((w, j), 0) != chi.algebraic_exponents.get((wbar, j), 0):
                return False
    return True


def parallel_functional(chi: WeightPoint, u: NormOneElement) -> PadicInt:
    """log of chi evaluated on a norm-one element; zero on locally parallel weights."""
    if u.model is not chi.model:
        raise WeightsError("weight and element use different unit models")
    p = chi.model.p
    total = None
    for pl, j, e in u.exponents:
        term = log_unit(_unit_power(chi.value(pl, j), e))
        total = term if total is None else total + term
    if total is None:
        raise WeightsError("element has empty support")
    return total


def closure_rank(model: UnitsModel, which: str) -> int:
    """Rank of the exponent lattice cut out by the weight-subgroup choice."""
    slots = model.slots()
    if which == "full":
        mat = np.eye(len(slots), dtype=np.int64)
    elif which == "norm-image":
        rows = []
        for w, wbar, f in model.pairs:
            for j in range(f):
                row = [1 if (pl in (w, wbar) and jj == j) else 0 for pl, jj in slots]
                rows.append(row)
        mat = np.array(rows, dtype=np.int64)
    else:
        raise WeightsError(f"unknown subgroup spec {which!r}")
    return _integer_rank(mat)


def _integer_rank(mat: np.ndarray) -> int:
    m = [[Fraction(int(x)) for x in row] for row in mat]
    rank = 0
    rows, cols = len(m), len(m[0]) if len(m) else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, rows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        m[rank] = [x / pv for x in m[rank]]
        for r in range(rows):
            if r != rank and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


# -- infinitesimal weights -------------------------------------------------------


def inf_weight(values, d: int, f: int, p: int) -> np.ndarray:
    """Assemble f generator values in t0-coordinates into k^{fd}, generator-major."""
    values = [np.asarray(v, dtype=np.int64) % p for v in values]
    if len(values) != f or any(v.shape != (d,) for v in values):
        raise WeightsError("need f vectors with d coordinates each")
    return np.concatenate(values)


def is_parallel_pair(x_w, x_wbar, minus_w0, p: int) -> bool:
    """x_w = -w0 . x_wbar coordinate-wise, generator-major layout."""
    x_w = np.asarray(x_w, dtype=np.int64) % p
    x_wbar = np.asarray(x_wbar, dtype=np.int64) % p
    d = len(minus_w0)
    if x_w.shape != x_wbar.shape or x_w.size % d:
        raise WeightsError("weight vectors have mismatched arity")
    f = x_w.size // d
    for j in range(f):
        for i in range(d):
            if x_w[j * d + i] != x_wbar[j * d + minus_w0[i]]:
                return False
    return True


def parallel_subspace(f: int, d: int, minus_w0, p: int):
    """Graph of -w0 inside k^{fd} + k^{fd}: basis plus (dim, codim) report."""
    if sorted(minus_w0) != list(range(d)):
        raise WeightsError("minus_w0 must be a permutation of the simple indices")
    n = f * d
    basis = np.zeros((2 * n, n), dtype=np.int64)
    for j in range(f):
        for i in range(d):
            col = j * d + i
            basis[col, col] = 1
            basis[n + j * d + minus_w0[i], col] = 1
    return basis, n, n  # basis, dimension, codimension


# -- the dichotomy -----------------------------------------------------------------


@dataclass(eq=False)
class DichotomyEntry:
    place: str  # the w of a (w, wbar) pair
    root_index: int
    gen_index: int
    f_w: TruncatedSeries
    f_wbar: TruncatedSeries  # already composed with -w0 at construction


@dataclass(eq=False)
class DichotomyFamily:
    p: int
    d: int  # semisimple rank
    f: int  # local degree
    minus_w0: tuple[int, ...]
    entries: list[DichotomyEntry]

    def __post_init__(self):
        if sorted(self.minus_w0) != list(range(self.d)):
            raise WeightsError("minus_w0 must be a permutation of the simple indices")
        needed = {(e.place, e.root_index, e.gen_index) for e in self.entries}
        want = {(pl, i, j) for pl in {e.place for e in self.entries}
                for i in range(self.d) for j in range(self.f)}
        if needed != want:
            raise WeightsError("family must carry one entry per (place, root, generator)")
        for e in self.entries:
            if not (e.f_w.is_unit() and e.f_wbar.is_unit()):
                raise WeightsError("family series must be units")


@dataclass(eq=False)
class ParallelWeights:
    pairs: list  # (place, var, x_w, x_wbar)


@dataclass(eq=False)
class SparsityCertificate:
    place: str
    root_index: int
    gen_index: int
    per_zeta: dict  # zeta residue -> ("empty", None, 0) | ("degree", var, deg)


def passage_dichotomy(family: DichotomyFamily, budget=None):
    """Either every ratio f_w/f_wbar is a constant root of unity, in which
    case the paired infinitesimal weights are returned (and checked to be
    parallel), or some index yields a finite-solution certificate for every
    root of unity in the budget.
    """
    entry0 = family.entries[0]
    p = family.p
    budget = budget if budget is not None else teichmuller_budget(p, entry0.f_w.prec)
    ratios = {}
    for e in family.entries:
        g = e.f_w.divide(e.f_wbar)
        verdict = constancy_test(g, budget)
        if isinstance(verdict, Constant):
            ratios[(e.place, e.root_index, e.gen_index)] = verdict.zeta
            continue
        cert = _sparsity_certificate(g, budget, e)
        if cert is None:
            raise WeightsError(
                "ratio has no determinate Weierstrass data at this precision; "
                "escalate the family caps"
            )
        return cert
    # Constant ratios throughout: extract dual-number reductions per variable.
    pairs = []
    places = sorted({e.place for e in family.entries})
    by_key = {(e.place, e.root_index, e.gen_index): e for e in family.entries}
    nvars = entry0.f_w.nvars
    for pl in places:
        for var in range(nvars):
            x_w = np.zeros(family.f * family.d, dtype=np.int64)
            x_wbar = np.zeros(family.f * family.d, dtype=np.int64)
            for j in range(family.f):
                for i in range(family.d):
                    e = by_key[(pl, i, j)]
                    a0, a1 = e.f_w.dual_reduction(var)
                    x_w[j * family.d + i] = a1 * pow(a0, -1, p) % p
                    b0, b1 = e.f_wbar.dual_reduction(var)
                    # The wbar series carries the -w0 composition, so undo the
                    # index permutation to report the plain wbar weight.
                    x_wbar[j * family.d + family.minus_w0[i]] = b1 * pow(b0, -1, p) % p
            if not is_parallel_pair(x_w, x_wbar, family.minus_w0, p):
                raise WeightsError("constant-ratio family produced non-parallel weights")
            pairs.append((pl, var, x_w, x_wbar))
    return ParallelWeights(pairs)


def _sparsity_certificate(g: TruncatedSeries, budget, entry: DichotomyEntry):
    per_zeta = {}
    for zeta in budget:
        diff = g - TruncatedSeries.constant(zeta, g.p, g.nvars, g.prec, g.degree_cap)
        if diff.constant_term.is_unit():
            # g = zeta has no solutions at all in the open unit polydisk.
            per_zeta[zeta.residue % zeta.p] = ("empty", None, 0)
            continue
        witness = _direction_witness(g, zeta)
        if witness is None:
            return None
        per_zeta[zeta.residue % zeta.p] = ("degree", witness[0], witness[1])
    return SparsityCertificate(entry.place, entry.root_index, entry.gen_index, per_zeta)
