"""Truncated power series over Z_p, Newton-polygon root counting, the
root-of-unity constancy test, parallel-weight functionals, and the
infinitesimal-weight dichotomy.

A series in nvars variables to total degree cap D is dense: it has one slot
per monomial of degree <= D, in the fixed order of `_monomials` (by total
degree, then a fixed order within each degree).  Because of that order the
slots of a smaller cap are a prefix of those of a larger one.  Two arrays
run over the slots: `residues`, Python ints (p^prec overflows int64 once
squared), and `precs`, an int64 precision per coefficient.  Precision 0
means the term is absent, which is not the same as a present zero: the
absent term is a zero known to the full series precision, and `terms`
returns only present terms.  An absent term has residue 0.

Products are formed by index lookup.  The monomial e has the mixed-radix
code sum_k e_k (cap+1)^k; below the cap the code of a product is the sum of
the codes, and one cached layout per (nvars, cap) maps codes back to slots.
Every output coefficient sums its products once, takes the minimum
precision of the pairs that feed it, and is reduced once mod p^prec; that
equals chained PadicInt arithmetic, because reducing mod p^a and then mod
p^b with b <= a is reducing mod p^b.

The roots of unity in Z_p, for odd p, are the Teichmuller representatives,
and any two of them differ by a unit.  So of all of them only zeta0, the one
congruent to f0/h0 for unit series f and h, can make f/h - zeta vanish or
have a root in the open unit polydisk: f/h - zeta has a unit constant term
for every other zeta.  The constancy test never divides: f/h - zeta0 =
(f - zeta0 h)/h with h a unit, and restricting to an axis is a ring map,
under which h stays a unit, so on each axis the two have their first unit
coefficient at the same index.  It tests f - zeta0 h, formed in one pass
at the smaller cap and precision over the slots where f or h has a term,
each term at the precision of the two terms it comes from.  Sums and
differences take that pass too, so they cost in proportion to the present
terms, not to the C(nvars + cap, nvars) slots; on a fully dense pair the
per-term Python loop is about three times slower than whole-array numpy.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import InitVar, dataclass, field
from fractions import Fraction

import numpy as np

from . import ffield as ff
from .errors import InputError
from .padics import MAX_PRECISION, PadicInt, log_unit, teichmuller


class SeriesError(InputError):
    pass


# A series allocates one slot per monomial, C(nvars + cap, nvars) of them.
MAX_MONOMIALS = 10**5


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


@dataclass(frozen=True, eq=False)
class _Layout:
    """The slots of every series in nvars variables to a degree cap."""

    monomials: tuple[tuple[int, ...], ...]
    index: dict[tuple[int, ...], int]
    degrees: np.ndarray  # total degree per slot
    starts: np.ndarray  # degree d fills slots starts[d] .. starts[d + 1] - 1
    codes: np.ndarray  # mixed-radix code per slot, base cap + 1
    sorted_codes: np.ndarray
    order: np.ndarray  # slot of each entry of sorted_codes
    linear: tuple[int, ...]  # slot of X_var, by var; empty at cap 0, where no X_var has one

    def slots(self, codes: np.ndarray) -> np.ndarray:
        return self.order[np.searchsorted(self.sorted_codes, codes)]


@functools.lru_cache(maxsize=32)
def _layout(nvars: int, cap: int) -> _Layout:
    if nvars < 1 or cap < 0:
        raise SeriesError("a series needs at least one variable and a degree cap >= 0")
    if nvars > 62 or (cap + 1) ** nvars > 2**62:
        raise SeriesError(f"{nvars} variables to degree {cap}: monomial codes overflow int64")
    if math.comb(nvars + cap, nvars) > MAX_MONOMIALS:
        raise SeriesError(f"{nvars} variables to degree {cap} exceed the series budget "
                          f"of {MAX_MONOMIALS} monomials")
    monomials = tuple(_monomials(nvars, cap))
    exps = np.array(monomials, dtype=np.int64)
    codes = exps @ (cap + 1) ** np.arange(nvars, dtype=np.int64)
    order = np.argsort(codes)
    degrees = exps.sum(axis=1)
    index = {m: i for i, m in enumerate(monomials)}
    linear = tuple(index[tuple(int(k == var) for k in range(nvars))]
                   for var in range(nvars)) if cap else ()
    return _Layout(monomials, index, degrees, np.searchsorted(degrees, np.arange(cap + 2)),
                   codes, codes[order], order, linear)


@functools.lru_cache(maxsize=64)
def _powers(p: int, prec: int) -> np.ndarray:
    """p^k for k = 0..prec; indexed by `precs` it gives each term's modulus."""
    return np.array([p**k for k in range(prec + 1)], dtype=object)


def _spans(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges range(s, s + c), concatenated."""
    ends = np.cumsum(counts)
    return np.arange(counts.sum()) + np.repeat(starts - ends + counts, counts)


@dataclass(eq=False)
class TruncatedSeries:
    """A series over Z_p to total degree `degree_cap`, dense in monomial order.

    `residues[i]` and `precs[i]` hold the coefficient of the i-th monomial of
    `_monomials(nvars, degree_cap)`; precision 0 marks an absent term.  The
    constructor takes a dict from exponent tuples to PadicInts or ints, drops
    terms above the cap and clamps each precision to `prec`.  The arrays are
    never written after construction, so results may share them.
    """

    p: int
    nvars: int
    prec: int
    degree_cap: int
    coeffs: InitVar[dict | None] = None
    residues: np.ndarray = field(init=False, repr=False)
    precs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, coeffs):
        self.p = ff.odd_prime(self.p, SeriesError)
        if not 1 <= self.prec <= MAX_PRECISION:
            raise SeriesError(f"series precision must be between 1 and {MAX_PRECISION}")
        layout = _layout(self.nvars, self.degree_cap)
        self.residues = np.zeros(len(layout.monomials), dtype=object)
        self.precs = np.zeros(len(layout.monomials), dtype=np.int64)
        for idx, c in (coeffs or {}).items():
            idx = tuple(int(i) for i in idx)
            if len(idx) != self.nvars or any(i < 0 for i in idx):
                raise SeriesError(f"bad exponent {idx}")
            slot = layout.index.get(idx)
            if slot is None:
                continue  # above the degree cap
            if isinstance(c, PadicInt):
                if c.p != self.p:
                    raise SeriesError(f"a {c.p}-adic coefficient in a series over Z_{self.p}")
                n, r = min(c.prec, self.prec), c.residue
            else:
                n, r = self.prec, int(c)
            self.residues[slot] = r % self.p**n
            self.precs[slot] = n

    @classmethod
    def _from_arrays(cls, p, nvars, prec, degree_cap, residues, precs) -> "TruncatedSeries":
        out = cls.__new__(cls)
        out.p, out.nvars, out.prec, out.degree_cap = p, nvars, prec, degree_cap
        out.residues, out.precs = residues, precs
        return out

    # -- access ----------------------------------------------------------------

    def terms(self) -> dict[tuple[int, ...], PadicInt]:
        """The present terms, by exponent tuple."""
        monomials = _layout(self.nvars, self.degree_cap).monomials
        return {monomials[i]: PadicInt(self.p, self.residues[i], int(self.precs[i]))
                for i in np.flatnonzero(self.precs)}

    def is_unit(self) -> bool:
        # Slot 0 is the constant monomial; an absent term has residue 0.
        return self.residues[0] % self.p != 0

    def is_zero_at_prec(self) -> bool:
        return np.count_nonzero(self.residues[self.precs > 0]) == 0

    # -- arithmetic --------------------------------------------------------------

    def _check_compatible(self, other: "TruncatedSeries"):
        if (self.p, self.nvars) != (other.p, other.nvars):
            raise SeriesError("incompatible series")

    def _termwise(self, other: "TruncatedSeries", op) -> "TruncatedSeries":
        """op(a, b) on the residues of every slot where either series has a
        term, at the smaller cap and precision; the other slots stay absent.
        a and b are Python ints, which a numpy ufunc would cast to int64."""
        self._check_compatible(other)
        prec = min(self.prec, other.prec)
        cap = min(self.degree_cap, other.degree_cap)
        n = len(_layout(self.nvars, cap).monomials)
        live = (self.precs[:n] | other.precs[:n]).nonzero()[0]
        # An absent term is a zero known to the full precision of its series.
        live_precs = [min(a or prec, b or prec, prec)
                      for a, b in zip(self.precs[live].tolist(), other.precs[live].tolist())]
        moduli = _powers(self.p, prec)
        residues = np.zeros(n, dtype=object)
        residues[live] = [op(a, b) % moduli[k] for a, b, k in zip(
            self.residues[live].tolist(), other.residues[live].tolist(), live_precs)]
        precs = np.zeros(n, dtype=np.int64)
        precs[live] = live_precs
        return self._from_arrays(self.p, self.nvars, prec, cap, residues, precs)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self._termwise(other, operator.add)

    def __neg__(self) -> "TruncatedSeries":
        residues = -self.residues % _powers(self.p, self.prec)[self.precs]
        return self._from_arrays(self.p, self.nvars, self.prec, self.degree_cap,
                                 residues, self.precs)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self._termwise(other, operator.sub)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_compatible(other)
        prec = min(self.prec, other.prec)
        cap = min(self.degree_cap, other.degree_cap)
        layout = _layout(self.nvars, cap)
        n = len(layout.monomials)
        a = np.flatnonzero(self.precs[:n])
        b = np.flatnonzero(other.precs[:n])
        # b is in degree order, so the partners of a term of a within the cap
        # are a prefix of b.
        counts = np.searchsorted(layout.degrees[b], cap - layout.degrees[a], side="right")
        i = np.repeat(a, counts)
        j = b[_spans(np.zeros_like(counts), counts)]
        k = layout.slots(layout.codes[i] + layout.codes[j])
        residues = np.zeros(n, dtype=object)
        np.add.at(residues, k, self.residues[i] * other.residues[j])
        precs = np.full(n, prec)
        np.minimum.at(precs, k, np.minimum(self.precs[i], other.precs[j]))
        precs[np.bincount(k, minlength=n) == 0] = 0
        residues %= _powers(self.p, prec)[precs]
        return self._from_arrays(self.p, self.nvars, prec, cap, residues, precs)

    def scale(self, c: PadicInt) -> "TruncatedSeries":
        if c.p != self.p:
            raise SeriesError(f"a {c.p}-adic scalar for a series over Z_{self.p}")
        prec = min(self.prec, c.prec)
        precs = np.minimum(self.precs, prec)
        residues = self.residues * c.residue % _powers(self.p, prec)[precs]
        return self._from_arrays(self.p, self.nvars, prec, self.degree_cap, residues, precs)

    def inverse(self) -> "TruncatedSeries":
        """Unit-series inverse to the degree cap, one total degree at a time:
        the degree-d terms are -c0^-1 times the sum of f_j g_k over deg j >= 1,
        deg j + deg k = d."""
        if not self.is_unit():
            raise SeriesError("inverse of a non-unit series")
        layout = _layout(self.nvars, self.degree_cap)
        starts, degrees = layout.starts, layout.degrees
        c0 = int(self.precs[0])
        moduli = _powers(self.p, c0)
        c0_inv = pow(self.residues[0], -1, moduli[c0])
        residues = np.zeros(len(layout.monomials), dtype=object)
        residues[0] = c0_inv
        precs = np.full(len(layout.monomials), c0)
        terms = np.flatnonzero(self.precs[1:]) + 1
        for d in range(1, self.degree_cap + 1):
            j = terms[degrees[terms] <= d]
            rest = d - degrees[j]
            counts = starts[rest + 1] - starts[rest]
            k = _spans(starts[rest], counts)
            j = np.repeat(j, counts)
            lo, hi = starts[d], starts[d + 1]
            t = layout.slots(layout.codes[j] + layout.codes[k]) - lo
            acc = np.zeros(hi - lo, dtype=object)
            np.add.at(acc, t, self.residues[j] * residues[k])
            block = precs[lo:hi]
            np.minimum.at(block, t, np.minimum(self.precs[j], precs[k]))
            residues[lo:hi] = -c0_inv * acc % moduli[block]
        return self._from_arrays(self.p, self.nvars, self.prec, self.degree_cap,
                                 residues, precs)

    def divide(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self * other.inverse()

    # -- reductions -----------------------------------------------------------

    def _check_var(self, var: int):
        if not 0 <= var < self.nvars:
            raise SeriesError(f"no variable {var} in a series in {self.nvars} variables")

    def dual_reduction(self, var: int) -> tuple[int, int]:
        """(a0, a1) mod p: image under reduction by (p, X_var^2, other vars).
        At cap 0 there is no linear slot, and a1 is 0."""
        self._check_var(var)
        linear = _layout(self.nvars, self.degree_cap).linear
        return self.residues[0] % self.p, self.residues[linear[var]] % self.p if linear else 0

    def specialize_to_axis(self, var: int) -> "TruncatedSeries":
        """One-variable series: every other variable set to 0."""
        self._check_var(var)
        cap = self.degree_cap
        layout = _layout(self.nvars, cap)
        axis = layout.slots(np.arange(cap + 1) * (cap + 1) ** var)
        return self._from_arrays(self.p, 1, self.prec, cap, self.residues[axis], self.precs[axis])


# -- Newton polygon / Weierstrass data ----------------------------------------


@dataclass(frozen=True)
class WeierstrassData:
    vertices: tuple[tuple[int, Fraction], ...]
    degree: int | None  # None when undetermined at this precision
    slopes: tuple[tuple[Fraction, int], ...]  # (root valuation, multiplicity)


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
    degree = _first_unit_index(g)
    points = sorted((i, v) for (i,), c in g.terms().items() if (v := c.valuation()) is not None)
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


def _first_unit_index(g: TruncatedSeries) -> int | None:
    """The index of the first unit coefficient of a one-variable series, or
    None when none is a unit at this precision; an absent term has residue 0."""
    return next((i for i, r in enumerate(g.residues) if r % g.p), None)


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
    """No axis of f - zeta h has a unit coefficient at this precision; a
    dichotomy verdict names the entry whose series are f and h, the
    constancy test names none."""

    zeta: PadicInt
    entry: DichotomyEntry | None


def constancy_test(f: TruncatedSeries, h: TruncatedSeries):
    """Is f/h, for unit series f and h, a constant root of unity?

    Only zeta0, the Teichmuller lift of f0/h0 at the smaller precision, can
    be that constant.  Returns Constant(zeta0) when f - zeta0 h vanishes at
    precision; otherwise a NonconstantWitness with the first variable whose
    axis of f - zeta0 h has a unit coefficient, and the Weierstrass degree
    (>= 1) there, or Undetermined when no axis has one.
    """
    f._check_compatible(h)
    if not (f.is_unit() and h.is_unit()):
        raise SeriesError("constancy test needs unit series")
    zeta0 = teichmuller(f.residues[0] * pow(h.residues[0], -1, f.p), f.p, min(f.prec, h.prec))
    # One pass: where h has a term its precision is at least the slot's, so
    # reducing zeta0 h first would change nothing, and an absent term is 0.
    diff = f._termwise(h, lambda a, b: a - b * zeta0.residue)
    if diff.is_zero_at_prec():
        return Constant(zeta0)
    for var in range(f.nvars):
        # The constant term of diff is not a unit, so a unit coefficient sits
        # at degree >= 1.
        if (degree := _first_unit_index(diff.specialize_to_axis(var))) is not None:
            return NonconstantWitness(zeta0, var, degree)
    return Undetermined(zeta0, None)


# -- units model and weight points ---------------------------------------------


class WeightsError(InputError):
    pass


@dataclass(frozen=True)
class UnitsModel:
    """Local unit groups above p: paired places, f one-unit generators each."""

    p: int
    pairs: tuple[tuple[str, str, int], ...]

    def __post_init__(self):
        if any(f < 1 for _, _, f in self.pairs):
            raise WeightsError("local degree must be >= 1")
        if len(set(self.places)) != len(self.places):  # a place paired with itself too
            raise WeightsError("place labels must be distinct")

    @property
    def places(self) -> tuple[str, ...]:
        return tuple(n for w, wbar, _ in self.pairs for n in (w, wbar))

    def degree_of(self, place: str) -> int:
        for w, wbar, f in self.pairs:
            if place in (w, wbar):
                return f
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
    torsion = torsion or {}
    values = {}
    for slot in model.slots():
        n = int(exponents.get(slot, 0))
        value = _unit_power(base, n)
        if slot in torsion:
            value = value * teichmuller(int(torsion[slot]), model.p, prec)
        values[slot] = value
    return WeightPoint(model, values)


def _unit_power(u: PadicInt, n: int) -> PadicInt:
    return PadicInt(u.p, pow(u.residue, n, u.modulus), u.prec)  # n < 0 inverts the unit


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
        if not self.entries:
            raise WeightsError("family must carry at least one entry")
        # The counts come first, so a huge d or f is refused before anything its size is built.
        if len(self.minus_w0) != self.d or sorted(self.minus_w0) != list(range(self.d)):
            raise WeightsError("minus_w0 must be a permutation of the simple indices")
        places = {e.place for e in self.entries}
        needed = {(e.place, e.root_index, e.gen_index) for e in self.entries}
        if len(self.entries) != len(places) * self.d * self.f or needed != {
                (pl, i, j) for pl in places for i in range(self.d) for j in range(self.f)}:
            raise WeightsError("family must carry one entry per (place, root, generator)")
        series = [s for e in self.entries for s in (e.f_w, e.f_wbar)]
        if any(s.p != self.p for s in series):
            raise WeightsError(f"family series must be over Z_{self.p}")
        if len({s.nvars for s in series}) > 1:
            raise WeightsError("family series must share one number of variables")
        if not all(s.is_unit() for s in series):
            raise WeightsError("family series must be units")
        if any(s.degree_cap < 1 for s in series):
            # The weights are read off the linear terms.
            raise WeightsError("family series need a degree cap >= 1")


@dataclass(eq=False)
class ParallelWeights:
    pairs: list  # (place, var, x_w, x_wbar)


@dataclass(eq=False)
class SparsityCertificate:
    """The first entry whose ratio f_w/f_wbar is not constant, and the
    witness that it minus zeta has Weierstrass degree `degree` along `var`."""

    place: str
    root_index: int
    gen_index: int
    zeta: PadicInt
    var: int
    degree: int

    @property
    def per_zeta(self) -> dict:
        """The witness at zeta and "empty" at the other p - 2 roots of unity."""
        p = self.zeta.p
        return {z: ("degree", self.var, self.degree) if z == self.zeta.residue % p
                else ("empty", None, 0) for z in range(1, p)}


def passage_dichotomy(family: DichotomyFamily):
    """Either every ratio f_w/f_wbar is a constant root of unity, in which
    case the paired infinitesimal weights are returned, or the first entry
    whose ratio is not yields a finite-solution certificate for every root of
    unity, or is Undetermined at zeta0 when the precision cannot fix its
    Weierstrass data.  The returned pairs are parallel: f_w = zeta0 f_wbar mod
    p on the constant and linear terms gives a1/a0 = b1/b0 for every entry.

    Each entry is decided by constancy_test(f_w, f_wbar), with no quotient
    formed.  The certificate holds its witness at zeta0; it is "empty" at
    every other zeta, where the ratio minus zeta has a unit constant term.
    """
    p = family.p
    for e in family.entries:
        verdict = constancy_test(e.f_w, e.f_wbar)
        if isinstance(verdict, Undetermined):
            return Undetermined(verdict.zeta, e)
        if isinstance(verdict, NonconstantWitness):
            return SparsityCertificate(e.place, e.root_index, e.gen_index,
                                       verdict.zeta, verdict.var, verdict.degree)
    # Constant ratios throughout: a1/a0 mod p per variable from the dual-number
    # reductions, one a0^-1 per series.  The family holds one entry per
    # (place, root, generator), so every column is written once.
    nvars, width = family.entries[0].f_w.nvars, family.f * family.d
    places = sorted({e.place for e in family.entries})
    x_w = {pl: np.zeros((nvars, width), dtype=np.int64) for pl in places}
    x_wbar = {pl: np.zeros((nvars, width), dtype=np.int64) for pl in places}
    for e in family.entries:
        col = e.gen_index * family.d
        # The wbar series carries the -w0 composition, so undo the index
        # permutation to report the plain wbar weight.
        for x, s, c in ((x_w[e.place], e.f_w, col + e.root_index),
                        (x_wbar[e.place], e.f_wbar, col + family.minus_w0[e.root_index])):
            a0_inv = pow(int(s.residues[0]), -1, p)
            for var in range(nvars):
                x[var, c] = s.dual_reduction(var)[1] * a0_inv % p
    return ParallelWeights([(pl, var, x_w[pl][var], x_wbar[pl][var])
                            for pl in places for var in range(nvars)])

