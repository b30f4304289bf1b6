"""Dimension-count evaluator: oddness, the Selmer/dual-Selmer difference
formula under the standard local-condition menus, CM parameter, large-image
prime thresholds, and the principal-homomorphism example conditions.

The global invariant dimensions h0(g0) and h0(g0(1)) are taken to be 0:
nothing here pretends to compute cohomology of infinite groups.  Every real
place is odd.  No family table lives here: the dimensions, the Coxeter
number, the order of the centre and the very good primes all come from
root_datum, which derives them from the Cartan matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ffield as ff
from .errors import InputError
from .root_datum import RootDatum, dimension_profile, very_good_prime


class NumerologyError(InputError):
    pass


# The largest field degree: a signature may list one place above p per degree.
MAX_DEGREE = 10**4


@dataclass(frozen=True)
class FieldSignature:
    """Archimedean and p-adic shape of the base number field."""

    degree: int
    real_places: int
    complex_places: int
    cm: bool
    local_degrees_above_p: tuple[int, ...]

    def __post_init__(self):
        if self.real_places + 2 * self.complex_places != self.degree:
            raise NumerologyError("r1 + 2 r2 must equal the degree")
        if self.cm and (self.real_places != 0 or self.degree % 2 != 0):
            raise NumerologyError("CM fields are totally imaginary of even degree")
        if self.cm and self.totally_real:
            raise NumerologyError("a field cannot be CM and totally real")
        if sum(self.local_degrees_above_p) != self.degree:
            raise NumerologyError("local degrees above p must sum to the degree")
        if any(f <= 0 for f in self.local_degrees_above_p):
            raise NumerologyError("local degrees above p must be positive")

    @property
    def totally_real(self) -> bool:
        return self.complex_places == 0


def totally_real_signature(degree: int, local_degrees=None) -> FieldSignature:
    if not 1 <= degree <= MAX_DEGREE:
        raise NumerologyError(f"degree must be between 1 and {MAX_DEGREE}")
    local = tuple(local_degrees) if local_degrees else tuple(1 for _ in range(degree))
    return FieldSignature(degree, degree, 0, cm=False, local_degrees_above_p=local)


def cm_signature(degree: int, pair_degrees=None) -> FieldSignature:
    """CM field, split above p: a pair of places w, wbar of degree f for
    each f in pair_degrees."""
    if not 2 <= degree <= MAX_DEGREE or degree % 2:
        raise NumerologyError(f"CM degree must be even, between 2 and {MAX_DEGREE}")
    fs = tuple(pair_degrees) if pair_degrees else tuple(1 for _ in range(degree // 2))
    if sum(fs) != degree // 2:
        raise NumerologyError("pair degrees must sum to half the degree")
    local = tuple(f for f in fs for _ in range(2))
    return FieldSignature(degree, 0, degree // 2, cm=True, local_degrees_above_p=local)


# -- places and scenarios -----------------------------------------------------

ORDINARY = "ordinary"
NEARLY_ORDINARY = "nearly-ordinary"


@dataclass(frozen=True)
class FinitePlace:
    dim_l: int
    h0: int


@dataclass(eq=False)
class Scenario:
    """Everything the difference formula needs: one mode at every place above
    p, the finite places away from p, and every real place odd (its fixed
    space has dimension dim n)."""

    rd: RootDatum
    signature: FieldSignature
    mode: str = ORDINARY
    finite_places: tuple[FinitePlace, ...] = ()

    def __post_init__(self):
        if self.mode not in (ORDINARY, NEARLY_ORDINARY):
            raise NumerologyError(f"unknown mode {self.mode!r}")


# -- operations ---------------------------------------------------------------


def oddness_audit(rd: RootDatum, involutions, p: int):
    """(h0, is_odd) per involution matrix acting on g0."""
    _, n, _, _, _, _ = dimension_profile(rd)
    out = []
    for mat in involutions:
        mat = ff.normalize(mat, p)
        if not np.array_equal(ff.mat_mul(mat, mat, p), ff.eye(len(mat))):
            raise NumerologyError("input does not square to the identity")
        h0 = ff.nullspace(ff.fixed_equations([mat], len(mat)), p).shape[1]
        out.append((h0, h0 == n))
    return out


@dataclass(frozen=True)
class WilesReport:
    difference: int
    terms: tuple[tuple[str, int], ...]


def wiles_difference(scenario: Scenario) -> WilesReport:
    """Selmer minus dual-Selmer dimension from the per-place local terms, as
    a WilesReport: the difference and the named terms it sums.  A place above
    p of degree f adds f dim n (ordinary) or f dim b0 (nearly ordinary)."""
    g0, n, b0, _, _, _ = dimension_profile(scenario.rd)
    mode = scenario.mode
    terms: list[tuple[str, int]] = [("h0_global", 0), ("h0_global_twist", 0)]
    for f in scenario.signature.local_degrees_above_p:
        terms.append((f"v|p[{mode},f={f}]", f * (n if mode == ORDINARY else b0)))
    for pl in scenario.finite_places:
        terms.append(("v finite", pl.dim_l - pl.h0))
    for _ in range(scenario.signature.real_places):
        terms.append(("v real", -n))  # L_v = 0 at archimedean places, p odd
    for _ in range(scenario.signature.complex_places):
        terms.append(("v complex", -g0))
    return WilesReport(sum(v for _, v in terms), tuple(terms))


def cm_parameter(sig: FieldSignature, rd: RootDatum) -> int:
    """r = ([F:Q]/2) dim t0 for a CM signature `sig` and root datum `rd`."""
    if not sig.cm:
        raise NumerologyError("CM parameter needs a CM signature")
    t0 = dimension_profile(rd)[3]
    return (sig.degree // 2) * t0


def large_image_prime_bound(rd: RootDatum) -> int:
    """Smallest very good prime p with p - 1 above the image thresholds."""
    z = rd.center_order
    h = rd.coxeter_number
    parity_bound = (h - 1) * z if z % 2 == 0 else (2 * h - 2) * z
    threshold = max(8 * z, parity_bound)
    p = 3
    while True:
        if ff.is_prime(p) and p - 1 > threshold and very_good_prime(rd, p):
            return p
        p += 2


def example_local_dims(r: int, p: int) -> tuple[int, int, int]:
    """(h0, h1, h2) of F_p(r) over the local group at p itself.

    h0 = 1 iff r = 0 mod p-1, h2 = 1 iff r = 1 mod p-1, and the local
    Euler characteristic in degree one over Q_p adds 1 to h0 + h2.
    """
    ff.odd_prime(p, NumerologyError)
    h0 = 1 if r % (p - 1) == 0 else 0
    h2 = 1 if r % (p - 1) == 1 else 0
    return h0, h0 + h2 + 1, h2


@dataclass(frozen=True)
class ExampleReport:
    very_good: bool
    sqrt_in_base_field: bool
    notes: tuple[str, ...]


def example_conditions_check(rd: RootDatum, r: int, p: int) -> ExampleReport:
    """Conditions for the principal-homomorphism local construction.

    Every simple root pulls back to the r-th cyclotomic power, since
    <alpha, 2 rho^vee> = 2, with a square root a of c^r on the diagonal.  As
    p - 1 is even, c^r is a square in F_p exactly when r is even; otherwise
    a lies in the quadratic extension, and the report says so.
    """
    if r % (p - 1) in (0, 1):
        raise NumerologyError("r = 0, 1 mod p-1 invalidates the construction")
    sqrt_in_base = r % 2 == 0
    notes = () if sqrt_in_base else (
        "square root of the cyclotomic power taken in the quadratic extension",)
    return ExampleReport(very_good=very_good_prime(rd, p), sqrt_in_base_field=sqrt_in_base,
                         notes=notes)
