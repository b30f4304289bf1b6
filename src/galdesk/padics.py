"""Precision-capped p-adic integers.

A PadicInt is a residue known modulo p^prec.  Arithmetic carries the minimal
precision of the operands; dividing by p^v costs v digits of precision.
Everything is exact integer arithmetic, no floating point anywhere; a
Teichmuller lift is about log2(prec) Newton steps, each a power to p - 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError


class PrecisionError(InputError):
    pass


# The largest precision of a PadicInt; the logarithm's cost grows faster than linearly in it.
MAX_PRECISION = 256


@dataclass(frozen=True)
class PadicInt:
    p: int
    residue: int
    prec: int

    def __post_init__(self):
        if not 1 <= self.prec <= MAX_PRECISION:
            raise PrecisionError(f"precision must be between 1 and {MAX_PRECISION}")
        object.__setattr__(self, "residue", self.residue % self.p**self.prec)

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, p: int, prec: int) -> "PadicInt":
        return cls(p, 0, prec)

    @classmethod
    def one(cls, p: int, prec: int) -> "PadicInt":
        return cls(p, 1, prec)

    # -- structure ---------------------------------------------------------

    @property
    def modulus(self) -> int:
        return self.p**self.prec

    def is_zero_at_prec(self) -> bool:
        return self.residue == 0

    def valuation(self):
        """p-adic valuation, or None when indistinguishable from 0 at this precision."""
        if self.residue == 0:
            return None
        v = 0
        r = self.residue
        while r % self.p == 0:
            r //= self.p
            v += 1
        return v

    def is_unit(self) -> bool:
        return self.residue % self.p != 0

    def unit_residue_mod_p(self) -> int:
        return self.residue % self.p

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "PadicInt":
        if isinstance(other, PadicInt):
            if other.p != self.p:
                raise PrecisionError("mixed primes")
            return other
        if isinstance(other, int):
            return PadicInt(self.p, other, self.prec)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        n = min(self.prec, o.prec)
        return PadicInt(self.p, self.residue + o.residue, n)

    __radd__ = __add__

    def __neg__(self):
        return PadicInt(self.p, -self.residue, self.prec)

    def __sub__(self, other):
        o = self._coerce(other)
        n = min(self.prec, o.prec)
        return PadicInt(self.p, self.residue - o.residue, n)

    def __mul__(self, other):
        o = self._coerce(other)
        n = min(self.prec, o.prec)
        return PadicInt(self.p, self.residue * o.residue, n)

    __rmul__ = __mul__

    def unit_inverse(self) -> "PadicInt":
        if not self.is_unit():
            raise PrecisionError("inverse of a non-unit")
        return PadicInt(self.p, pow(self.residue, -1, self.modulus), self.prec)

    def __truediv__(self, other):
        o = self._coerce(other)
        return self * o.unit_inverse()

    def divide_by_int(self, k: int) -> "PadicInt":
        """Exact division by a nonzero integer; loses v_p(k) digits of precision."""
        if k == 0:
            raise ZeroDivisionError
        v = 0
        while k % self.p == 0:
            k //= self.p
            v += 1
        if v >= self.prec:
            raise PrecisionError("division by p^v exhausts the precision")
        if self.residue % self.p**v:
            raise PrecisionError("residue not divisible by p^v")
        new_prec = self.prec - v
        r = (self.residue // self.p**v) * pow(k, -1, self.p**new_prec)
        return PadicInt(self.p, r, new_prec)

    def eq_at_shared_precision(self, other) -> bool:
        o = self._coerce(other)
        n = min(self.prec, o.prec)
        return (self.residue - o.residue) % self.p**n == 0

    def serialize(self) -> dict:
        return {"residue": str(self.residue), "prec": self.prec}


def teichmuller(a: int, p: int, prec: int) -> PadicInt:
    """Teichmuller representative: the (p-1)-st root of unity congruent to a.

    By Hensel's lemma it is the one omega = a mod p with omega^(p-1) = 1 mod
    p^prec.  Newton's method on x^(p-1) = 1 doubles the digits at each step:
    r <- r (1 - (r^(p-1) - 1) / (p - 1)) drops Newton's factor 1/r^(p-1),
    which is 1 + O(p^k) when r is right mod p^k, so the step stays quadratic."""
    if a % p == 0:
        raise PrecisionError("Teichmuller lift of 0 is 0; need a unit")
    x = PadicInt(p, a, prec)  # refuses a precision out of range before lifting
    r, m, modulus = x.residue, p, x.modulus
    c = pow(p - 1, -1, modulus)
    while m < modulus:
        m = min(m * m, modulus)
        r = r * (1 - (pow(r, p - 1, m) - 1) * c) % m
    return PadicInt(p, r, prec)


def teichmuller_part(u: PadicInt) -> PadicInt:
    if not u.is_unit():
        raise PrecisionError("non-unit has no Teichmuller part")
    return teichmuller(u.unit_residue_mod_p(), u.p, u.prec)


def log_unit(u: PadicInt) -> PadicInt:
    """Iwasawa logarithm of a unit: the Teichmuller part is stripped first,
    then the alternating series on the 1-unit part.

    Output precision is at least prec - floor(log_p prec); roots of unity map
    to zero exactly at precision.
    """
    if not u.is_unit():
        raise PrecisionError("logarithm of a non-unit")
    one_unit = u / teichmuller_part(u)
    return log_one_unit(one_unit)


def log_one_unit(u: PadicInt) -> PadicInt:
    if not u.is_unit() or u.unit_residue_mod_p() != 1:
        raise PrecisionError("argument must be a 1-unit")
    p, n = u.p, u.prec
    x = u - PadicInt.one(p, n)
    total = PadicInt.zero(p, n)
    power = PadicInt.one(p, n)
    # Terms beyond k = n have valuation at least n - floor(log_p n), which is
    # exactly the precision the k <= n divisions leave behind.
    for k in range(1, n + 1):
        power = power * x
        term = power.divide_by_int(k)
        total = total + (term if k % 2 == 1 else -term)
    return total
