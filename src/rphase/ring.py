"""Exact complex arithmetic in the ring Z[w, 1/sqrt(2)] with w = exp(i*pi/4).

Every amplitude a Clifford+T circuit can produce has the form

    (a0 + a1*w + a2*w^2 + a3*w^3) / sqrt(2)^k

with integer coefficients, so circuits over {X, Y, Z, P, T, H, CNOT, CZ}
simulate with zero rounding error.  The defining relation is w^4 = -1
(hence w^2 = i and w - w^3 = sqrt(2)).

Canonical form: k == 0, or the numerator is not divisible by sqrt(2).
Divisibility is decided inside the ring itself: multiply the numerator by
sqrt(2) = w - w^3 and test whether every coefficient is even.

Coefficients are plain Python integers, so there is no overflow to check.
Elements are immutable and hashable; all operations return new values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class RingElement:
    """One element of Z[w]/sqrt(2)^k, kept in canonical (minimal-k) form."""

    a0: int
    a1: int
    a2: int
    a3: int
    k: int = 0

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("denominator exponent k must be non-negative")
        c, k = _reduce((self.a0, self.a1, self.a2, self.a3), self.k)
        object.__setattr__(self, "a0", c[0])
        object.__setattr__(self, "a1", c[1])
        object.__setattr__(self, "a2", c[2])
        object.__setattr__(self, "a3", c[3])
        object.__setattr__(self, "k", k)

    # -- constructors ------------------------------------------------

    @classmethod
    def from_int(cls, n: int) -> "RingElement":
        return cls(n, 0, 0, 0, 0)

    @classmethod
    def omega_power(cls, m: int) -> "RingElement":
        """w^m for any integer m (w has order 8)."""
        m %= 8
        sign = 1 if m < 4 else -1
        coeffs = [0, 0, 0, 0]
        coeffs[m % 4] = sign
        return cls(*coeffs, 0)

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "RingElement") -> "RingElement":
        if not isinstance(other, RingElement):
            return NotImplemented
        x, y, k = _common_denominator(self, other)
        return RingElement(x[0] + y[0], x[1] + y[1], x[2] + y[2], x[3] + y[3], k)

    def __sub__(self, other: "RingElement") -> "RingElement":
        if not isinstance(other, RingElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "RingElement":
        return RingElement(-self.a0, -self.a1, -self.a2, -self.a3, self.k)

    def __mul__(self, other: "RingElement") -> "RingElement":
        if not isinstance(other, RingElement):
            return NotImplemented
        c = _mul4(
            (self.a0, self.a1, self.a2, self.a3),
            (other.a0, other.a1, other.a2, other.a3),
        )
        return RingElement(*c, self.k + other.k)

    def __pow__(self, n: int) -> "RingElement":
        if n < 0:
            raise ValueError("negative powers are not defined in this ring")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conj(self) -> "RingElement":
        """Complex conjugate; conj(w) = w^-1 = -w^3."""
        return RingElement(self.a0, -self.a3, -self.a2, -self.a1, self.k)

    # -- predicates and conversion -------------------------------------

    def is_zero(self) -> bool:
        return self.a0 == 0 and self.a1 == 0 and self.a2 == 0 and self.a3 == 0

    def is_unit_magnitude(self) -> bool:
        """True iff conj(x) * x == 1 exactly."""
        return (self.conj() * self) == ONE

    def to_float(self) -> tuple[float, float]:
        """Double-precision (real, imag) approximation; test oracle only."""
        scale = _INV_SQRT2 ** self.k
        re = (self.a0 + (self.a1 - self.a3) * _INV_SQRT2) * scale
        im = (self.a2 + (self.a1 + self.a3) * _INV_SQRT2) * scale
        return (re, im)

    def __complex__(self) -> complex:
        re, im = self.to_float()
        return complex(re, im)

    def __abs__(self) -> float:
        return abs(complex(self))

    # -- equality on canonical forms ------------------------------------

    def _key(self):
        return (self.a0, self.a1, self.a2, self.a3, self.k)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = RingElement.from_int(other)
        if not isinstance(other, RingElement):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"RingElement({self.a0}, {self.a1}, {self.a2}, {self.a3}, k={self.k})"

    def __str__(self):
        terms = []
        for coeff, name in zip((self.a0, self.a1, self.a2, self.a3), ("", "w", "w^2", "w^3")):
            if coeff:
                terms.append(f"{coeff}{name}" if name else str(coeff))
        num = " + ".join(terms) if terms else "0"
        return f"({num})/sqrt2^{self.k}" if self.k else num


def _mul4(x: tuple[int, int, int, int], y: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """Product of numerators under w^4 = -1."""
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return (
        x0 * y0 - x1 * y3 - x2 * y2 - x3 * y1,
        x0 * y1 + x1 * y0 - x2 * y3 - x3 * y2,
        x0 * y2 + x1 * y1 + x2 * y0 - x3 * y3,
        x0 * y3 + x1 * y2 + x2 * y1 + x3 * y0,
    )


def _reduce(c: tuple[int, int, int, int], k: int) -> tuple[tuple[int, int, int, int], int]:
    """Divide out sqrt(2) from the numerator until k is minimal."""
    if c == (0, 0, 0, 0):
        return c, 0
    a0, a1, a2, a3 = c
    while k > 0:
        # numerator * sqrt(2), with sqrt(2) = w - w^3
        t = (a1 - a3, a0 + a2, a1 + a3, a2 - a0)
        if any(v & 1 for v in t):
            break
        a0, a1, a2, a3 = (v >> 1 for v in t)
        k -= 1
    return (a0, a1, a2, a3), k


def _common_denominator(x: RingElement, y: RingElement):
    """Numerators of x and y over the larger sqrt(2)-denominator."""
    kx, ky = x.k, y.k
    cx = (x.a0, x.a1, x.a2, x.a3)
    cy = (y.a0, y.a1, y.a2, y.a3)
    if kx == ky:
        return cx, cy, kx
    if kx < ky:
        cx = _scale_up(cx, ky - kx)
        return cx, cy, ky
    cy = _scale_up(cy, kx - ky)
    return cx, cy, kx


def _scale_up(c: tuple[int, int, int, int], d: int) -> tuple[int, int, int, int]:
    """Multiply numerator by sqrt(2)^d."""
    a0, a1, a2, a3 = c
    for _ in range(d):
        a0, a1, a2, a3 = (a1 - a3, a0 + a2, a1 + a3, a2 - a0)
    return (a0, a1, a2, a3)


_OMEGA_POWERS = tuple(map(RingElement.omega_power, range(8)))
ZERO = RingElement(0, 0, 0, 0)
# w^0: the one object every collapsed phase of 1 is, so that comparing
# such a phase with ONE is an identity test
ONE = _OMEGA_POWERS[0]
OMEGA = RingElement(0, 1, 0, 0)
IMAG = RingElement(0, 0, 1, 0)
SQRT2 = RingElement(0, 1, 0, -1)
INV_SQRT2 = RingElement(1, 0, 0, 0, 1)


@functools.cache
def _omega_numerators(k: int) -> dict:
    """{numerator of w^j over sqrt(2)^k: w^j} for j = 0..7."""
    return {_scale_up((e.a0, e.a1, e.a2, e.a3), k): e for e in _OMEGA_POWERS}


def as_omega_power(c: tuple[int, int, int, int], k: int) -> RingElement | None:
    """The shared w^j equal to numerator ``c`` over sqrt(2)^k, or None when
    that number does not have unit magnitude.

    One lookup: a number has exactly one numerator over a given
    sqrt(2)^k, so ``c`` over sqrt(2)^k equals w^j iff ``c`` is w^j's
    numerator w^j * sqrt(2)^k, and that table holds all eight.

    No unit misses the table. Let x = c / sqrt(2)^k be canonical with
    |x| = 1, so c * conj(c) = 2^k. Over 2, Z[w] has the one prime
    lambda = 1 - w, with (2) = (lambda)^4 and (sqrt(2)) = (lambda)^2, and
    conjugation fixes it; so c and conj(c) have the same lambda-adic
    valuation, 2k, and sqrt(2)^k divides c. Canonical form forbids that
    for k > 0, so k = 0. Then x lies in Z[w] and every Galois conjugate of
    it has modulus 1 (conjugation commutes with the abelian Galois group),
    so x is a root of unity by Kronecker's theorem: some w^j.
    """
    return _omega_numerators(k).get(c)
