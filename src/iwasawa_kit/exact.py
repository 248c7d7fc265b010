"""Exact coefficient arithmetic: rationals, Bernoulli machinery, reduction
into Z/p^N, and cyclotomic integers over Q.

All values are immutable and every operation is pure. Z/p^N is held as plain
ints reduced mod p^N; the caller carries p and N (see linalg.ZModPN and the
int vectors of fitting and tower). Cyclotomic arithmetic stays over Q in the
power basis 1, z, ..., z^(phi(n)-1) modulo the n-th cyclotomic polynomial.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .numutil import euler_phi, is_prime

Rational = Fraction


# ---------------------------------------------------------------------------
# Rational wire format: "num/den", den omitted when 1.

def rat_to_str(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def rat_from_str(s: str) -> Fraction:
    return Fraction(s)


# ---------------------------------------------------------------------------
# Bernoulli polynomials B_k(x), exact and memoized per k.

@lru_cache(maxsize=None)
def bernoulli_polynomial(k: int) -> tuple[Fraction, ...]:
    """Coefficients (c_0, ..., c_k) of B_k(x), lowest degree first.

    Defining recurrence: sum_{j=0}^{k} C(k+1, j) B_j(x) = (k+1) x^k.
    """
    if k < 0:
        raise ValueError(f"bernoulli_polynomial expects k >= 0, got {k}")
    if k == 0:
        return (Fraction(1),)
    acc = [Fraction(0)] * (k + 1)
    acc[k] = Fraction(k + 1)
    for j in range(k):
        cjk = math.comb(k + 1, j)
        for i, cf in enumerate(bernoulli_polynomial(j)):
            acc[i] -= cjk * cf
    inv = Fraction(1, k + 1)
    return tuple(cf * inv for cf in acc)


def poly_eval(coeffs: tuple[Fraction, ...], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def bernoulli_number(k: int) -> Fraction:
    return bernoulli_polynomial(k)[0]


def hurwitz_zeta_nonpos(r: int, a: int, f: int) -> Fraction:
    """zeta(r, a/f) for r <= 0, via zeta(1-k, x) = -B_k(x)/k with k = 1-r."""
    if r > 0:
        raise ValueError(f"hurwitz_zeta_nonpos expects r <= 0, got {r}")
    if not (1 <= a <= f):
        raise ValueError(f"need 1 <= a <= f, got a={a}, f={f}")
    k = 1 - r
    return -poly_eval(bernoulli_polynomial(k), Fraction(a, f)) / k


# ---------------------------------------------------------------------------
# The ring Z/p^N: plain ints reduced mod p^N.

def padic_from_rational(x: Fraction, p: int, N: int) -> int:
    """Reduce a p-integral rational mod p^N; raises ValueError if p divides
    the denominator."""
    x = Fraction(x)
    if x.denominator % p == 0:
        raise ValueError(f"{x} is not {p}-integral")
    q = p**N
    return x.numerator * pow(x.denominator, -1, q) % q


def teichmuller(a: int, p: int, N: int) -> int:
    """The Teichmuller representative w(a) mod p^N: the unique (p-1)-st root of
    unity congruent to a mod p.  Computed by iterating x -> x^p to its fixed
    point (equivalently a^(p^(N-1)) mod p^N).
    """
    if not is_prime(p) or p == 2:
        raise ValueError(f"teichmuller needs an odd prime, got {p}")
    if a % p == 0:
        raise ValueError(f"teichmuller needs p coprime to a, got a={a}, p={p}")
    q = p**N
    x = a % q
    while True:
        y = pow(x, p, q)
        if y == x:
            return x
        x = y


# ---------------------------------------------------------------------------
# Cyclotomic integers over Q: the field Q(zeta_n) in the power basis.

@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n(x), lowest degree first (monic)."""
    if n < 1:
        raise ValueError(f"cyclotomic_polynomial expects n >= 1, got {n}")
    # (x^n - 1) / prod_{d | n, d < n} Phi_d(x), exact synthetic division.
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divexact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


def _poly_divexact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (den monic, low-first)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        out[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    assert all(c == 0 for c in num), "non-exact polynomial division"
    return out


def _reduce_mod_cyclotomic(coeffs: list[Fraction], n: int) -> tuple[Fraction, ...]:
    """Remainder of a low-first Fraction polynomial modulo Phi_n, padded to phi(n)."""
    phi = list(cyclotomic_polynomial(n))
    deg = len(phi) - 1
    work = list(coeffs)
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c:
            for j, pj in enumerate(phi):
                work[i - deg + j] -= c * pj
    work = work[:deg]
    work += [Fraction(0)] * (deg - len(work))
    return tuple(Fraction(c) for c in work)


class CyclotomicInt:
    """Element of Q(zeta_n), coefficients in the basis 1, z, ..., z^(phi(n)-1)."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: tuple[Fraction, ...]):
        if len(coeffs) != euler_phi(n):
            raise ValueError(f"need phi({n}) = {euler_phi(n)} coefficients")
        self.n = n
        self.coeffs = tuple(Fraction(c) for c in coeffs)

    @classmethod
    def from_powers(cls, n: int, powers: dict[int, Fraction]) -> "CyclotomicInt":
        """sum_k c_k zeta_n^k, exponents taken mod n, reduced once."""
        raw = [Fraction(0)] * n
        for k, c in powers.items():
            raw[k % n] += c
        return cls(n, _reduce_mod_cyclotomic(raw, n))

    @classmethod
    def zeta(cls, n: int, k: int = 1) -> "CyclotomicInt":
        return cls.from_powers(n, {k: Fraction(1)})

    @classmethod
    def from_rational(cls, n: int, q: Fraction) -> "CyclotomicInt":
        return cls.from_powers(n, {0: Fraction(q)})

    def _coerce(self, other) -> "CyclotomicInt":
        if isinstance(other, CyclotomicInt):
            if other.n != self.n:
                raise ValueError(f"mixed cyclotomic orders {self.n} and {other.n}")
            return other
        return CyclotomicInt.from_rational(self.n, Fraction(other))

    def __add__(self, other) -> "CyclotomicInt":
        o = self._coerce(other)
        return CyclotomicInt(self.n, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self) -> "CyclotomicInt":
        return CyclotomicInt(self.n, tuple(-a for a in self.coeffs))

    def __sub__(self, other) -> "CyclotomicInt":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "CyclotomicInt":
        return self._coerce(other) - self

    def __mul__(self, other) -> "CyclotomicInt":
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return CyclotomicInt(self.n, tuple(q * a for a in self.coeffs))
        o = self._coerce(other)
        prod = [Fraction(0)] * (2 * len(self.coeffs))
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    if b:
                        prod[i + j] += a * b
        return CyclotomicInt(self.n, _reduce_mod_cyclotomic(prod, self.n))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CyclotomicInt.from_rational(self.n, Fraction(other))
        return (
            isinstance(other, CyclotomicInt)
            and self.n == other.n
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.n, self.coeffs))

    def __repr__(self) -> str:
        return f"CyclotomicInt({self.n}, {self.coeffs})"

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

    def galois(self, t: int) -> "CyclotomicInt":
        """Galois action zeta -> zeta^t (t coprime to n)."""
        if math.gcd(t, self.n) != 1:
            raise ValueError(f"galois exponent {t} not coprime to {self.n}")
        return CyclotomicInt.from_powers(
            self.n, {i * t: c for i, c in enumerate(self.coeffs) if c}
        )

    def conjugate(self) -> "CyclotomicInt":
        return self.galois(-1 % self.n) if self.n > 2 else self

    def embed(self, m: int) -> "CyclotomicInt":
        """Image under Q(zeta_n) -> Q(zeta_m), zeta_n -> zeta_m^(m/n); needs n | m."""
        if m % self.n != 0:
            raise ValueError(f"no canonical embedding of order {self.n} into {m}")
        step = m // self.n
        return CyclotomicInt.from_powers(
            m, {i * step: c for i, c in enumerate(self.coeffs) if c}
        )
