"""Exact coefficient arithmetic: rationals, Bernoulli machinery, reduction
into Z/p^N, and cyclotomic integers over Q.

All values are immutable and every operation is pure. Z/p^N is held as plain
ints reduced mod p^N; the caller carries p and N (linalg takes q = p^N alone;
see the int vectors of fitting and tower). Q[G] and Q(zeta_n) share one shape:
integer numerators over one positive denominator, in lowest terms
(`lowest_terms`). An element of Q[G] is the pair (nums, den) with nums in the
basis order of groupring; padic_from_rational reduces such a pair mod p^N
with one inverse of den. Q(zeta_n) is CyclotomicInt: numerators in the power
basis 1, z, ..., z^(phi(n)-1), reduced mod the n-th cyclotomic polynomial in
the integers by its constructor, the one place the fold lives: exponents are
folded mod n, for even n the top half through z^(n/2) = -1, and each power
z^i with phi(n) <= i that is left (0 to 3 at the orders of the CM corpus) is
added from a table of z^i mod Phi_n built once per n. Both character routes
(abelian.CharacterTable and the L-values of lvalues) build it directly from
an integer vector and a denominator.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache


# ---------------------------------------------------------------------------
# Rational wire format: "num/den", den omitted when 1.

def rat_to_str(num: int, den: int = 1) -> str:
    """num/den in lowest terms; the denominator is omitted when it is 1."""
    (num,), den = lowest_terms((num,), den)
    return str(num) if den == 1 else f"{num}/{den}"


def lowest_terms(nums, den: int) -> tuple[tuple[int, ...], int]:
    """Integer numerators over one nonzero denominator (every caller's is a
    positive lcm or product of denominators), divided by their gcd with
    den > 0 (zero has den 1). Numerators already in lowest terms are
    returned as a tuple with no division pass."""
    g = math.gcd(den, *nums) * (-1 if den < 0 else 1)
    if g == 1:
        return tuple(nums), den
    return tuple([c // g for c in nums]), den // g


# ---------------------------------------------------------------------------
# Bernoulli numbers and polynomials B_k(x), exact and memoized.

_BERNOULLI_NUMBERS = [Fraction(1)]


def bernoulli_number(k: int) -> Fraction:
    """B_k for k >= 0, with B_1 = -1/2, from sum_{j=0}^{m} C(m+1, j) B_j = 0
    (m >= 1)."""
    nums = _BERNOULLI_NUMBERS
    while len(nums) <= k:
        m = len(nums)
        acc = sum(math.comb(m + 1, j) * b for j, b in enumerate(nums) if b)
        nums.append(-acc / (m + 1))
    return nums[k]


@lru_cache(maxsize=None)
def bernoulli_polynomial(k: int) -> tuple[Fraction, ...]:
    """Coefficients (c_0, ..., c_k) of B_k(x), k >= 0 (k = 1 - r >= 1 for
    theta, whose r <= 0 is admitted), lowest degree first:
    B_k(x) = sum_j C(k, j) B_j x^(k-j), so c_i = C(k, i) B_(k-i)."""
    return tuple(math.comb(k, i) * bernoulli_number(k - i) for i in range(k + 1))


def poly_eval(coeffs: tuple[Fraction, ...], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# ---------------------------------------------------------------------------
# The ring Z/p^N: plain ints reduced mod p^N.

def padic_from_rational(x: tuple[tuple[int, ...], int], p: int, N: int) -> tuple[int, ...]:
    """Reduce a p-integral element (nums, den) of Q[G], in lowest terms, mod
    p^N with one inverse of den (pow raises ValueError if p divides den;
    both callers check p-integrality first)."""
    nums, den = x
    q = p**N
    inv = pow(den, -1, q)
    return tuple([c * inv % q for c in nums])


def teichmuller(a: int, p: int, N: int) -> int:
    """The Teichmuller representative w(a) mod p^N, for an odd prime p (as
    tower_preconditions admits) and a prime to p: the unique (p-1)-st root of
    unity congruent to a mod p.  Computed by iterating x -> x^p to its fixed
    point (equivalently a^(p^(N-1)) mod p^N).
    """
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
    """Integer coefficients of Phi_n(x), n >= 1, lowest degree first (monic)."""
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


@lru_cache(maxsize=None)
def _cyclotomic_fold(n: int) -> tuple[int, int, tuple[tuple[int, tuple[int, ...]], ...]]:
    """(m, phi(n), powers): z^m = -1 for m = n/2 when n is even, else m = n;
    powers holds (i, z^i mod Phi_n) for each phi(n) <= i < m, read off
    z^i = z . z^(i-1) mod Phi_n (monic) one power at a time."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    m = n // 2 if n % 2 == 0 else n
    powers = []
    power = [-c for c in phi[:-1]]  # z^deg
    for i in range(deg, m):
        powers.append((i, tuple(power)))
        top = power[-1]  # z . power = shift, then z^deg = -sum_j phi_j z^j
        power = [0] + power[:-1]
        if top:
            power = [a - top * pj for a, pj in zip(power, phi)]
    return m, deg, tuple(powers)


class CyclotomicInt:
    """Element of Q(zeta_n), the value type of both character routes: integer
    numerators `nums` of 1, z, ..., z^(phi(n)-1) over one positive
    denominator `den`, in lowest terms (zero has den 1). The constructor takes
    the n integer coefficients of 1, z, ..., z^(n-1) and reduces them mod
    Phi_n, so two values are equal when their (n, nums, den) are. Comparing
    with an int or a Fraction raises TypeError: there is no coercion, and a
    silent False would make `x == 0` untrue for every x.

    The reduction is one fold: for even n the top half through
    z^(n/2) = -1, and each power z^i left with phi(n) <= i is added from the
    fold table of n."""

    __slots__ = ("n", "nums", "den")

    def __init__(self, n: int, vec, den: int = 1):
        m, deg, powers = _cyclotomic_fold(n)
        if m != n:
            vec = list(map(operator.sub, vec[:m], vec[m:]))
        out = vec[:deg]
        for i, power in powers:
            c = vec[i]
            if c:
                out = [a + c * b for a, b in zip(out, power)]
        self.n = n
        self.nums, self.den = lowest_terms(out, den)

    def __eq__(self, other) -> bool:
        if isinstance(other, CyclotomicInt):
            return (self.n, self.den, self.nums) == (other.n, other.den, other.nums)
        if isinstance(other, (int, Fraction)):
            raise TypeError("a CyclotomicInt compares with a CyclotomicInt, not with a number")
        return NotImplemented

    def is_rational(self) -> bool:
        return not any(self.nums[1:])
