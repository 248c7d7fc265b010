"""The integer normal form of CyclotomicInt, and the field arithmetic of the
test helper `Cyclotomic`, against a Fraction reference.

`FractionCyclotomic` is the earlier model of Q(zeta_n): one Fraction per
power-basis coefficient, reduced mod Phi_n over the rationals. It is kept
here only as the reference the integer model must agree with.
"""

import math
import random
from fractions import Fraction

import sympy
from algebra_helpers import Cyclotomic, fold
from fraction_route import cyclotomic_from_powers

from iwasawa_kit.exact import CyclotomicInt, cyclotomic_polynomial
from iwasawa_kit.numutil import euler_phi

Q = Fraction
ORDERS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 20, 24)


def _reduce_fractions(coeffs, n):
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
    work += [Q(0)] * (deg - len(work))
    return tuple(Q(c) for c in work)


class FractionCyclotomic:
    """Element of Q(zeta_n), Fraction coefficients in the basis 1, z, ..., z^(phi(n)-1)."""

    def __init__(self, n, coeffs):
        assert len(coeffs) == euler_phi(n)
        self.n = n
        self.coeffs = tuple(Q(c) for c in coeffs)

    @classmethod
    def from_powers(cls, n, powers):
        raw = [Q(0)] * n
        for k, c in powers.items():
            raw[k % n] += c
        return cls(n, _reduce_fractions(raw, n))

    def __add__(self, other):
        return FractionCyclotomic(self.n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        return FractionCyclotomic(self.n, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FractionCyclotomic(self.n, tuple(Q(other) * a for a in self.coeffs))
        prod = [Q(0)] * (2 * len(self.coeffs))
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                prod[i + j] += a * b
        return FractionCyclotomic(self.n, _reduce_fractions(prod, self.n))


def fractions_of(x: CyclotomicInt) -> tuple:
    return tuple(Q(c, x.den) for c in x.nums)


def assert_canonical(x: CyclotomicInt) -> None:
    assert x.den > 0
    assert math.gcd(x.den, *x.nums) == 1
    assert len(x.nums) == euler_phi(x.n)
    if not any(x.nums):
        assert x.den == 1


def random_powers(rng, n):
    return {
        rng.randrange(-2 * n, 2 * n): Q(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 6, 9)))
        for _ in range(rng.randint(0, 2 * n))
    }


def test_operations_agree_with_fraction_reference():
    rng = random.Random(2026)
    for n in ORDERS:
        for _ in range(12):
            pa, pb = random_powers(rng, n), random_powers(rng, n)
            x, y = cyclotomic_from_powers(n, pa), cyclotomic_from_powers(n, pb)
            X, Y = FractionCyclotomic.from_powers(n, pa), FractionCyclotomic.from_powers(n, pb)
            q = Q(rng.randint(-5, 5), rng.randint(1, 6))
            pairs = [
                (x, X), (y, Y), (x + y, X + Y), (x - y, X - Y), (x * y, X * Y),
                (x * q, X * q), (q * x, X * q),
            ]
            for ours, ref in pairs:
                assert_canonical(ours)
                assert ours.n == ref.n and fractions_of(ours) == ref.coeffs, (n, pa, pb)


def test_reduction_against_sympy():
    z = sympy.symbols("z")
    rng = random.Random(7)
    for n in ORDERS:
        phi = sympy.Poly(sympy.cyclotomic_poly(n, z), z)
        for _ in range(8):
            vec = [rng.randint(-20, 20) for _ in range(rng.randint(1, 3 * n))]
            den = rng.choice((1, 2, 5, 12))
            rem = sympy.Poly(list(reversed(vec)), z).rem(phi).all_coeffs()[::-1]
            rem = [Q(int(c), den) for c in rem] + [Q(0)] * (euler_phi(n) - len(rem))
            x = CyclotomicInt(n, fold(vec, n), den)
            assert_canonical(x)
            assert list(fractions_of(x)) == rem, (n, vec, den)


def test_normal_form_is_canonical():
    for n in ORDERS:
        zeta = fold([0, 1], n)
        half = CyclotomicInt(n, zeta, 2)
        assert CyclotomicInt(n, [2 * c for c in zeta], 4) == half
        assert CyclotomicInt(n, [-c for c in zeta], -2) == half
        assert cyclotomic_from_powers(n, {1: Q(1, 2)}) == half
        zero = CyclotomicInt(n, [0] * n, 7)
        assert zero == Cyclotomic(n, [0]) and zero.den == 1
        assert (Cyclotomic(n, zeta, 2) - half).den == 1
        assert_canonical(CyclotomicInt(n, fold([6, -4, 10], n), -8))
