"""Tests for exact arithmetic: Bernoulli machinery, reduction mod p^N, cyclotomics."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from iwasawa_kit.exact import (
    CyclotomicInt,
    bernoulli_number,
    bernoulli_polynomial,
    cyclotomic_polynomial,
    hurwitz_zeta_nonpos,
    padic_from_rational,
    poly_eval,
    rat_from_str,
    rat_to_str,
    teichmuller,
)

Q = Fraction


def test_bernoulli_polynomial_base_cases():
    assert bernoulli_polynomial(0) == (Q(1),)
    assert bernoulli_polynomial(1) == (Q(-1, 2), Q(1))
    assert bernoulli_polynomial(2) == (Q(1, 6), Q(-1), Q(1))


def test_bernoulli_polynomial_against_sympy():
    x = sympy.symbols("x")
    for k in range(0, 41):
        ours = bernoulli_polynomial(k)
        theirs = sympy.Poly(sympy.bernoulli(k, x), x).all_coeffs()[::-1]
        assert [sympy.Rational(c.numerator, c.denominator) for c in ours] == list(theirs)


def test_bernoulli_numbers_of_high_index_against_sympy():
    # B_1 = -1/2 here; sympy's sign convention for B_1 differs, so k >= 2.
    for k in (2, 3, 50, 101, 200):
        b = bernoulli_number(k)
        assert sympy.Rational(b.numerator, b.denominator) == sympy.bernoulli(k)
    assert bernoulli_polynomial(200)[0] == bernoulli_number(200)
    assert bernoulli_polynomial(200)[198] == 200 * 199 // 2 * bernoulli_number(2)


def test_bernoulli_telescoping_identity():
    # B_k(x+1) - B_k(x) = k x^(k-1), checked exactly at several rationals.
    for k in range(1, 21):
        coeffs = bernoulli_polynomial(k)
        for x in (Q(0), Q(1), Q(1, 2), Q(-2, 3), Q(7, 5)):
            lhs = poly_eval(coeffs, x + 1) - poly_eval(coeffs, x)
            assert lhs == k * x ** (k - 1)


def test_bernoulli_multiplication_theorem():
    # sum_{a=1..f} B_k(a/f) = f^(1-k) B_k + k f^(-k) * f^(k-1)... the exact
    # desk identity used downstream: sum_a B_k(a/f) with a = 1..f equals
    # f^(1-k) B_k  shifted by the a=f vs a=0 endpoint: B_k(1) - B_k(0) = k*0^(k-1).
    for k in range(0, 11):
        coeffs = bernoulli_polynomial(k)
        for f in range(1, 13):
            total = sum(poly_eval(coeffs, Q(a, f)) for a in range(1, f + 1))
            expected = Q(f) ** (1 - k) * bernoulli_number(k)
            if k == 1:
                expected += 1  # B_1(1) - B_1(0) = 1 accounts for the a=f term
            assert total == expected


def test_hurwitz_zeta_examples():
    assert hurwitz_zeta_nonpos(0, 1, 3) == Q(1, 6)
    assert hurwitz_zeta_nonpos(0, 2, 3) == Q(-1, 6)
    assert hurwitz_zeta_nonpos(-1, 1, 3) == Q(1, 36)
    with pytest.raises(ValueError):
        hurwitz_zeta_nonpos(1, 1, 3)


def test_hurwitz_zeta_of_one_is_riemann():
    # zeta(0) = -1/2, zeta(-1) = -1/12, zeta(-2) = 0
    assert hurwitz_zeta_nonpos(0, 1, 1) == Q(-1, 2)
    assert hurwitz_zeta_nonpos(-1, 1, 1) == Q(-1, 12)
    assert hurwitz_zeta_nonpos(-2, 1, 1) == 0


def test_hurwitz_reconstruction_identity():
    # sum_{a=1..f} zeta(r, a/f) = f^r zeta(r), the zeta(r) reconstruction
    # through the Bernoulli multiplication theorem
    for r in range(0, -10, -1):
        for f in range(1, 13):
            total = sum(hurwitz_zeta_nonpos(r, a, f) for a in range(1, f + 1))
            assert total == Q(f) ** r * hurwitz_zeta_nonpos(r, 1, 1)


def test_bernoulli_multiplication_theorem_zero_based():
    # sum_{a=0..f-1} B_k(a/f) = f^(1-k) B_k, exactly
    for k in range(0, 11):
        coeffs = bernoulli_polynomial(k)
        for f in range(1, 13):
            total = sum(poly_eval(coeffs, Q(a, f)) for a in range(0, f))
            assert total == Q(f) ** (1 - k) * bernoulli_number(k)


def test_classical_kummer_congruence():
    # (1 - p^(k-1)) B_k / k = (1 - p^(k'-1)) B_k' / k' mod p for even k = k'
    # mod p-1 not divisible by p-1 (Kummer's theorem, an external anchor for
    # the Bernoulli machinery).
    for p in (5, 7, 11, 13):
        for k in range(2, 40, 2):
            if k % (p - 1) == 0:
                continue
            kp = k + (p - 1)
            lhs = (1 - Q(p) ** (k - 1)) * bernoulli_number(k) / k
            rhs = (1 - Q(p) ** (kp - 1)) * bernoulli_number(kp) / kp
            diff = lhs - rhs
            assert diff.denominator % p != 0
            assert diff.numerator % p == 0, (p, k)


def test_rational_wire_format():
    assert rat_to_str(Q(3, 4)) == "3/4"
    assert rat_to_str(Q(-5)) == "-5"
    assert rat_from_str("3/4") == Q(3, 4)
    assert rat_from_str("-5") == Q(-5)


def test_padic_from_rational():
    x = padic_from_rational(Q(-3, 4), 5, 2)
    assert 0 <= x < 25 and x * 4 % 25 == (-3) % 25
    assert padic_from_rational(Q(7), 3, 2) == 7
    assert padic_from_rational(-1, 3, 2) == 8
    with pytest.raises(ValueError):
        padic_from_rational(Q(1, 5), 5, 2)


def test_teichmuller_examples():
    assert teichmuller(1, 5, 2) == 1
    assert teichmuller(2, 5, 2) == 7
    assert teichmuller(-1, 7, 3) == 342
    with pytest.raises(ValueError):
        teichmuller(5, 5, 2)


def test_teichmuller_postconditions_and_closed_form():
    for p in (3, 5, 7, 11):
        for N in (1, 2, 3):
            q = p**N
            for a in range(1, p):
                w = teichmuller(a, p, N)
                assert w % p == a % p
                assert pow(w, p - 1, q) == 1
                assert w == pow(a, p ** (N - 1), q)


@given(st.integers(1, 100), st.integers(1, 100), st.sampled_from([3, 5, 7]))
@settings(max_examples=60)
def test_teichmuller_is_multiplicative(a, b, p):
    if a % p == 0 or b % p == 0:
        return
    N = 3
    wa, wb, wab = (teichmuller(x, p, N) for x in (a, b, a * b))
    assert wa * wb % p**N == wab


def test_cyclotomic_polynomial_against_sympy():
    x = sympy.symbols("x")
    for n in range(1, 30):
        ours = cyclotomic_polynomial(n)
        theirs = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
        assert list(ours) == [int(c) for c in theirs]


def test_cyclotomic_basic_identities():
    z = CyclotomicInt.zeta(5)
    acc = CyclotomicInt.from_rational(5, Q(1))
    for _ in range(5):
        acc = acc * z
    assert acc == 1  # zeta^5 = 1
    # 1 + z + z^2 + z^3 + z^4 = 0
    total = sum((CyclotomicInt.zeta(5, k) for k in range(1, 5)),
                CyclotomicInt.from_rational(5, Q(1)))
    assert total.is_zero()


def test_cyclotomic_galois_and_conjugate():
    z = CyclotomicInt.zeta(12, 1)
    assert z.galois(5) == CyclotomicInt.zeta(12, 5)
    w = CyclotomicInt.from_powers(12, {1: Q(2), 7: Q(-3)})
    assert w.conjugate().conjugate() == w
    # norm-like product z * conj(z) for a root of unity is 1
    assert z * z.conjugate() == 1


def test_cyclotomic_embedding():
    z3 = CyclotomicInt.zeta(3)
    z6 = z3.embed(6)
    assert z6 == CyclotomicInt.zeta(6, 2)
    x = CyclotomicInt.from_powers(3, {0: Q(1, 2), 1: Q(5)})
    assert x.embed(12).is_zero() is False


def test_cyclotomic_small_orders():
    one = CyclotomicInt.zeta(1)
    assert one == 1 and one.is_rational()
    m1 = CyclotomicInt.zeta(2)
    assert m1.as_rational() == -1


@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
@settings(max_examples=40)
def test_cyclotomic_ring_axioms(a, b, c):
    n = 7
    x = CyclotomicInt.from_powers(n, {1: Q(a), 3: Q(1, 2)})
    y = CyclotomicInt.from_powers(n, {2: Q(b)})
    z = CyclotomicInt.from_powers(n, {0: Q(c), 5: Q(-1)})
    assert (x + y) * z == x * z + y * z
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
