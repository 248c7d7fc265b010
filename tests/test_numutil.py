"""The primality test: exact below PSI_13, refused at and above it, and fast on
every input it takes."""

import random

import pytest
import sympy

from iwasawa_kit.numutil import PSI_13, is_prime

# strong pseudoprimes to the first 12 prime bases and to bases 2, 3, 5, 7 and
# 2..31: only a later base of the 13 finds each composite
PSI_12 = 318_665_857_834_031_151_167_461
STRONG_PSEUDOPRIMES = (3_215_031_751, 3_825_123_056_546_413_051, PSI_12)


def sieve_of_eratosthenes(limit):
    """flags[n] is True iff n is prime, for 0 <= n < limit."""
    flags = [False, False] + [True] * (limit - 2)
    for d in range(2, int(limit**0.5) + 1):
        if flags[d]:
            flags[d * d::d] = [False] * len(range(d * d, limit, d))
    return flags


def test_is_prime_agrees_with_a_sieve_below_2e5():
    primes = sieve_of_eratosthenes(200_000)
    assert [n for n in range(-3, 200_000) if is_prime(n) != (n >= 0 and primes[n])] == []


def test_is_prime_agrees_with_sympy_on_large_n():
    rng = random.Random(2026)
    cases = [rng.getrandbits(bits) | 1 for bits in (64, 80) for _ in range(300)]
    cases += [sympy.nextprime(rng.getrandbits(bits)) for bits in (64, 80) for _ in range(30)]
    cases += [2**61 - 1, 2**64 - 59, PSI_13 - 1, *STRONG_PSEUDOPRIMES]
    assert [n for n in cases if is_prime(n) != sympy.isprime(n)] == []
    assert not any(map(is_prime, STRONG_PSEUDOPRIMES))


@pytest.mark.parametrize("n", [PSI_13, PSI_13 + 2, 2**127 - 1])
def test_is_prime_refuses_n_at_or_above_psi_13(n):
    with pytest.raises(ValueError, match="primality"):
        is_prime(n)
