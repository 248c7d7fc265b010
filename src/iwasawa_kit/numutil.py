"""Elementary number theory: a deterministic primality test, and factoring by trial division."""

from __future__ import annotations

import math

# Trial division by the 13 primes up to 41 decides every n < 43^2, and
# Miller-Rabin to these 13 bases is exact below PSI_13 (Sorenson and Webster,
# "Strong pseudoprimes to twelve prime bases", Math. Comp. 86 (2017)).
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Whether n is prime, for n < PSI_13; ValueError at or above it."""
    if n >= PSI_13:
        raise ValueError(f"primality is decided only below {PSI_13}, got {n}")
    if n < 2:
        return False
    for p in SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in SMALL_PRIMES:  # n passes base a iff a^d = 1 or a^(2^r d) = -1, some r < s
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of n >= 1."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """Sorted list of positive divisors of n >= 1."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n).items():
        phi *= p ** (e - 1) * (p - 1)
    return phi


def crt(residues: list[int], moduli: list[int]) -> int:
    """x mod prod(moduli) with x = residues[i] mod moduli[i]; the moduli are
    pairwise coprime (powers of distinct primes, or q and its cofactor)."""
    x, m = 0, 1
    for r, q in zip(residues, moduli):
        # x' = x + m*t with x + m*t = r mod q
        t = ((r - x) * pow(m, -1, q)) % q
        x += m * t
        m *= q
    return x % m


def crt_lift(a: int, f: int, m: int, m_factors: dict[int, int] | None = None) -> int:
    """x mod m with x = a at the primes of m dividing f and x = 1 at the others.

    For f | m and a coprime to f this is a unit mod m congruent to a mod f.
    m_factors, when given, is factorize(m), so a caller lifting many
    residues to one m factors it once.
    """
    res, mods = [], []
    for p, e in (factorize(m) if m_factors is None else m_factors).items():
        q = p**e
        res.append(a % q if f % p == 0 else 1)
        mods.append(q)
    return crt(res, mods)


def primitive_root(q: int) -> int:
    """Smallest primitive root modulo q = p^e, p an odd prime."""
    phi = euler_phi(q)
    prime_divs = list(factorize(phi))
    for g in range(2, q):
        if math.gcd(g, q) != 1:
            continue
        if all(pow(g, phi // ell, q) != 1 for ell in prime_divs):
            return g
    raise AssertionError(f"no primitive root found mod {q}")


def unit_residues(m: int) -> list[int]:
    """Residues of (Z/m)^x in [0, m). For m = 1 this is [0]."""
    if m == 1:
        return [0]
    return [a for a in range(m) if math.gcd(a, m) == 1]


def unit_group_generators(m: int) -> list[tuple[int, int]]:
    """Generators (residue, order) of (Z/m)^x, one or two per prime power of m.

    Odd prime powers contribute a primitive root; 2^e contributes -1 (e >= 2)
    and 5 (e >= 3). Each generator is lifted by CRT to be 1 mod the cofactor.
    """
    if m <= 2:
        return []
    gens: list[tuple[int, int]] = []
    fac = factorize(m)
    prime_powers = [p**e for p, e in fac.items()]
    for p, e in fac.items():
        q = p**e
        cof = m // q
        if p == 2:
            if e >= 2:
                gens.append((crt([q - 1, 1], [q, cof]) if cof > 1 else q - 1, 2))
            if e >= 3:
                gens.append((crt([5, 1], [q, cof]) if cof > 1 else 5, 2 ** (e - 2)))
        else:
            g = primitive_root(q)
            gens.append((crt([g, 1], [q, cof]) if cof > 1 else g, euler_phi(q)))
    assert math.prod(o for _, o in gens) == euler_phi(m)
    return gens
