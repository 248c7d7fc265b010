"""The earlier integer route of lvalues.theta_value, kept as its oracle.

theta_value reads sum_sigma zeta(r, sigma) sigma^(-1) from one table per
presentation and k = 1 - r and applies every Euler and T-factor as the same
pass. This route takes the steps apart, as the kit did before: the partial
zeta vector sigma -> zeta_S(r, sigma) by a Horner pass over every unit class
of the presentation, the Euler factors (1 - v^(-r) sigma_v) of the
unramified primes of S, lowest_terms, then #, then each T-factor
(1 - v^(1-r) sigma_v^(-1)) through groupring.translate, and lowest_terms
again. It shares the Galois data, the group-ring basis and
bernoulli_polynomial with lvalues, and no table.
"""

import math
from functools import lru_cache

from iwasawa_kit import groupring, lvalues
from iwasawa_kit.exact import bernoulli_polynomial, lowest_terms


def times_one_minus(x: tuple, group, sigma, c: int) -> tuple:
    """(1 - c sigma) x on integer numerators."""
    return tuple(a - c * b for a, b in zip(x, groupring.translate(x, group, sigma)))


def partial_zeta_vector(pres, s_fin, r: int) -> tuple[tuple[int, ...], int]:
    """sigma -> zeta_S(r, sigma) as (nums, den) in the basis order, by a
    Horner pass over every unit class of the presentation, with no table."""
    f, grp, k = pres.conductor, pres.group, 1 - r
    coeffs = bernoulli_polynomial(k)
    den = math.lcm(*(c.denominator for c in coeffs))
    cleared = [c.numerator * (den // c.denominator) for c in reversed(coeffs)]
    f_pow = [f**j for j in range(k + 1)]
    nums = [0] * grp.size
    for b, i in pres.unit_classes:
        acc = 0
        for j, c in enumerate(cleared):
            acc = acc * b + c * f_pow[j]
        nums[i] -= acc
    x = tuple(nums)
    for v in sorted(s_fin):
        if f % v:  # unramified
            x = times_one_minus(x, grp, pres.frobenius(v), v ** (-r))
    return lowest_terms(x, f * den * k)


def t_factors(pres, t_fin, r: int) -> list:
    """(sigma_v^(-1), v^(1-r)) for each prime v of t_fin: the factors of
    delta_T(r). frobenius refuses a ramified v."""
    return [(pres.group.inv(pres.frobenius(v)), v ** (1 - r)) for v in sorted(t_fin)]


def theta_value(pres, s_fin, t_fin, r: int) -> tuple[tuple[int, ...], int]:
    """delta_T(r) . (partial_zeta_vector)^# as (nums, den) in lowest terms."""
    grp = pres.group
    nums, den = partial_zeta_vector(pres, s_fin, r)
    nums = groupring.sharp(nums, grp)
    for sigma, c in t_factors(pres, t_fin, r):
        nums = times_one_minus(nums, grp, sigma, c)
    return lowest_terms(nums, den)


def fresh_zeta_tables(monkeypatch):
    """Give lvalues._zeta_table a cache of its own for one test, so no table
    built before the test hides a patched unit_classes or _zeta_numerators,
    and the tables built from the patch leave with it. Call cache_clear on
    it after each further patch."""
    table = lru_cache(maxsize=None)(lvalues._zeta_table.__wrapped__)
    monkeypatch.setattr(lvalues, "_zeta_table", table)
    return table
