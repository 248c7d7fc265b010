"""The Fraction route of Q[G], kept as the one oracle of theta.

`iwasawa_kit.lvalues` computes theta as a pair (nums, den): integer
numerators over one denominator, read from one table per presentation and
k = 1 - r, with every Euler and T-factor applied as one pass. This module is
the earlier model it must agree with: one Fraction per coefficient, one
Hurwitz zeta value (a Fraction Horner of B_k(x)) per unit residue of the
conductor, classified through element_of, then the Euler factors of S, #,
and a Fraction shift-and-subtract for every T-factor. It shares the Galois
data, the group-ring basis and `bernoulli_polynomial` with lvalues, and no
table or helper.
"""

import math
from fractions import Fraction
from functools import lru_cache

from algebra_helpers import Cyclotomic

from iwasawa_kit import groupring
from iwasawa_kit.abelian import AbelianFieldSpec, galois_group, normalize_places
from iwasawa_kit.exact import CyclotomicInt, bernoulli_polynomial, poly_eval
from iwasawa_kit.numutil import factorize, unit_residues

Q = Fraction


@lru_cache(maxsize=None)
def hurwitz_zeta_nonpos(r: int, a: int, f: int) -> Fraction:
    """zeta(r, a/f) for r <= 0, via zeta(1-k, x) = -B_k(x)/k with k = 1-r;
    each value is kept, so that the route redoes no Horner."""
    if r > 0:
        raise ValueError(f"hurwitz_zeta_nonpos expects r <= 0, got {r}")
    if not (1 <= a <= f):
        raise ValueError(f"need 1 <= a <= f, got a={a}, f={f}")
    k = 1 - r
    return -poly_eval(bernoulli_polynomial(k), Fraction(a, f)) / k


def _presentation(spec_or_pres):
    if isinstance(spec_or_pres, AbelianFieldSpec):
        return galois_group(spec_or_pres)
    return spec_or_pres


def _times_one_minus(x: tuple, group, sigma, c) -> tuple:
    """(1 - c sigma) x."""
    return tuple(a - c * b for a, b in zip(x, groupring.translate(x, group, sigma)))


def partial_zeta_vector(spec_or_pres, S, r: int) -> tuple:
    """sigma -> zeta_S(r, sigma) as Fractions in the basis order."""
    pres = _presentation(spec_or_pres)
    s_fin, _ = normalize_places(S)
    f = pres.conductor
    ram = set(factorize(f)) if f > 1 else set()
    grp = pres.group
    index = groupring.basis_index(grp)
    vec = [Q(0)] * grp.size
    scale = Q(f) ** (-r)
    if f == 1:
        vec[index[grp.identity]] += hurwitz_zeta_nonpos(r, 1, 1)
    else:
        for b in unit_residues(f):
            vec[index[pres.element_of(b)]] += scale * hurwitz_zeta_nonpos(r, b, f)
    x = tuple(vec)
    for v in sorted(s_fin - ram):
        x = _times_one_minus(x, grp, pres.frobenius(v), Q(v) ** (-r))
    return x


def _t_factors(pres, T, r: int) -> list:
    t_fin, _ = normalize_places(T)
    return [(pres.group.inv(pres.frobenius(v)), Q(v) ** (1 - r)) for v in sorted(t_fin)]


def delta_t(spec_or_pres, T, r: int) -> tuple:
    """delta_T(r) = prod_{v in T} (1 - v^(1-r) sigma_v^(-1)) as Fractions."""
    pres = _presentation(spec_or_pres)
    grp = pres.group
    out = tuple(Q(int(g == grp.identity)) for g in grp.elements())
    for sigma, c in _t_factors(pres, T, r):
        out = _times_one_minus(out, grp, sigma, c)
    return out


def theta(spec_or_pres, S, T, r: int) -> tuple:
    """Theta_{S,T}(r) = delta_T(r) . sum_sigma zeta_S(r, sigma) sigma^(-1) as Fractions."""
    pres = _presentation(spec_or_pres)
    grp = pres.group
    value = groupring.sharp(partial_zeta_vector(pres, S, r), grp)
    for sigma, c in _t_factors(pres, T, r):
        value = _times_one_minus(value, grp, sigma, c)
    return value


def theta_value(pres, s_fin, t_fin, r: int) -> tuple[tuple[int, ...], int]:
    """theta as (nums, den) in lowest terms, as lvalues.apply_plan gives it
    for the theta_plan of the finite primes of S and T, already admitted."""
    return as_pair(theta(pres, s_fin, t_fin, r))


def reduce_mod(x: tuple, p: int, N: int) -> tuple:
    """Each p-integral Fraction coefficient reduced mod p^N on its own."""
    q = p**N
    return tuple(Q(c).numerator * pow(Q(c).denominator, -1, q) % q for c in x)


# ---------------------------------------------------------------------------
# Conversions between Fraction tuples and the kit's forms.

def as_pair(x) -> tuple[tuple[int, ...], int]:
    """Fraction coefficients as (nums, den) over their least common denominator."""
    x = [Q(c) for c in x]
    den = math.lcm(*(c.denominator for c in x))
    return tuple(c.numerator * (den // c.denominator) for c in x), den


def as_fractions(pair) -> tuple:
    nums, den = pair
    return tuple(Q(c, den) for c in nums)


def rational_value(x: CyclotomicInt) -> Fraction:
    """The rational number x, which must lie in Q."""
    assert x.is_rational(), f"numerators {x.nums} over {x.den} are not rational"
    return Q(x.nums[0], x.den)


def cyclotomic_from_powers(n: int, powers: dict) -> Cyclotomic:
    """sum_k c_k zeta_n^k for rational c_k, exponents taken mod n."""
    powers = {k: Q(c) for k, c in powers.items()}
    den = math.lcm(*(c.denominator for c in powers.values()))
    vec = [0] * n
    for k, c in powers.items():
        vec[k % n] += c.numerator * (den // c.denominator)
    return Cyclotomic(n, vec, den)
