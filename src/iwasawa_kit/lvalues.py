"""Partial zeta values, equivariant Stickelberger elements, and the
annihilation / Fitting-membership checks against class-module data.

The group-ring route is primary: theta_{S,T}(r) = delta_T(r) . sum_sigma
zeta_S(r, sigma) sigma^(-1) as the pair (nums, den) of Q[G]. theta_places
admits r <= 0 and the (S, T) rules (abelian.admissible_places) once, on the
spec, before the Galois group is looked up or built; theta_value, which
theta and each tower level call, takes a presentation and the admitted
finite primes and checks nothing again. The value has integer
numerators in the basis order of groupring over one positive denominator
in lowest terms. The partial zeta values are read in the # order from a
table per presentation and k = 1 - r: the integer Horner values of the
cleared B_k(x), built once per (f, k), each added at the basis index of the
inverse of the class that unit_classes gives its residue. Under # each
Euler factor of an unramified prime of S and each T-factor is the same
pass x_g - c x_(sigma_v g), c an integer, never a full group-ring product,
and lowest_terms runs once at the end. The character route (S-truncated
Dirichlet L-values at non-positive integers through generalized Bernoulli
numbers) is an independent cross-check. It admits r and (S, T) through theta_places, and
builds each value of Q(zeta_e) as an integer vector indexed by the exponent
mod e over one denominator. Its characters are primitivized from their
labels by abelian.dirichlet_character, with no CharacterTable. B_{n,chi}
buckets the Horner values f^n D B_n(a/f), built once per (f, n), by the log
of chi(a); the L-values of a field's characters are one table per (spec, n).
Each Euler or delta_T factor (1 - c zeta_e^s) is a shift-and-subtract, a zero
L-value takes none, and the vector and denominator go to CyclotomicInt,
which folds them into its normal form once per character. It classifies
residues through element_of; only the group-ring route reads unit_classes.
The two routes share that value type and its normal form, and no helper or
cache.

Class data are ingested. verify_case admits a verify case once, cheap rules
first (r and the places, p, the size of the field's group, all before any
Galois group is built), and returns theta, the minus dual and theta^#; the
annihilation and Fitting checks only compute on what it admitted. theta acts
on class data through one walk of the group, one generator product per
element. minus_dual_presentation writes the dual of their minus p-part
straight from the action matrices (fitting.pontryagin_dual, the kernel
route, is its test oracle).
"""

from __future__ import annotations

import math
from functools import lru_cache

from . import groupring, wire
from .abelian import (
    AbelianFieldSpec,
    DirichletCharacter,
    FiniteAbelianGroup,
    admissible_places,
    cm_data,
    dirichlet_character,
    galois_group,
)
from .exact import (
    CyclotomicInt,
    bernoulli_polynomial,
    lowest_terms,
    padic_from_rational,
    rat_to_str,
)
from .fitting import FinPresModule, GroupAlgebra, minus_quotient
from .numutil import euler_phi, is_prime


def theta_places(spec: AbelianFieldSpec, S, T, r: int) -> tuple[set[int], set[int]]:
    """The finite primes (s_fin, t_fin) of S and T once r <= 0 and the
    places fit theta (abelian.admissible_places), read from the spec's
    conductor before any Galois group is looked up or built."""
    if r > 0:
        raise ValueError(f"partial zeta values only at r <= 0, got {r}")
    return admissible_places(spec, S, T)


# ---------------------------------------------------------------------------
# Partial zeta values and Stickelberger elements.
#
# For S = S_ram + S_oo over the conductor f, zeta(r, sigma_a) = sum_{b = a mod f}
# f^(-r) zeta(r, b/f) with zeta(r, x) = -B_k(x)/k, k = 1 - r: over the common
# denominator D of B_k(x) = sum_i c_i x^i, each term is -sum_i D c_i b^i f^(k-i)
# over f D k. Under # an Euler factor (1 - Nv^(-r) sigma_v), v unramified in S,
# and a T-factor (1 - Nv^(1-r) sigma_v^(-1)) are both x_g - c x_(sigma_v g).

@lru_cache(maxsize=None)
def _zeta_numerators(f: int, k: int) -> tuple[int, tuple[int, ...]]:
    """(D, (-f^k D B_k(b/f), ...)) for each unit residue b of Z/f ascending
    (b = 1 at f = 1), the order of a presentation's unit_classes: an integer
    Horner in b over the least common denominator D of B_k(x), once per
    (f, k). The group-ring route's own table; the character route keeps its
    Bernoulli values apart."""
    coeffs = bernoulli_polynomial(k)
    den = math.lcm(*(c.denominator for c in coeffs))
    cleared = [c.numerator * (den // c.denominator) for c in reversed(coeffs)]
    f_pow = [f**j for j in range(k + 1)]
    values = []
    for b in range(1, f + 1):
        if math.gcd(b, f) == 1:
            acc = 0
            for j, c in enumerate(cleared):  # Horner in b: D c_i pairs with f^(k-i)
                acc = acc * b + c * f_pow[j]
            values.append(-acc)
    return den, tuple(values)


@lru_cache(maxsize=None)
def _zeta_table(pres, k: int) -> tuple[tuple[int, ...], int]:
    """sum_sigma zeta(1 - k, sigma) sigma^(-1) for S = S_ram + S_oo as (nums,
    den), not in lowest terms: each value of _zeta_numerators(f, k) added at
    the basis index of the inverse of its unit class, once per presentation
    and k."""
    den, values = _zeta_numerators(pres.conductor, k)
    inverse = groupring.inversion(pres.group)
    nums = [0] * pres.group.size
    for (_, i), value in zip(pres.unit_classes, values, strict=True):
        nums[inverse[i]] += value
    return tuple(nums), pres.conductor * den * k


class StickelbergerElement:
    """value is the pair (nums, den) of Q[G] in lowest terms."""

    def __init__(self, value: tuple[tuple[int, ...], int], group: FiniteAbelianGroup,
                 spec: AbelianFieldSpec, S: tuple, T: tuple, r: int) -> None:
        self.value, self.group, self.spec, self.S, self.T, self.r = value, group, spec, S, T, r

    def to_json(self) -> dict:
        nums, den = self.value
        return {
            "coefficients": groupring.to_json(nums, self.group, lambda c: rat_to_str(c, den)),
            "S": [str(v) for v in self.S],
            "T": [str(v) for v in self.T],
            "r": self.r,
            "spec": self.spec.to_json(),
        }


def theta_value(pres, s_fin, t_fin, r: int) -> tuple[tuple[int, ...], int]:
    """Theta_{S,T}(r) = delta_T(r) . sum_sigma zeta_S(r, sigma) sigma^(-1) as
    (nums, den) on a presentation, for the finite primes (s_fin, t_fin) that
    theta_places admitted; nothing is checked again. From _zeta_table, each
    unramified prime v of S (c = v^(-r)) and each prime v of T (c = v^(1-r))
    is one pass x_g - c x_(sigma_v g), and lowest_terms runs once."""
    f, grp = pres.conductor, pres.group
    nums, den = _zeta_table(pres, 1 - r)
    factors = [(v, v ** (-r)) for v in sorted(s_fin) if f % v]
    factors += [(v, v ** (1 - r)) for v in sorted(t_fin)]
    for v, c in factors:
        step = groupring.translation(grp, pres.frobenius(v))
        nums = [a - c * nums[j] for a, j in zip(nums, step)]
    return lowest_terms(nums, den)


def theta(spec: AbelianFieldSpec, S, T, r: int) -> StickelbergerElement:
    """Theta_{S,T}(r) of the spec: r and the places are admitted once
    (theta_places) before its Galois group is looked up or built."""
    return _theta(spec, S, T, r, *theta_places(spec, S, T, r))


def _theta(spec, S, T, r, s_fin, t_fin) -> StickelbergerElement:
    pres = galois_group(spec)
    value = theta_value(pres, s_fin, t_fin, r)
    return StickelbergerElement(value, pres.group, spec, tuple(S), tuple(T), r)


def verify_integrality(theta_elem: StickelbergerElement) -> bool:
    return theta_elem.value[1] == 1


def is_p_integral(value: tuple[tuple[int, ...], int], p: int) -> bool:
    return value[1] % p != 0


# ---------------------------------------------------------------------------
# The character route: S-truncated Dirichlet L-values at r <= 0.
#
# A value in Q(zeta_e) is built as (vec, den): vec[t] is the integer
# coefficient of zeta_e^t for t mod e, den a common nonzero denominator.
# The L-values L(r, chi_bar) of a field's characters are one table per
# (spec, n = 1 - r). An Euler or delta_T factor (1 - c zeta_e^s) is a
# shift-and-subtract on vec, and a zero L-value takes none;
# CyclotomicInt(e, vec, den) folds each value into its normal form once.
# Nothing here but that value type is shared with the group-ring route above.

@lru_cache(maxsize=None)
def _bernoulli_cleared(n: int) -> tuple[int, tuple[int, ...]]:
    """(D, (D c_0, ..., D c_n)): B_n(x) = sum_k c_k x^k over its least common
    denominator D, so f^n D B_n(a/f) = sum_k D c_k a^k f^(n-k) is an integer."""
    coeffs = bernoulli_polynomial(n)
    den = math.lcm(*(c.denominator for c in coeffs))
    return den, tuple(c.numerator * (den // c.denominator) for c in coeffs)


@lru_cache(maxsize=None)
def _bernoulli_terms(f: int, n: int) -> tuple[tuple[int, int], ...]:
    """(a mod f, f^n D B_n(a/f)) for each a in 1..f prime to f, D the
    denominator of _bernoulli_cleared(n): an integer Horner in a, once per
    (f, n) and shared by every character of conductor f."""
    _, cleared = _bernoulli_cleared(n)
    f_pow = [f**j for j in range(n + 1)]
    out = []
    for a in range(1, f + 1):
        if math.gcd(a, f) == 1:
            acc = 0
            for j, c in enumerate(reversed(cleared)):  # c_k pairs with f^(n-k)
                acc = acc * a + c * f_pow[j]
            out.append((a % f, acc))
    return tuple(out)


def _bernoulli_vector(chi: DirichletCharacter, n: int) -> tuple[tuple[int, ...], int]:
    """B_{n,chi} = f^(n-1) sum_{a=1}^{f} chi(a) B_n(a/f) as (vec, den)
    (Washington, GTM 83, section 4.1): the terms of _bernoulli_terms(f, n)
    bucketed by the log of chi(a)."""
    logs = chi.logs or {0: 0}  # the trivial character of conductor 1
    vec = [0] * chi.order
    for b, value in _bernoulli_terms(chi.conductor, n):
        vec[logs[b]] += value
    return tuple(vec), chi.conductor * _bernoulli_cleared(n)[0]


def _one_minus(vec, s: int, c: int) -> list[int]:
    """(1 - c zeta_e^s) . sum_t vec[t] zeta_e^t for -e < s < e: vec less c
    times vec shifted up by s."""
    return [a - c * b for a, b in zip(vec, vec[-s:] + vec[:-s])]


@lru_cache(maxsize=None)
def _characters(spec: AbelianFieldSpec) -> tuple:
    """(label, chi, contragredient of chi) for each character of Gal(L/Q),
    labels in the order of the group's elements."""
    gal = galois_group(spec)
    chars = ((label, dirichlet_character(gal, label)) for label in gal.group.elements())
    return tuple((label, chi, chi.contragredient()) for label, chi in chars)


@lru_cache(maxsize=None)
def _l_table(spec: AbelianFieldSpec, n: int) -> tuple:
    """(label, chi, chi_bar, vec, den) for each character of Gal(L/Q), chi_bar
    its contragredient: L(1 - n, chi_bar) = -B_{n,chi_bar}/n = vec/den, the
    vector of B_{n,chi_bar} over a negative den."""
    rows = []
    for label, chi, chi_bar in _characters(spec):
        vec, den = _bernoulli_vector(chi_bar, n)
        rows.append((label, chi, chi_bar, vec, -den * n))
    return tuple(rows)


def theta_character_side(spec: AbelianFieldSpec, S, T, r: int) -> dict:
    """chi-components of Theta_{S,T}(r) computed purely through L-values:
    component_chi = delta_T(r, chi) . L_S(r, contragredient chi), L_S(r, chi)
    = L(r, chi) prod_v (1 - chi(v) v^(-r)) over the primes of S that do not
    divide the conductor of chi. r and the places are admitted first by
    theta's check (theta_places), so no prime of T divides a character's
    conductor. A zero L-value takes no factor."""
    s_fin, t_fin = theta_places(spec, S, T, r)
    euler = [(v, v ** (-r)) for v in sorted(s_fin)]
    t_factors = [(v, v ** (1 - r)) for v in sorted(t_fin)]
    out = {}
    for label, chi, chi_bar, vec, den in _l_table(spec, 1 - r):
        if any(vec):
            for v, c in euler:
                if chi_bar.conductor % v:
                    vec = _one_minus(vec, chi_bar.log_of(v), c)
            for v, c in t_factors:
                # det(1 - Nv^(1-r) sigma_v^(-1) | V_chi): chi(sigma_v^(-1)) = chi(v)^(-1)
                vec = _one_minus(vec, -chi.log_of(v), c)
        out[label] = CyclotomicInt(chi.order, vec, den)
    return out


# ---------------------------------------------------------------------------
# Class-module data (ingested, never computed) and the membership checks.

def _mat_mul(A, B, k):
    return [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(k)] for i in range(k)]


def _mat_identity(k):
    return [[int(i == j) for j in range(k)] for i in range(k)]


def _mat_reduce(A, orders):
    return [[A[i][j] % orders[i] for j in range(len(orders))] for i in range(len(orders))]


def _mat_power(A, e: int, orders):
    """A^e mod orders for e >= 0, by squaring. A must be well defined mod
    orders (orders[j] A[i][j] = 0 mod orders[i]); then so is each power, and
    reducing row i of a factor mod orders[i] moves a product only by
    multiples of orders[i] in row i, so reducing after each product is exact."""
    k = len(orders)
    out, base = _mat_reduce(_mat_identity(k), orders), _mat_reduce(A, orders)
    while e:
        if e & 1:
            out = _mat_reduce(_mat_mul(out, base, k), orders)
        e >>= 1
        if e:
            base = _mat_reduce(_mat_mul(base, base, k), orders)
    return out


class ClassModuleData:
    """A finite abelian group with a Galois action, supplied externally.

    orders: cyclic orders of the module; action: for each generator index of
    the acting group G, an integer matrix (column convention: generator e_j
    maps to sum_i A[i][j] e_i).
    """

    def __init__(self, orders: tuple[int, ...], group_orders: tuple[int, ...],
                 action: dict[int, list[list[int]]], provenance: str = "") -> None:
        self.orders, self.group_orders = orders, group_orders
        self.action, self.provenance = action, provenance
        k = len(self.orders)
        if any(d < 1 for d in self.orders):
            raise ValueError("module orders must be positive")
        if any(o < 1 for o in self.group_orders):
            raise ValueError("group orders must be positive")
        if set(self.action) != set(range(len(self.group_orders))):
            raise ValueError("need one action matrix per group generator")
        for t, A in self.action.items():
            if len(A) != k or any(len(row) != k for row in A):
                raise ValueError(f"action matrix g{t} must be {k}x{k}")
            for i in range(k):
                for j in range(k):
                    if (self.orders[j] * A[i][j]) % self.orders[i]:
                        raise ValueError(
                            f"action matrix g{t} is not well defined mod orders"
                        )
        # relations of G (powers need the check above) and commutativity, mod the orders
        one = _mat_reduce(_mat_identity(k), self.orders)
        for t, A in self.action.items():
            if _mat_power(A, self.group_orders[t], self.orders) != one:
                raise ValueError(f"action matrix g{t} violates the generator order")
        for t1 in self.action:
            for t2 in self.action:
                AB = _mat_mul(self.action[t1], self.action[t2], k)
                BA = _mat_mul(self.action[t2], self.action[t1], k)
                if _mat_reduce(AB, self.orders) != _mat_reduce(BA, self.orders):
                    raise ValueError("action matrices do not commute")

    @property
    def size(self) -> int:
        out = 1
        for d in self.orders:
            out *= d
        return out

    def theta_matrix(self, nums: tuple) -> list[list[int]]:
        """sum_g nums_g . action(g) for nums in Z[G], G of the group_orders,
        an integer matrix equal mod the orders to the exact sum. One walk of
        the group in the basis order (the last coordinate runs fastest):
        prefix[t] is the action of the first t coordinates of g, so each step
        multiplies the prefix of the coordinate it advances by that
        generator's matrix once and reduces it mod the orders (exact, as in
        _mat_power)."""
        k, orders = len(self.orders), self.group_orders
        gens = [_mat_reduce(self.action[t], self.orders) for t in range(len(orders))]
        prefix = [_mat_reduce(_mat_identity(k), self.orders)] * (len(orders) + 1)
        digits = [0] * len(orders)
        out = [[0] * k for _ in range(k)]
        for c in nums:
            if c:
                A = prefix[-1]
                for i in range(k):
                    for j in range(k):
                        out[i][j] += c * A[i][j]
            t = len(orders) - 1  # the coordinate the walk advances
            while t >= 0 and digits[t] == orders[t] - 1:
                digits[t] = 0
                t -= 1
            if t < 0:
                break
            digits[t] += 1
            step = _mat_reduce(_mat_mul(prefix[t + 1], gens[t], k), self.orders)
            prefix[t + 1:] = [step] * (len(orders) - t)
        return out

    @classmethod
    def from_json(cls, obj) -> "ClassModuleData":
        """Parse class data under the wire rule; an action key other than
        g<index> is a wire.SchemaError too, an ill-defined action (a wrong
        matrix size included) ValueError."""
        data = wire.node(obj, "class data")
        action = {}
        for key, mat in data["action"].items():
            if not (key[:1] == "g" and key[1:].isdigit()):
                raise mat.fail(f"action keys must be g<index>, got {key!r}")
            action[key] = [list(row.ints()) for row in mat.list()]
        orders, group_orders = data["orders"].ints(), data["group_orders"].ints()
        provenance = data.get("provenance", "").str()
        generators = {f"g{t}": t for t in range(len(group_orders))}
        if not action.keys() <= generators.keys():
            raise ValueError("need one action matrix per group generator")
        return cls(orders, group_orders, {generators[k]: A for k, A in action.items()}, provenance)


def verify_case(
    spec: AbelianFieldSpec, S, T, r: int, M: ClassModuleData, p: int, N: int
) -> tuple[StickelbergerElement, FinPresModule, tuple]:
    """Admit a verify case once, cheap rules first, and return (theta, the
    minus dual of M over (Z/p^N)[G]/(1+j), theta^# mod p^N in that algebra).
    The rules, in order: r and the places (theta_places); p an odd prime;
    the field's group of size [(Z/m)^x : H] = phi(m)/|H| as the module's,
    read off the spec before any Galois group is built; then theta integral
    (so p-integral); its group's orders the module's; the field CM; N >= 1
    (GroupAlgebra). Nothing after it checks these again."""
    s_fin, t_fin = theta_places(spec, S, T, r)
    if p == 2 or not is_prime(p):
        raise ValueError("fitting membership needs an odd prime")
    size, module_size = euler_phi(spec.modulus) // len(spec.fixing), math.prod(M.group_orders)
    if size != module_size:
        raise ValueError(
            f"group mismatch: the field's group has order {size}, the module's {module_size}"
        )
    th = _theta(spec, S, T, r, s_fin, t_fin)
    if not verify_integrality(th):
        raise ValueError("theta must have integer coefficients")
    if th.group.orders != M.group_orders:
        raise ValueError(
            f"group mismatch: theta over {th.group.orders}, module over {M.group_orders}"
        )
    if cm_data(spec) is None:
        raise ValueError("fitting membership needs a CM field")
    dual, proj = minus_dual_presentation(spec, M, p, N)
    target = proj.apply(groupring.sharp(padic_from_rational(th.value, p, N), th.group))
    return th, dual, target


def annihilation_check(
    theta_elem: StickelbergerElement, M: ClassModuleData
) -> tuple[bool, list[list[int]]]:
    """Brumer-Stark shape: does theta, admitted by verify_case, act as 0 on
    M? Returns the verdict and the acting matrix (reduced mod the orders) as
    witness."""
    reduced = _mat_reduce(M.theta_matrix(theta_elem.value[0]), M.orders)
    ok = all(all(c == 0 for c in row) for row in reduced)
    return ok, reduced


def minus_dual_presentation(
    spec: AbelianFieldSpec, M: ClassModuleData, p: int, N: int
) -> tuple[FinPresModule, object]:
    """Present the Pontryagin dual of the minus p-part of M over
    (Z/p^N)[G]/(1+j), for a case verify_case admits. Returns (module,
    projection morphism).

    One generator f_a (f_a(e_s) = delta_as / p^v_a) for each coordinate a
    whose order has p-part p^v_a > 1. As (b.f)(m) = f(b^# m), and g_t^(-1)
    has # = g_t, the relations are p^v_a f_a and g_t^(-1) f_a -
    sum_s A_t[a][s] p^(v_s - v_a) f_s, with integer coefficients: p^v_a
    divides p^v_s A_t[a][s], as ClassModuleData refuses an action that is
    not well defined mod the orders.
    """
    grp = galois_group(spec).group
    alg = GroupAlgebra(p, N, grp)
    quo, proj = minus_quotient(alg, cm_data(spec).j)
    ppart = [math.gcd(d, p ** d.bit_length()) for d in M.orders]  # p^v divides d < p^bits
    keep = [a for a, pa in enumerate(ppart) if pa > 1]
    zero, one = quo.zero(), quo.one
    relations = [[quo.scalar(ppart[a] if s == a else 0, one) for s in keep] for a in keep]
    for t, g in enumerate(grp.generators()):
        g_inv, A = proj.apply(alg.group_element_vector(grp.inv(g))), M.action[t]
        relations += [[quo.sub(g_inv if s == a else zero,
                               quo.scalar(A[a][s] * ppart[s] // ppart[a], one)) for s in keep]
                      for a in keep]
    return FinPresModule(quo, len(keep), relations), proj


def fitting_membership_check(dual: FinPresModule, target: tuple) -> tuple[bool, tuple]:
    """Strong Brumer-Stark shape: is target, the theta^# of verify_case, in
    the Fitting ideal of the dual of the minus p-part of M? Returns the
    verdict and the Howell residual as witness (all zero iff member)."""
    fitt = dual.fitting_ideal
    return fitt.contains_element(target), fitt.residual(target)
