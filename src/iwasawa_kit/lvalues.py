"""Partial zeta values, equivariant Stickelberger elements, and the
annihilation / Fitting-membership checks against class-module data.

The group-ring route is primary: theta_{S,T}(r) = delta_T(r) . sum_sigma
zeta_S(r, sigma) sigma^(-1) as the pair (nums, den) of Q[G], integer
numerators in the basis order of groupring over one positive denominator in
lowest terms. The partial zeta values come from an integer Horner of the
cleared B_k(x), and each Euler or T-factor (1 - c sigma), c an integer, is
applied to the numerators as x - c . translate(x, sigma), never as a full
group-ring product. The character
route (S-truncated Dirichlet L-values at non-positive integers through
generalized Bernoulli numbers) is an independent cross-check. It builds each
value of Q(zeta_e) as an integer vector indexed by the exponent mod e over
one positive denominator, memoizes B_{n,chi} per character and n, applies
each Euler or delta_T factor (1 - c zeta_e^s) as shift-and-subtract, and
passes the vector and denominator to CyclotomicInt, which reduces mod Phi_e
once per character. The two routes share that value type and its normal
form, and no helper or cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from . import groupring, wire
from .abelian import (
    AbelianFieldSpec,
    CharacterTable,
    DirichletCharacter,
    FiniteAbelianGroup,
    cm_data,
    dirichlet_character,
    galois_group,
    normalize_places,
)
from .exact import (
    CyclotomicInt,
    bernoulli_polynomial,
    lowest_terms,
    padic_from_rational,
    rat_to_str,
)
from .fitting import (
    FinPresModule,
    GroupAlgebra,
    contragredient_presentation,
    minus_quotient,
)
from .numutil import factorize, is_prime, unit_residues


def _presentation(spec_or_pres):
    if isinstance(spec_or_pres, AbelianFieldSpec):
        return galois_group(spec_or_pres)
    return spec_or_pres


# ---------------------------------------------------------------------------
# Partial zeta values and Stickelberger elements.

def partial_zeta_vector(spec_or_pres, S, r: int) -> tuple[tuple[int, ...], int]:
    """sigma -> zeta_S(r, sigma) as (nums, den) in the basis order.

    Base case S = S_ram + S_oo over the conductor f:
    zeta(r, sigma_a) = sum_{b = a mod f} f^(-r) zeta(r, b/f) with
    zeta(r, x) = -B_k(x)/k, k = 1 - r. Over the least common denominator D of
    B_k(x) = sum_i c_i x^i, each term is -sum_i D c_i b^i f^(k-i) over f D k,
    so every value is an integer over that one denominator. Each extra
    unramified prime v in S applies zeta_{S+v}(s) = zeta_S(s) - Nv^(-s)
    zeta_S(s sigma_v^(-1)).
    """
    pres = _presentation(spec_or_pres)
    if r > 0:
        raise ValueError(f"partial zeta values only at r <= 0, got {r}")
    s_fin, s_inf = normalize_places(S)
    if not s_inf:
        raise ValueError("S must contain the infinite place")
    f = pres.conductor
    ram = set(factorize(f)) if f > 1 else set()
    if not ram <= s_fin:
        raise ValueError(f"S misses ramified primes {sorted(ram - s_fin)}")
    grp = pres.group
    index = groupring.basis_index(grp)
    k = 1 - r
    coeffs = bernoulli_polynomial(k)
    den = math.lcm(*(c.denominator for c in coeffs))
    cleared = [c.numerator * (den // c.denominator) for c in reversed(coeffs)]
    f_pow = [f**j for j in range(k + 1)]
    nums = [0] * grp.size
    for b in (unit_residues(f) if f > 1 else (1,)):
        acc = 0
        for j, c in enumerate(cleared):  # Horner in b: D c_i pairs with f^(k-i)
            acc = acc * b + c * f_pow[j]
        nums[index[pres.element_of(b) if f > 1 else grp.identity]] -= acc
    x = tuple(nums)
    for v in sorted(s_fin - ram):
        x = _times_one_minus(x, grp, pres.frobenius(v), v ** (-r))
    return lowest_terms(x, f * den * k)


def _times_one_minus(x: tuple, group, sigma, c: int) -> tuple:
    """(1 - c sigma) x on integer numerators."""
    return tuple(a - c * b for a, b in zip(x, groupring.translate(x, group, sigma)))


def _t_factors(pres, T, r: int) -> list:
    """(sigma_v^(-1), v^(1-r)) for each v in T: the factors of delta_T(r)."""
    t_fin, t_inf = normalize_places(T)
    if t_inf:
        raise ValueError("T must consist of finite places")
    out = []
    for v in sorted(t_fin):
        if not is_prime(v):
            raise ValueError(f"T entries must be primes, got {v}")
        frob_inv = pres.group.inv(pres.frobenius(v))  # raises for ramified v
        out.append((frob_inv, v ** (1 - r)))
    return out


@dataclass
class StickelbergerElement:
    """value is the pair (nums, den) of Q[G] in lowest terms."""

    value: tuple[tuple[int, ...], int]
    group: FiniteAbelianGroup
    spec: AbelianFieldSpec | None
    S: tuple
    T: tuple
    r: int

    def to_json(self) -> dict:
        nums, den = self.value
        return {
            "coefficients": groupring.to_json(nums, self.group, lambda c: rat_to_str(c, den)),
            "S": [str(v) for v in self.S],
            "T": [str(v) for v in self.T],
            "r": self.r,
            "spec": self.spec.to_json() if self.spec else None,
        }


def theta(spec_or_pres, S, T, r: int) -> StickelbergerElement:
    """Theta_{S,T}(r) = delta_T(r) . sum_sigma zeta_S(r, sigma) sigma^(-1)."""
    pres = _presentation(spec_or_pres)
    s_fin, _ = normalize_places(S)
    t_fin, _ = normalize_places(T)
    if s_fin & t_fin:
        raise ValueError(f"S and T must be disjoint, both contain {sorted(s_fin & t_fin)}")
    grp = pres.group
    nums, den = partial_zeta_vector(pres, S, r)
    nums = groupring.sharp(nums, grp)
    for sigma, c in _t_factors(pres, T, r):
        nums = _times_one_minus(nums, grp, sigma, c)
    return StickelbergerElement(lowest_terms(nums, den), grp, pres.spec, tuple(S), tuple(T), r)


def _denominator(theta_elem: StickelbergerElement | tuple) -> int:
    return (theta_elem.value if isinstance(theta_elem, StickelbergerElement) else theta_elem)[1]


def verify_integrality(theta_elem: StickelbergerElement | tuple) -> bool:
    return _denominator(theta_elem) == 1


def is_p_integral(theta_elem: StickelbergerElement | tuple, p: int) -> bool:
    return _denominator(theta_elem) % p != 0


# ---------------------------------------------------------------------------
# The character route: S-truncated Dirichlet L-values at r <= 0.
#
# A value in Q(zeta_e) is built as (vec, den): vec[t] is the integer
# coefficient of zeta_e^t for t mod e, den a common positive denominator.
# An Euler or delta_T factor (1 - c zeta_e^s) is a shift-and-subtract on vec;
# CyclotomicInt(e, vec, den) divides out Phi_e once per value. Nothing here
# but that value type is shared with the group-ring route above.

@lru_cache(maxsize=None)
def _bernoulli_cleared(n: int) -> tuple[int, tuple[int, ...]]:
    """(D, (D c_0, ..., D c_n)): B_n(x) = sum_k c_k x^k over its least common
    denominator D, so f^n D B_n(a/f) = sum_k D c_k a^k f^(n-k) is an integer."""
    coeffs = bernoulli_polynomial(n)
    den = math.lcm(*(c.denominator for c in coeffs))
    return den, tuple(c.numerator * (den // c.denominator) for c in coeffs)


@lru_cache(maxsize=None)
def _bernoulli_vector(key: tuple, n: int) -> tuple[tuple[int, ...], int]:
    """B_{n,chi} = f^(n-1) sum_{a=1}^{f} chi(a) B_n(a/f) as (vec, den), for
    the character with chi.key() = key (Washington, GTM 83, section 4.1)."""
    f, e, items = key
    logs = dict(items)
    den, cleared = _bernoulli_cleared(n)
    f_pow = [f**j for j in range(n + 1)]
    vec = [0] * e
    for a in range(1, f + 1):
        if f == 1:
            t = 0
        elif math.gcd(a, f) == 1:
            t = logs[a % f]
        else:
            continue
        acc = 0
        for j, c in enumerate(reversed(cleared)):  # Horner in a, c_k paired with f^(n-k)
            acc = acc * a + c * f_pow[j]
        vec[t] += acc
    return tuple(vec), f * den


def _one_minus(vec: list[int], s: int, c: int) -> list[int]:
    """(1 - c zeta_e^s) . sum_t vec[t] zeta_e^t."""
    e = len(vec)
    return [vec[i] - c * vec[(i - s) % e] for i in range(e)]


def _l_vector(chi: DirichletCharacter, s_fin, r: int) -> tuple[list[int], int]:
    """L_S(r, chi) = -B_{n,chi}/n . prod_v (1 - chi(v) v^(-r)) as (vec, den)."""
    n = 1 - r
    vec, den = _bernoulli_vector(chi.key(), n)
    vec = [-c for c in vec]
    for v in sorted(s_fin):
        if chi.conductor % v != 0 or chi.conductor == 1:
            vec = _one_minus(vec, chi.log_of(v), v ** (-r))
    return vec, den * n


def generalized_bernoulli(chi: DirichletCharacter, n: int) -> CyclotomicInt:
    """B_{n,chi} = f^(n-1) sum_{a=1}^{f} chi(a) B_n(a/f), f the conductor."""
    if n < 1:
        raise ValueError(f"generalized Bernoulli number needs n >= 1, got {n}")
    return CyclotomicInt(chi.order, *_bernoulli_vector(chi.key(), n))


def _s_finite(S, r: int) -> set[int]:
    """The finite places of S, once r <= 0 and oo in S are checked."""
    if r > 0:
        raise ValueError(f"dirichlet_l_nonpos needs r <= 0, got {r}")
    s_fin, s_inf = normalize_places(S)
    if not s_inf:
        raise ValueError("S must contain the infinite place")
    return s_fin


def dirichlet_l_nonpos(chi: DirichletCharacter, S, r: int) -> CyclotomicInt:
    """L_S(r, chi) for r <= 0: L(1-n, chi) = -B_{n,chi}/n with n = 1-r, times
    the Euler factors (1 - chi(v) v^(-r)) for finite v in S prime to the
    conductor of chi."""
    return CyclotomicInt(chi.order, *_l_vector(chi, _s_finite(S, r), r))


@lru_cache(maxsize=None)
def _characters(spec: AbelianFieldSpec) -> tuple:
    """(label, chi, contragredient of chi) for each character of Gal(L/Q)."""
    gal = galois_group(spec)
    table = CharacterTable(gal.group)
    chars = (dirichlet_character(gal, table, label) for label in table.labels)
    return tuple((label, chi, chi.contragredient()) for label, chi in zip(table.labels, chars))


def theta_character_side(spec: AbelianFieldSpec, S, T, r: int) -> dict:
    """chi-components of Theta_{S,T}(r) computed purely through L-values:
    component_chi = delta_T(r, chi) . L_S(r, contragredient chi)."""
    s_fin = _s_finite(S, r)
    t_fin, _ = normalize_places(T)
    out = {}
    for label, chi, chi_bar in _characters(spec):
        vec, den = _l_vector(chi_bar, s_fin, r)
        for v in sorted(t_fin):
            # det(1 - Nv^(1-r) sigma_v^(-1) | V_chi): chi(sigma_v^(-1)) = chi(v)^(-1)
            t = chi.log_of(v)
            if t is None:
                raise ValueError(f"T-prime {v} ramifies for a character of the field")
            vec = _one_minus(vec, -t, v ** (1 - r))
        out[label] = CyclotomicInt(chi.order, vec, den)
    return out


# ---------------------------------------------------------------------------
# Class-module data (ingested, never computed) and the membership checks.

def _mat_mul(A, B, k):
    return [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(k)] for i in range(k)]


def _mat_identity(k):
    return [[int(i == j) for j in range(k)] for i in range(k)]


def _mat_power(A, e: int, k: int):
    """A^e for e >= 0, in exact integers."""
    out = _mat_identity(k)
    for _ in range(e):
        out = _mat_mul(out, A, k)
    return out


def _mat_reduce(A, orders):
    return [[A[i][j] % orders[i] for j in range(len(orders))] for i in range(len(orders))]


@dataclass
class ClassModuleData:
    """A finite abelian group with a Galois action, supplied externally.

    orders: cyclic orders of the module; action: for each generator index of
    the acting group G, an integer matrix (column convention: generator e_j
    maps to sum_i A[i][j] e_i).
    """

    orders: tuple[int, ...]
    group_orders: tuple[int, ...]
    action: dict[int, list[list[int]]]
    provenance: str = ""

    def __post_init__(self) -> None:
        k = len(self.orders)
        if any(d < 1 for d in self.orders):
            raise ValueError("module orders must be positive")
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
        # relations of G and commutativity, mod the orders
        for t, A in self.action.items():
            power = _mat_power(A, self.group_orders[t], k)
            if _mat_reduce(power, self.orders) != _mat_reduce(_mat_identity(k), self.orders):
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

    def action_of(self, g: tuple[int, ...]) -> list[list[int]]:
        k = len(self.orders)
        out = _mat_identity(k)
        for t, e in enumerate(g):
            out = _mat_mul(out, _mat_power(self.action[t], e % self.group_orders[t], k), k)
        return out

    def theta_matrix(self, x: tuple, group: FiniteAbelianGroup) -> list[list[int]]:
        """sum_g x_g . action(g) for x = (nums, 1) in Z[G], exact integer matrix."""
        nums, den = x
        if den != 1:
            raise ValueError("annihilation needs integral coefficients")
        k = len(self.orders)
        out = [[0] * k for _ in range(k)]
        for g, c in zip(group.elements(), nums):
            if not c:
                continue
            A = self.action_of(g)
            for i in range(k):
                for j in range(k):
                    out[i][j] += c * A[i][j]
        return out

    def to_json(self) -> dict:
        return {
            "orders": list(self.orders),
            "group_orders": list(self.group_orders),
            "action": {f"g{t}": A for t, A in self.action.items()},
            "provenance": self.provenance,
        }

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


def annihilation_check(
    theta_elem: StickelbergerElement, M: ClassModuleData
) -> tuple[bool, list[list[int]]]:
    """Brumer-Stark shape: does theta act as 0 on M? Returns the verdict and
    the acting matrix (reduced mod the orders) as witness."""
    if not verify_integrality(theta_elem):
        raise ValueError("theta must have integer coefficients")
    grp = theta_elem.group
    if grp.orders != M.group_orders:
        raise ValueError(
            f"group mismatch: theta over {grp.orders}, module over {M.group_orders}"
        )
    mat = M.theta_matrix(theta_elem.value, grp)
    reduced = _mat_reduce(mat, M.orders)
    ok = all(all(c == 0 for c in row) for row in reduced)
    return ok, reduced


def minus_dual_presentation(
    spec: AbelianFieldSpec, M: ClassModuleData, p: int, N: int
) -> tuple[FinPresModule, GroupAlgebra, object]:
    """Present the Pontryagin dual of the minus p-part of M over
    (Z/p^N)[G]/(1+j).

    The p-part keeps the coordinates with p | order (same matrices, reduced);
    each group generator g acts on the dual through g^# = g^(-1), whose matrix
    in row convention is A(g^(-1)) transposed. Returns (module, group algebra,
    projection morphism).
    """
    cm = cm_data(spec)
    if cm is None:
        raise ValueError("fitting membership needs a CM field")
    if p == 2 or not is_prime(p):
        raise ValueError("fitting membership needs an odd prime")
    gal = galois_group(spec)
    if gal.group.orders != M.group_orders:
        raise ValueError("group mismatch between spec and class data")
    grp = gal.group
    k = len(M.orders)
    vals = []
    for d in M.orders:
        v = 0
        while d % p == 0:
            d //= p
            v += 1
        vals.append(v)

    alg = GroupAlgebra(p, N, grp)
    quo, proj = minus_quotient(alg, cm.j)

    def inverse_transposed(t: int) -> list[list[int]]:
        return [list(col) for col in zip(*_mat_power(M.action[t], grp.orders[t] - 1, k))]

    actions = (
        (proj.apply(alg.group_element_vector(g)), inverse_transposed(t))
        for t, g in enumerate(grp.generators())
    )
    return contragredient_presentation(quo, vals, actions), alg, proj


def fitting_membership_check(
    theta_elem: StickelbergerElement, M: ClassModuleData, p: int, N: int
) -> tuple[bool, tuple]:
    """Strong Brumer-Stark shape: theta^# in Fitt_{(Z/p^N)[G]_-}((p-part of
    M, minus)^dual)? Returns the verdict and the Howell residual as witness
    (all zero iff member)."""
    spec = theta_elem.spec
    if spec is None:
        raise ValueError("theta carries no field spec")
    # first, so that p is known to be an odd prime before is_p_integral divides by it
    dual_mod, alg, proj = minus_dual_presentation(spec, M, p, N)
    if not is_p_integral(theta_elem, p):
        raise ValueError(f"theta is not {p}-integral")
    fitt = dual_mod.fitting_ideal
    reduced = padic_from_rational(theta_elem.value, p, N)
    target = proj.apply(groupring.sharp(reduced, theta_elem.group))
    return fitt.contains_element(target), fitt.residual(target)
