"""Abelian fields over Q as class-field data.

A field L/Q is pinned by a modulus m and a fixing subgroup H of (Z/m)^x: L is
the fixed field of H inside Q(zeta_m), so Gal(L/Q) = (Z/m)^x / H, presented
once by GaloisData: a FiniteAbelianGroup, the class of each unit residue,
the table of basis indices of the unit classes mod the conductor, Frobenius
and the conductor; galois_group uses invariant-factor coordinates,
TowerLevelData the product G x Z/p^n of a tower layer. This module also
computes CM structure (complex conjugation j and the idempotents e_r), roots
of unity, cyclotomic-tower layers, the one statement of theta's (S, T) rules
(admissible_places, read off the conductor) with the Hyp(S,T) test (those
rules, then roots_of_unity_rule), the character table with exact
decomposition/reconstruction (its logs cached per group), and the primitive
Dirichlet character of a label (the kernels and CRT lifts it reads cached
per conductor). The presentation, CM structure, ramified primes and w_L are
cached per spec. The elements of Q[G]
(the CM idempotents, the input of decompose and the output of reconstruct)
are pairs (nums, den) of integer numerators in the basis order of groupring
over one positive denominator, in lowest terms.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from . import wire
from .exact import CyclotomicInt, lowest_terms, teichmuller
from .groupring import basis_index, linear_form, translate
from .linalg import smith_normal_form
from .numutil import (
    crt_lift,
    divisors,
    factorize,
    is_prime,
    unit_group_generators,
    unit_residues,
)

INFINITE_PLACE = "oo"


# ---------------------------------------------------------------------------
# Finite abelian groups with exponent-vector elements.

class FiniteAbelianGroup:
    """Product of cyclic groups; elements are exponent tuples, lex-ordered.

    galois_group always produces the invariant-factor form (orders dividing
    successively); tower layers use the product form H x Z/p^n. Two groups
    with the same orders are equal, so caches key on the orders.
    """

    def __init__(self, orders: tuple[int, ...]) -> None:
        if any(d < 1 for d in orders):
            raise ValueError(f"cyclic orders must be positive, got {orders}")
        self.orders = orders

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteAbelianGroup):
            return NotImplemented
        return self.orders == other.orders

    def __hash__(self) -> int:
        return hash(self.orders)

    @property
    def size(self) -> int:
        return math.prod(self.orders)

    @property
    def identity(self) -> tuple[int, ...]:
        return (0,) * len(self.orders)

    @property
    def exponent(self) -> int:
        return math.lcm(*self.orders) if self.orders else 1

    def reduce(self, g) -> tuple[int, ...]:
        return tuple(e % d for e, d in zip(g, self.orders))

    def mul(self, g, h) -> tuple[int, ...]:
        return tuple((a + b) % d for a, b, d in zip(g, h, self.orders))

    def inv(self, g) -> tuple[int, ...]:
        return tuple((-a) % d for a, d in zip(g, self.orders))

    def elements(self):
        return itertools.product(*(range(d) for d in self.orders))

    def generators(self) -> list[tuple[int, ...]]:
        n = len(self.orders)
        return [tuple(int(i == j) for j in range(n)) for i in range(n)]


# ---------------------------------------------------------------------------
# Field specifications.

class AbelianFieldSpec:
    """The fixed field of `fixing` inside Q(zeta_modulus); specs with the same
    modulus, fixing subgroup and label are equal."""

    def __init__(self, modulus: int, fixing, label: str = "") -> None:
        m = modulus
        if m < 1:
            raise ValueError(f"modulus must be >= 1, got {m}")
        fix = frozenset(a % m for a in fixing)
        if any(math.gcd(a, m) != 1 for a in fix):
            raise ValueError(f"fixing subgroup {sorted(fix)} not inside (Z/{m})^x")
        if (1 % m) not in fix:
            raise ValueError("fixing subgroup must contain 1")
        span = {1 % m}  # grown inside fix by each a of fix; at the end span = fix
        for a in fix:
            if a not in span:
                block, power = list(span), a
                while power not in span:  # span <a> = span, a span, a^2 span, ...
                    coset = {power * b % m for b in block}
                    if not coset <= fix:
                        raise ValueError("fixing set is not closed under multiplication")
                    span |= coset
                    power = power * a % m
        self.modulus, self.fixing, self.label = m, fix, label

    def __eq__(self, other) -> bool:
        if not isinstance(other, AbelianFieldSpec):
            return NotImplemented
        return (self.modulus, self.fixing, self.label) == (other.modulus, other.fixing, other.label)

    def __hash__(self) -> int:
        return hash((self.modulus, self.fixing, self.label))

    @classmethod
    def cyclotomic(cls, m: int, label: str = "") -> "AbelianFieldSpec":
        if m < 1:
            raise ValueError(f"cyclotomic field needs m >= 1, got {m}")
        return cls(m, frozenset({1 % m}), label or f"Q(zeta_{m})")

    @classmethod
    def rationals(cls) -> "AbelianFieldSpec":
        return cls(1, frozenset({0}), "Q")

    def to_json(self) -> dict:
        return {
            "modulus": self.modulus,
            "fixing": sorted(self.fixing),
            "label": self.label,
        }

    @classmethod
    def from_json(cls, obj) -> "AbelianFieldSpec":
        """The inverse of to_json under the wire rule (wire.SchemaError); a
        fixing set that is not a subgroup raises ValueError."""
        spec = wire.node(obj, "spec")
        return cls(
            spec["modulus"].int(),
            frozenset(spec["fixing"].ints()),
            spec.get("label", "").str(),
        )


@lru_cache(maxsize=None)
def conductor(spec: AbelianFieldSpec) -> tuple[int, frozenset[int]]:
    """Minimal modulus f with L inside Q(zeta_f), plus the image fixing subgroup."""
    m = spec.modulus
    for f in divisors(m):
        # the kernel of (Z/m)^x -> (Z/f)^x: the units among 1, 1 + f, ... below m
        if all(a in spec.fixing for a in range(1, m, f) if math.gcd(a, m) == 1):
            return f, frozenset(a % f for a in spec.fixing)
    raise AssertionError("conductor search failed")  # f = m always works


@lru_cache(maxsize=None)
def ramified_primes(spec: AbelianFieldSpec) -> frozenset[int]:
    """The primes dividing the conductor, factored once per spec."""
    f, _ = conductor(spec)
    return frozenset(factorize(f)) if f > 1 else frozenset()


# ---------------------------------------------------------------------------
# The Galois group with its Frobenius map.

class GaloisData:
    """Gal(L/Q) = (Z/m)^x / H presented by a FiniteAbelianGroup and a map
    classifying each unit residue mod m into it.

    element_of(a) is defined for every integer a coprime to the conductor
    (residues coprime to m directly; others through the CRT lift, well defined
    by the conductor property). frobenius rejects ramified primes.
    unit_classes lists (b, basis index of the class of b) for each unit
    residue b mod the conductor, in order of b ((1, 0) alone at conductor 1).
    """

    # how the refusals of element_of and frobenius name f and the field
    conductor_name = "conductor"
    field_name = "the field of conductor {conductor}"

    def __init__(self, spec: AbelianFieldSpec, group: FiniteAbelianGroup, classify):
        self.spec = spec
        self.group = group
        self.conductor, _ = conductor(spec)
        m = spec.modulus
        self._elt = {a: classify(a) for a in unit_residues(m)}
        self.representatives: dict[tuple[int, ...], int] = {}
        for a, g in self._elt.items():
            self.representatives.setdefault(g, a if m > 1 else 1)
        if len(self.representatives) != group.size:
            raise AssertionError("element map is not onto the group")
        f, index = self.conductor, basis_index(group)
        self.unit_classes: tuple[tuple[int, int], ...] = (
            tuple(sorted({a % f: index[g] for a, g in self._elt.items()}.items()))
            if f > 1 else ((1, 0),)
        )

    def element_of(self, a: int) -> tuple[int, ...]:
        """Class of a in Gal(L/Q); a must be coprime to the conductor."""
        m = self.spec.modulus
        f = self.conductor
        if math.gcd(a, f) != 1 and f > 1:
            raise ValueError(f"{a} is not coprime to the {self.conductor_name} {f}")
        r = a % m if m > 1 else 0
        if r in self._elt:
            return self._elt[r]
        # a shares a factor with m but not with f: lift off the extra primes.
        return self._elt[crt_lift(a, f, m)]

    def frobenius(self, ell: int) -> tuple[int, ...]:
        if not is_prime(ell):
            raise ValueError(f"frobenius expects a prime, got {ell}")
        if self.conductor % ell == 0 and self.conductor > 1:
            raise ValueError(f"{ell} ramifies in {self.field_name.format_map(vars(self))}")
        return self.element_of(ell)


def _dlog_table(m: int, gens) -> dict[int, tuple[int, ...]]:
    one = 1 % m
    table = {one: (0,) * len(gens)}
    frontier = [one]
    while frontier:
        nxt = []
        for a in frontier:
            x = table[a]
            for i, (g, d) in enumerate(gens):
                b = (a * g) % m
                if b not in table:
                    table[b] = tuple(
                        (e + 1) % d if j == i else e for j, e in enumerate(x)
                    )
                    nxt.append(b)
        frontier = nxt
    assert len(table) == len(unit_residues(m))
    return table


@lru_cache(maxsize=None)
def galois_group(spec: AbelianFieldSpec) -> GaloisData:
    """Gal(L/Q) in invariant-factor coordinates: the Smith form of the
    relations of H on the generators of (Z/m)^x."""
    m = spec.modulus
    gens = unit_group_generators(m)
    dlog = _dlog_table(m, gens)
    rows = [[gens[i][1] if j == i else 0 for j in range(len(gens))] for i in range(len(gens))]
    rows += [list(dlog[h]) for h in sorted(spec.fixing)]
    diag, V = smith_normal_form(rows, len(gens))
    keep = [j for j, d in enumerate(diag) if d != 1]
    if any(diag[j] == 0 for j in keep):
        raise AssertionError("quotient of a finite group cannot be infinite")

    def classify(a: int) -> tuple[int, ...]:
        x = dlog[a]
        return tuple(sum(x[i] * V[i][j] for i in range(len(x))) % diag[j] for j in keep)

    return GaloisData(spec, FiniteAbelianGroup(tuple(diag[j] for j in keep)), classify)


# ---------------------------------------------------------------------------
# CM structure.

class CMStructure:
    def __init__(self, group: FiniteAbelianGroup, j: tuple[int, ...], e_plus: tuple,
                 e_minus: tuple) -> None:
        self.group, self.j, self.e_plus, self.e_minus = group, j, e_plus, e_minus

    def e_r(self, r: int) -> tuple:
        """The idempotent (1 - (-1)^r j)/2: e_minus for even r, e_plus for odd."""
        return self.e_minus if r % 2 == 0 else self.e_plus


@lru_cache(maxsize=None)
def cm_data(spec: AbelianFieldSpec) -> CMStructure | None:
    """CM structure of L, or None when L is totally real (-1 in fixing)."""
    m = spec.modulus
    if (-1) % m in spec.fixing or m <= 2:
        return None
    gal = galois_group(spec)
    j = gal.element_of(-1 % m)
    grp = gal.group
    one = tuple(int(g == grp.identity) for g in grp.elements())
    jj = translate(one, grp, j)
    e_plus = lowest_terms([a + b for a, b in zip(one, jj)], 2)
    e_minus = lowest_terms([a - b for a, b in zip(one, jj)], 2)
    return CMStructure(grp, j, e_plus, e_minus)


@lru_cache(maxsize=None)
def roots_of_unity_order(spec: AbelianFieldSpec) -> int:
    """w_L: the largest k with Q(zeta_k) inside L."""
    m = spec.modulus
    best = 1
    for k in divisors(2 * m):
        if k % 4 == 2 and (k // 2) % 2 == 1 and m % (k // 2) == 0:
            kp = k // 2  # zeta_k = -zeta_kp, fixed iff h = 1 mod kp
        elif m % k == 0:
            kp = k
        else:
            continue
        if all((h - 1) % kp == 0 for h in spec.fixing) or kp == 1:
            best = max(best, k)
    return best


# ---------------------------------------------------------------------------
# Layers of the cyclotomic Z_p-tower.

def layer(spec: AbelianFieldSpec, p: int, n: int) -> AbelianFieldSpec:
    """The n-th layer L_n = L.Q_n inside Q(zeta_{m' p^(n+1)}), m' the
    modulus with its factor p (if any) stripped. Requires p odd and
    v_p(modulus) <= 1, so that L and the tower are linearly disjoint
    (Gal(L_n/Q) = G x Z/p^n); tower.tower_preconditions admits both.
    """
    mprime = spec.modulus // p if spec.modulus % p == 0 else spec.modulus
    q = p ** (n + 1)
    big = mprime * q
    torsion = {pow(x, p**n, q) for x in unit_residues(q)}
    fixing = frozenset(
        x
        for x in unit_residues(big)
        if (x % spec.modulus if spec.modulus > 1 else 0) in spec.fixing
        and x % q in torsion
    )
    lbl = spec.label or f"m{spec.modulus}"
    return AbelianFieldSpec(big, fixing, f"{lbl}.layer({p},{n})")


# ---------------------------------------------------------------------------
# Hyp(S, T).

def normalize_places(S) -> tuple[set[int], bool]:
    """Split a place list into (finite primes, has infinite place)."""
    finite: set[int] = set()
    has_inf = False
    for v in S:
        if v == INFINITE_PLACE:
            has_inf = True
        elif isinstance(v, int) and is_prime(v):
            finite.add(v)
        else:
            raise ValueError(f"malformed place {v!r}")
    return finite, has_inf


class PlacesError(ValueError):
    """(S, T) breaks a rule of admissible_places."""


def admissible_places(spec: AbelianFieldSpec, S, T) -> tuple[set[int], set[int]]:
    """The finite primes (s_fin, t_fin) of S and T once the places fit theta:
    T holds only finite places, S holds the infinite place and every prime
    ramified in L, and S and T are disjoint. Raises PlacesError at the first
    rule broken, in that order, and ValueError for a malformed place. Reads
    the spec's conductor only, never its Galois group."""
    s_fin, s_inf = normalize_places(S)
    t_fin, t_inf = normalize_places(T)
    if t_inf:
        raise PlacesError("T must consist of finite places")
    if not s_inf:
        raise PlacesError("S must contain the infinite place")
    ram = ramified_primes(spec)
    if not ram <= s_fin:
        raise PlacesError(f"S misses ramified primes {sorted(ram - s_fin)}")
    if s_fin & t_fin:
        raise PlacesError(f"S and T meet at {sorted(s_fin & t_fin)}")
    return s_fin, t_fin


def roots_of_unity_rule(spec: AbelianFieldSpec, t_fin) -> tuple[bool, str]:
    """The roots-of-unity half of Hyp(S,T): no nontrivial root of unity of L
    is 1 mod every prime of t_fin, as (verdict, reason).

    It holds iff every prime ell dividing w_L sees some v in t_fin of residue
    characteristic != ell (mu_ell injects into residue fields away from ell).
    """
    w = roots_of_unity_order(spec)
    for ell in factorize(w):
        if not any(v != ell for v in t_fin):
            return False, f"every prime of T has residue characteristic {ell} | w_L = {w}"
    return True, "ok"


def check_hyp(spec: AbelianFieldSpec, S, T) -> tuple[bool, str]:
    """Hyp(S,T): the places fit theta (admissible_places; a broken rule is
    (False, its message), a malformed place raises), and then
    roots_of_unity_rule on the finite primes of T."""
    try:
        _, t_fin = admissible_places(spec, S, T)
    except PlacesError as exc:
        return False, str(exc)
    return roots_of_unity_rule(spec, t_fin)


# ---------------------------------------------------------------------------
# Characters.

@lru_cache(maxsize=None)
def _character_logs(group: FiniteAbelianGroup) -> tuple[tuple[int, ...], ...]:
    """The logs base zeta_e of each character of group, one tuple per label
    in the order of group.elements(), each in the basis order of groupring;
    built once per group."""
    e = group.exponent
    return tuple(
        tuple(linear_form(group, [ci * (e // d) for ci, d in zip(c, group.orders)], e))
        for c in group.elements()
    )


class CharacterTable:
    """All characters of a finite abelian group, stored as logs base zeta_e.

    Characters are labelled by exponent vectors c: chi_c(g) = zeta_e^log with
    log = sum_i c_i g_i (e / d_i) mod e, e the exponent of the group. Each
    label keeps the tuple of its logs in the basis order of groupring, read
    from _character_logs.
    """

    def __init__(self, group: FiniteAbelianGroup):
        self.group = group
        self.e = group.exponent
        self.labels = list(group.elements())
        self._logs = dict(zip(self.labels, _character_logs(group)))

    def component(self, x: tuple, label) -> CyclotomicInt:
        """component_chi(x) = sum_g x_g chi(g) for x = (nums, den) in Q[G]:
        numerators bucketed by the exponent of zeta_e, one reduction."""
        nums, den = x
        vec = [0] * self.e
        for t, c in zip(self._logs[label], nums):
            vec[t] += c
        return CyclotomicInt(self.e, vec, den)

    def decompose(self, x: tuple) -> dict:
        return {label: self.component(x, label) for label in self.labels}

    def reconstruct(self, components: dict) -> tuple[tuple[int, ...], int]:
        """sum_chi component_chi e(chi) as (nums, den), with e(chi) =
        |G|^(-1) sum_g chi(g^(-1)) g: the exact inverse of decompose. Raises
        ValueError when a coefficient is not rational."""
        e = self.e
        den = math.lcm(*(c.den for c in components.values()))
        nums = []
        for i in range(self.group.size):
            vec = [0] * e
            for label, comp in components.items():
                if comp.n != e:
                    raise ValueError(f"component of order {comp.n}, table exponent {e}")
                t, scale = self._logs[label][i], den // comp.den
                for k, a in enumerate(comp.nums):
                    vec[(k - t) % e] += a * scale
            c = CyclotomicInt(e, vec)
            if not c.is_rational():
                raise ValueError(f"coefficient {i} is not rational: numerators {list(c.nums)}"
                                 f" over {den * self.group.size} in powers of zeta_{e}")
            nums.append(c.nums[0])
        return lowest_terms(nums, den * self.group.size)


class DirichletCharacter:
    """A character of Gal(L/Q) as a primitive Dirichlet character.

    Values are zeta_order^logs[a] on residues a coprime to the conductor and 0
    elsewhere; `order` is the exponent of the ambient character table so that
    values from different characters of one group compare directly. The
    object compares by identity.
    """

    def __init__(self, conductor: int, order: int, logs: dict[int, int]) -> None:
        self.conductor, self.order, self.logs = conductor, order, logs

    def log_of(self, a: int) -> int | None:
        f = self.conductor
        if f == 1:
            return 0
        if math.gcd(a, f) != 1:
            return None
        return self.logs[a % f]

    def contragredient(self) -> "DirichletCharacter":
        return DirichletCharacter(
            self.conductor, self.order, {a: (-t) % self.order for a, t in self.logs.items()}
        )


@lru_cache(maxsize=None)
def _unit_kernels(f: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(d, the units of Z/f that are 1 mod d) for each divisor d of f,
    ascending: the kernel of (Z/f)^x -> (Z/d)^x. d = 1 lists every unit."""
    units = unit_residues(f)
    return tuple((d, tuple(a for a in units if (a - 1) % d == 0)) for d in divisors(f))


@lru_cache(maxsize=None)
def _crt_lifts(d: int, f: int) -> tuple[tuple[int, int], ...]:
    """(b, crt_lift(b, d, f)) for each unit b of Z/d: a unit of Z/f over b.
    f is factored once for the table."""
    f_factors = factorize(f)
    return tuple((b, crt_lift(b, d, f, f_factors)) for b in unit_residues(d))


def dirichlet_character(gal: GaloisData, label) -> DirichletCharacter:
    """Primitivize the character chi_label of Gal(L/Q) to its own conductor:
    chi(a) = zeta_e^(sum_i c_i g_i (e / d_i)) for g = element_of(a), e the
    exponent of the group, on the units of the field's conductor f. Its
    conductor is the least d | f whose kernel chi kills; its values mod d
    are read at the CRT lifts to f. Both tables are cached per conductor."""
    grp = gal.group
    e = grp.exponent
    weights = [c * (e // d) for c, d in zip(label, grp.orders, strict=True)]
    kernels = _unit_kernels(gal.conductor)
    log_f = {a: sum(w * x for w, x in zip(weights, gal.element_of(a))) % e for a in kernels[0][1]}
    fchi = next(d for d, kernel in kernels if not any(log_f[a] for a in kernel))
    if fchi == 1:
        return DirichletCharacter(1, e, {})
    return DirichletCharacter(fchi, e, {b: log_f[a] for b, a in _crt_lifts(fchi, gal.conductor)})


# ---------------------------------------------------------------------------
# Tower presentation: Gal(L_n/Q) = G x Z/p^n with the gamma coordinate split off.

class TowerLevelData(GaloisData):
    """Gal(L_n/Q), L_n = layer(spec, p, n), in product coordinates (g, k): g
    in Gal(L/Q), k the cyclotomic coordinate (gamma^k, gamma the fixed
    generator with cyclotomic character 1+p), the log base 1+p of the 1-unit
    part of a mod p^(n+1).

    Also records, when zeta_p lies in L, the finite-level cyclotomic character
    chi_cyc: G_n -> (Z/p^(n+1))^x.
    """

    conductor_name = "layer conductor"
    field_name = "layer {n}"

    def __init__(self, spec: AbelianFieldSpec, p: int, n: int):
        self.base_spec = spec
        self.p = p
        self.n = n
        base = galois_group(spec)
        q = p ** (n + 1)
        dlog1 = {pow(1 + p, k, q): k for k in range(p**n)}

        def classify(a: int) -> tuple[int, ...]:
            one_unit = (a * pow(teichmuller(a, p, n + 1), -1, q)) % q
            return base.element_of(a) + (dlog1[one_unit],)

        group = FiniteAbelianGroup(base.group.orders + (p**n,))
        super().__init__(layer(spec, p, n), group, classify)
        self.has_chi_cyc = all((h - 1) % q == 0 for h in self.spec.fixing)
        self.chi_cyc: dict[tuple[int, ...], int] | None = None
        if self.has_chi_cyc:
            self.chi_cyc = {g: a % q for g, a in self.representatives.items()}

    def chi_cyc_of(self, g: tuple[int, ...]) -> int:
        """chi_cyc(g) mod p^(n+1); defined only when zeta_p is in L."""
        if self.chi_cyc is None:
            raise ValueError(
                "the cyclotomic character does not descend to this layer "
                "(zeta_p is not in the base field)"
            )
        return self.chi_cyc[g]

    def project(self, g: tuple[int, ...], target_n: int) -> tuple[int, ...]:
        """The quotient map G_n -> G_target: (g, k) -> (g, k mod p^target)."""
        if target_n > self.n:
            raise ValueError("can only project to a lower layer")
        return g[:-1] + (g[-1] % self.p**target_n,)
