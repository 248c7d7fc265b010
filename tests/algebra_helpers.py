"""Algebras, the double-loop product of a group algebra, ring helpers, the
vectors a span oracle holds as codes, the closed-form dual of a finite
abelian group with an action, the field arithmetic of Q(zeta_n) on
vectors of any length, the structural identity of two algebras, the
character log of one group element, the contragredient of a Dirichlet
character, the action matrix of one group element on class data, a per-test
cache of theta's zeta tables, a patcher of every binding of a function in
the package, and the former tower checks (the twist of an entry, the
Kummer congruence on reduced and twisted copies, the parity projector on a
translated copy), which only the tests use."""

import importlib
import pkgutil
from fractions import Fraction
from functools import lru_cache

import iwasawa_kit
from iwasawa_kit import lvalues
from iwasawa_kit.abelian import DirichletCharacter, cm_data
from iwasawa_kit.exact import CyclotomicInt
from iwasawa_kit.fitting import FiniteCommAlgebra, FinPresModule
from iwasawa_kit.groupring import basis_index, translate
from iwasawa_kit.lvalues import _mat_identity, _mat_mul, _mat_power
from iwasawa_kit.tower import _twist_factors


def decode_span(codes, width: int, q: int) -> set:
    """The vectors of (Z/q)^width held by the codes of oracles.enumerate_span:
    coordinate i in the K bits from bit K*i, K = q.bit_length() + 1, each
    lane reduced mod q and nothing above the last."""
    k = q.bit_length() + 1
    out = set()
    for code in codes:
        x = tuple((code >> k * i) % (1 << k) for i in range(width))
        assert max(x, default=0) < q and code >> k * width == 0, (code, width, q)
        out.add(x)
    assert len(out) == len(codes)
    return out


def character_log(tab, label, g) -> int:
    """The log base zeta_e of chi_label(g), read from the CharacterTable tab."""
    return tab._logs[label][basis_index(tab.group)[g]]


def character_key(chi) -> tuple:
    """(conductor, order, logs by residue, None off the units): every value
    of a DirichletCharacter, spelled out, for comparing two characters."""
    return chi.conductor, chi.order, tuple(chi.logs)


def contragredient(chi) -> DirichletCharacter:
    """chi_bar: the DirichletCharacter chi with each of its logs negated."""
    e = chi.order
    return DirichletCharacter(chi.conductor, e, [t if t is None else -t % e for t in chi.logs])


def fresh_zeta_tables(monkeypatch):
    """Give lvalues._zeta_table a cache of its own for one test, so no table
    built before the test hides a patched unit_classes or _zeta_numerators,
    and the tables built from the patch leave with it. Call cache_clear on
    it after each further patch."""
    table = lru_cache(maxsize=None)(lvalues._zeta_table.__wrapped__)
    monkeypatch.setattr(lvalues, "_zeta_table", table)
    return table


def patch_every_binding(monkeypatch, originals, replacement):
    """Bind replacement wherever a module of the package binds one of
    originals, under any name, as the benchmark tracer patches it."""
    for info in pkgutil.iter_modules(iwasawa_kit.__path__):
        module = importlib.import_module(f"iwasawa_kit.{info.name}")
        for name, value in list(vars(module).items()):
            if any(value is original for original in originals):
                monkeypatch.setattr(module, name, replacement)


def action_of(M, g) -> list[list[int]]:
    """The matrix by which g acts on the class data M: the product over the
    generators of A_t^(g_t mod its order), each power by squaring."""
    k = len(M.orders)
    out = _mat_identity(k)
    for t, e in enumerate(g):
        out = _mat_mul(out, _mat_power(M.action[t], e % M.group_orders[t], M.orders), k)
    return out


def fold(vec, n: int) -> list:
    """The n coefficients of 1, z, ..., z^(n-1) of sum_i vec[i] z^i, z^n = 1:
    a vector of any length in the form CyclotomicInt takes."""
    out = [0] * n
    for i, c in enumerate(vec):
        out[i % n] += c
    return out


class Cyclotomic(CyclotomicInt):
    """CyclotomicInt with the field operations of Q(zeta_n), for the test
    oracles: +, - and * with another value of Q(zeta_n) (the kit's own
    values included) or a rational, and equality with a rational. It takes
    coefficients of 1, z, z^2, ... of any length (fold)."""

    __slots__ = ()

    def __init__(self, n: int, vec, den: int = 1):
        super().__init__(n, fold(vec, n), den)

    @classmethod
    def zeta(cls, n: int, k: int = 1) -> "Cyclotomic":
        return cls(n, [0] * (k % n) + [1])

    @classmethod
    def from_rational(cls, n: int, q) -> "Cyclotomic":
        q = Fraction(q)
        return cls(n, [q.numerator], q.denominator)

    def _coerce(self, other) -> CyclotomicInt:
        if isinstance(other, CyclotomicInt):
            if other.n != self.n:
                raise ValueError(f"mixed cyclotomic orders {self.n} and {other.n}")
            return other
        return Cyclotomic.from_rational(self.n, other)

    def __add__(self, other) -> "Cyclotomic":
        o = self._coerce(other)
        a, b = o.den, self.den
        return Cyclotomic(self.n, [a * x + b * y for x, y in zip(self.nums, o.nums)], a * b)

    __radd__ = __add__

    def __sub__(self, other) -> "Cyclotomic":
        o = self._coerce(other)
        a, b = o.den, self.den
        return Cyclotomic(self.n, [a * x - b * y for x, y in zip(self.nums, o.nums)], a * b)

    def __rsub__(self, other) -> "Cyclotomic":
        return -(self - other)

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.n, [-x for x in self.nums], self.den)

    def __mul__(self, other) -> "Cyclotomic":
        o = self._coerce(other)
        prod = [0] * (2 * len(self.nums))
        for i, a in enumerate(self.nums):
            if a:
                for j, b in enumerate(o.nums):
                    if b:
                        prod[i + j] += a * b
        return Cyclotomic(self.n, prod, self.den * o.den)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(self.n, other)
        return super().__eq__(other)

    def __repr__(self) -> str:
        return f"Cyclotomic({self.n}, {self.nums}, {self.den})"


def algebra_json(alg: FiniteCommAlgebra) -> dict:
    """The dense wire form that FiniteCommAlgebra.from_json reads:
    `mult[i][j]` is the vector of basis_i * basis_j."""
    basis = [alg.basis_element(i) for i in range(alg.dim)]
    return {
        "p": alg.p,
        "N": alg.N,
        "basis": [str(b) for b in alg.basis],
        "mult": [[list(alg.mul(x, y)) for y in basis] for x in basis],
        "one": list(alg.one),
        "sharp": [list(alg.sharp_of(x)) for x in basis] if alg.has_sharp else None,
        "name": alg.name,
    }


def same_algebra(a: FiniteCommAlgebra, b: FiniteCommAlgebra) -> bool:
    """Structural identity: same prime power, dimension, unit and products of
    basis pairs, as a from_json copy has them."""
    if (a.p, a.N, a.dim, a.one) != (b.p, b.N, b.dim, b.one):
        return False
    basis = [a.basis_element(i) for i in range(a.dim)]
    return all(a.mul(x, y) == b.mul(x, y) for x in basis for y in basis)


def convolution(alg, x, y) -> tuple:
    """The product of a fitting.GroupAlgebra by the double loop along its
    product table: x_i y_j goes to the index of g_i g_j, reduced once."""
    out = [0] * alg.dim
    ys = [(j, b) for j, b in enumerate(y) if b]
    for a, row in zip(x, alg.table):
        if a:
            for j, b in ys:
                out[row[j]] += a * b
    return tuple([c % alg.q for c in out])


def prime_of(q: int) -> int:
    """The prime p of a modulus q = p^N: its least divisor above 1."""
    return next(d for d in range(2, q + 1) if q % d == 0)


def val(q: int, x: int) -> int:
    """p-adic valuation of the representative x mod q = p^N (val(0) = N),
    digit by digit: the reference kernels read valuations so, not by gcd."""
    p = prime_of(q)
    x = x % q or q
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def nilpotent_extension_json(obj: dict, M: int) -> dict:
    """alg[T]/(T^M) in the dense JSON form of algebra_json, built
    from alg's dense JSON form alone: basis (b_i, T^k) for k < M, component-major
    in k."""
    if M < 1:
        raise ValueError("need M >= 1")
    d = len(obj["basis"])
    dim = d * M

    def embed(v: list, k: int) -> list:  # v T^k, a row of alg^M
        out = [0] * dim
        out[k * d : (k + 1) * d] = v
        return out

    mult = [
        [
            embed(obj["mult"][i][j], k1 + k2) if k1 + k2 < M else [0] * dim
            for k2 in range(M)
            for j in range(d)
        ]
        for k1 in range(M)
        for i in range(d)
    ]
    sharp = obj["sharp"]
    return {
        "p": obj["p"],
        "N": obj["N"],
        "basis": [f"{b}*T^{k}" for k in range(M) for b in obj["basis"]],
        "mult": mult,
        "one": embed(obj["one"], 0),
        "sharp": [embed(v, k) for k in range(M) for v in sharp] if sharp else None,
        "name": f"{obj['name']}[T]/(T^{M})",
    }


def nilpotent_extension(alg: FiniteCommAlgebra, M: int) -> FiniteCommAlgebra:
    """alg[T]/(T^M), a finite commutative algebra that is not a group algebra."""
    return FiniteCommAlgebra.from_json(nilpotent_extension_json(algebra_json(alg), M))


def contragredient_presentation(alg: FiniteCommAlgebra, vals: list[int], actions) -> FinPresModule:
    """Present the Pontryagin dual of sum_a Z/p^vals[a] over alg.

    `actions` yields pairs (b, X), X the integer matrix of b^# on the module in
    row convention (b^# e_t = sum_a X[t][a] e_a), for b running through
    algebra generators. On the dual generators f_a (f_a(e_t) = delta_at /
    p^vals[a]) the contragredient action (b.f)(m) = f(b^# m) reads
    b.f_a = sum_t X[t][a] p^(vals[t] - vals[a]) f_t. Precondition: the action
    is well defined (p^vals[a] divides p^vals[t] X[t][a]), so the dual is
    integral. Coordinates with vals[a] = 0 vanish; `actions` is not consumed
    when every coordinate does.
    """
    p = alg.p
    keep = [a for a, v in enumerate(vals) if v > 0]
    k = len(keep)
    if not k:
        return FinPresModule(alg, 0, [])
    relations = []
    for idx, a in enumerate(keep):
        row = [alg.zero()] * k
        row[idx] = alg.scalar(p ** vals[a], alg.one)
        relations.append(row)
    for b, X in actions:
        for idx, a in enumerate(keep):
            row = [alg.scalar(-(X[t][a] * p ** vals[t] // p ** vals[a]), alg.one) for t in keep]
            row[idx] = alg.add(row[idx], b)
            relations.append(row)
    return FinPresModule(alg, k, relations)


def twist(x, r: int, level, N: int) -> tuple:
    """t_cyc^r mod p^N at finite level: g -> chi_cyc(g)^r g, read from the
    level's _twist_factors. Requires N <= n+1 (the exact range where
    u^(r p^n) = 1 mod p^N, u = chi_cyc(gamma) = 1+p) and a level where
    chi_cyc descends; at r = 0 it is x itself."""
    if r == 0:
        return x
    q = level.p**N
    return tuple([c * u % q for c, u in zip(x, _twist_factors(level, r, q))])


def twist_congruence_reference(t_r, t_0, twist_of=twist) -> tuple:
    """tower.twist_congruence_check on copies: both entries of each level
    reduced mod q = p^min(N, n+1), the r = 0 one twisted by twist_of, the
    two compared."""
    for n in range(t_r.n_max + 1):
        ne = min(t_r.N, t_0.N, n + 1)
        q = t_r.p**ne
        lhs = tuple([c % q for c in t_r.entries[n]])
        rhs = twist_of(tuple([c % q for c in t_0.entries[n]]), t_r.r, t_r.levels[n], ne)
        if lhs != rhs:
            return False, n
    return True, None


def parity_reference(t, n: int) -> bool:
    """tower.parity_projector_annihilates on a translated copy: x + (-1)^r j x
    = 0 mod p^N at every element, j x formed by groupring.translate."""
    x = t.entries[n]
    jx = translate(x, t.levels[n].group, cm_data(t.spec).j + (0,))
    sign = 1 if t.r % 2 == 0 else -1
    return not any([(a + sign * b) % t.p**t.N for a, b in zip(x, jx)])
