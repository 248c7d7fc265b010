"""Finitely presented modules over finite commutative algebras and their
Fitting ideals.

A FiniteCommAlgebra is a free Z/p^N-module of rank dim with sparse structure
constants `terms`; elements are int tuples in the basis. A GroupAlgebra keeps
only the group law (groupring.mul_table and inversion, shared by every
algebra over the group) and multiplies by one integer product in the
group's Kronecker layout (groupring.kronecker_layout, shared by every
algebra over the group and q). Code outside the two classes reads an
algebra through its operations (mul, sharp_of, regular_rows), never
through its storage. Every module/ideal question
reduces to Howell-form linear algebra over Z/p^N through the regular
representation. Ideal handles canonicalize through that form, one Howell
form of width dim per ideal, so ideal equality and membership are exact.
Subquotients are presented by Nakayama's lemma, and so is the one Pontryagin
dual of a module over a group algebra: the trace form makes it the #-twist
of a kernel inside A^n, so duals come out on few generators and relations.
dual_presentation (the transpose-sharp h^(T,#), E^1 of a square
presentation) is the independent side of e1_sharp_check. homology_sizes is
the one homology count, read by four_term_check and the complexes.

Vector layout for the realization of A^n: component-major, index(c, i) =
c*dim + i for component c and algebra-basis index i. `FiniteCommAlgebra.realize`
(the dim rows basis_i * row of a row of A^n) and `FiniteCommAlgebra.split`
(a flattened row back to its n components) are the only code that knows it;
`flatten` is plain concatenation, and every map on A^n is a
`linalg.combine` of realized rows.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

from . import wire
from .abelian import FiniteAbelianGroup
from .groupring import basis_index, inversion, kronecker_layout, mul_table, push
from .linalg import combine, howell_form, in_span, preimage_span, reduce_mod_span, span_size
from .numutil import is_prime

Vec = tuple[int, ...]


class lockfree_cached_property(cached_property):
    """functools.cached_property whose first read takes no lock (Python 3.10
    and 3.11 take an RLock there): the value is computed and stored in the
    instance __dict__, where every later read finds it before the
    descriptor. The kit shares no instance between threads."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.attrname] = self.func(instance)
        return value


class FiniteCommAlgebra:
    """Commutative Z/p^N-algebra with a distinguished basis.

    `terms[i][j]` lists the nonzero (k, c) of basis_i * basis_j, k ascending
    and 0 < c < q; products loop over it. `sharp` (optional) is the
    involution as a list of basis-image vectors, kept as `sharp_images`;
    `has_sharp` says whether it was given. `q` = p^N is an attribute. The
    dense table (basis_i * basis_j as a coefficient vector) exists only in
    the JSON form. A GroupAlgebra has no `terms` or `sharp_images`: it reads
    the group law instead. Only a GroupAlgebra can be `local` (known to be a
    local ring).
    """

    local = False

    def __init__(
        self,
        p: int,
        N: int,
        basis: list,
        terms: list[list[list[tuple[int, int]]]],
        one: Vec,
        sharp: list[Vec] | None = None,
        name: str = "",
    ):
        self._ring(p, N, basis, one, name)
        self.terms = terms
        self.has_sharp = sharp is not None
        self.sharp_images = [tuple(c % self.q for c in v) for v in sharp or ()]

    def _ring(self, p: int, N: int, basis, one: Vec, name: str) -> None:
        """The one place a modulus is born: refuses a p that is not prime
        or an N < 1 before anything is reduced mod q = p^N."""
        if not is_prime(p):
            raise ValueError(f"p must be a prime, got p={p}")
        if N < 1:
            raise ValueError(f"N must be at least 1, got N={N}")
        self.p, self.N = p, N
        self.q = q = p**N
        self.dim = len(basis)
        self.basis = list(basis)
        self.one = tuple([c % q for c in one])
        self.name = name or f"(Z/{p}^{N})[dim {self.dim}]"

    # -- element arithmetic (elements are int tuples of length dim) --------

    def zero(self) -> Vec:
        return (0,) * self.dim

    def basis_element(self, i: int) -> Vec:
        return (0,) * i + (1,) + (0,) * (self.dim - 1 - i)

    def add(self, x: Vec, y: Vec) -> Vec:
        q = self.q
        return tuple([(a + b) % q for a, b in zip(x, y)])

    def sub(self, x: Vec, y: Vec) -> Vec:
        q = self.q
        return tuple([(a - b) % q for a, b in zip(x, y)])

    def neg(self, x: Vec) -> Vec:
        q = self.q
        return tuple([-a % q for a in x])

    def scalar(self, c: int, x: Vec) -> Vec:
        q = self.q
        return tuple([c * a % q for a in x])

    def mul(self, x: Vec, y: Vec) -> Vec:
        out = [0] * self.dim
        ys = [(j, b) for j, b in enumerate(y) if b]
        for i, a in enumerate(x):
            if a:
                row = self.terms[i]
                for j, b in ys:
                    ab = a * b
                    for k, c in row[j]:
                        out[k] += ab * c
        return tuple(c % self.q for c in out)

    def sharp_of(self, x: Vec) -> Vec:
        """x^#, over an algebra given its # (every caller's is)."""
        return tuple(combine(x, self.sharp_images, self.dim, self.q))

    def regular_rows(self, x: Vec) -> list[list[int]]:
        """Rows of multiplication-by-x: row j = x * basis_j."""
        q, dim = self.q, self.dim
        xs = [(i, a) for i, a in enumerate(x) if a]
        rows = []
        for j in range(dim):
            out = [0] * dim
            for i, a in xs:
                for k, c in self.terms[i][j]:
                    out[k] += a * c
            rows.append([c % q for c in out])
        return rows

    # -- the realization of A^n (component-major flattened rows) -----------

    def realize(self, row: list[Vec]) -> list[list[int]]:
        """The dim rows basis_i * row of A^n, flattened: the realization of
        the A-submodule that row generates."""
        rows: list[list[int]] = [[] for _ in range(self.dim)]
        zero = [0] * self.dim
        for entry in row:
            blocks = self.regular_rows(entry) if any(entry) else [zero] * self.dim
            for out, block in zip(rows, blocks):
                out.extend(block)
        return rows

    def split(self, flat: list[int]) -> list[Vec]:
        """The components of a flattened row of A^n; inverse of flatten."""
        d = self.dim
        return [tuple(flat[k : k + d]) for k in range(0, len(flat), d)]

    @staticmethod
    def flatten(row: list[Vec]) -> list[int]:
        return [c for entry in row for c in entry]

    def is_unit(self, x: Vec) -> bool:
        return in_span(list(self.one), howell_form(self.regular_rows(x), self.dim, self.q), self.q)

    @property
    def radical_elements(self) -> list[Vec]:
        """Elements known to lie in the Jacobson radical: p*1, nilpotent."""
        return [self.scalar(self.p, self.one)]

    def radical_multiples(self, z: list[int]) -> list[list[int]]:
        """j*z for each j of radical_elements, in that order, z a flattened
        row of A^n: the rows of JZ that z gives. Each is a product per
        component."""
        parts = self.split(z)
        return [self.flatten([self.mul(j, e) for e in parts]) for j in self.radical_elements]

    def elements(self):
        for combo in itertools.product(range(self.q), repeat=self.dim):
            yield combo

    @lockfree_cached_property
    def subquotients(self) -> dict:
        """The subquotients presented over this algebra, by (ncomp, Z rows,
        B rows) as tuples: subquotient_presentation's table. It lives as
        long as the algebra."""
        return {}

    def validate(self) -> None:
        for i in range(self.dim):
            bi = self.basis_element(i)
            if self.mul(self.one, bi) != bi:
                raise ValueError("unit law fails")
            for j in range(self.dim):
                bj = self.basis_element(j)
                if self.mul(bi, bj) != self.mul(bj, bi):
                    raise ValueError("multiplication is not commutative")
        for i in range(self.dim):
            for j in range(self.dim):
                for k in range(self.dim):
                    a, b, c = (self.basis_element(t) for t in (i, j, k))
                    if self.mul(self.mul(a, b), c) != self.mul(a, self.mul(b, c)):
                        raise ValueError("multiplication is not associative")
        if self.has_sharp:
            for i in range(self.dim):
                bi = self.basis_element(i)
                if self.sharp_of(self.sharp_of(bi)) != bi:
                    raise ValueError("# is not an involution")
                for j in range(self.dim):
                    bj = self.basis_element(j)
                    lhs = self.sharp_of(self.mul(bi, bj))
                    if lhs != self.mul(self.sharp_of(bi), self.sharp_of(bj)):
                        raise ValueError("# is not multiplicative")

    @classmethod
    def from_json(cls, obj) -> "FiniteCommAlgebra":
        """An algebra from its wire form {p, N, basis, mult, one, sharp, name}:
        `mult[i][j]` is the dense vector of basis_i * basis_j and `sharp` the
        list of basis images (or null). Every vector is dim JSON integers
        under the wire rule; a bad p or N raises ValueError."""
        alg = wire.node(obj, "algebra")
        p, N = alg["p"].int(), alg["N"].int()
        basis = [b.str() for b in alg["basis"].list()]
        dim = len(basis)
        one = alg["one"].ints(dim)
        mult = [[v.ints(dim) for v in row.list(dim)] for row in alg["mult"].list(dim)]
        sharp = alg.get("sharp")
        sharp = None if sharp.value is None else [v.ints(dim) for v in sharp.list(dim)]
        name = alg.get("name", "").str()
        out = cls(p, N, basis, [], one, sharp, name)  # _ring refuses a bad p or N first
        q = out.q
        out.terms = [[[(k, c % q) for k, c in enumerate(v) if c % q] for v in row] for row in mult]
        return out


# ---------------------------------------------------------------------------
# Constructors.

def zmod_algebra(p: int, N: int) -> FiniteCommAlgebra:
    return FiniteCommAlgebra(p, N, ["1"], [[[(0, 1)]]], (1,), [(1,)], name=f"Z/{p}^{N}")


class GroupAlgebra(FiniteCommAlgebra):
    """(Z/p^N)[A] for a finite abelian group A; basis = the group elements in
    the order of groupring.basis_index. The algebra keeps the group law: the
    cached `table` = groupring.mul_table (g_i g_j at [i][j]) and `inversion`
    (g_i^-1 at i), shared by every algebra over A, so a build is O(dim) once
    the group's table exists. `mul` is one integer product in the layout
    groupring.kronecker_layout caches per A and q (Kronecker substitution),
    not a loop along the table; `sharp_of` and the rows of the regular
    representation permute coefficients along `inversion` and the table,
    and minus_quotient reads the table. No copy of the law in the general
    algebra's format is kept. `local`: A is a p-group, so the algebra is
    local (residue F_p)."""

    has_sharp = True

    def __init__(self, p: int, N: int, group: FiniteAbelianGroup):
        self.group = group
        self.index = index = basis_index(group)
        self.table, self.inversion = mul_table(group), inversion(group)
        one = (1,) + (0,) * (len(index) - 1)  # the identity is g_0
        self._ring(p, N, index, one, f"(Z/{p}^{N}){group.orders}")
        self.local = p ** self.dim.bit_length() % self.dim == 0  # dim < 2^bits <= p^bits
        layout = kronecker_layout(group, self.q)
        self._pack, self._unpack, self._size, self._low, self._folds = layout
        self._translates = [self.table[i] for i in self.inversion]  # row j: g_k g_j^-1 at k
        self._radical_maps: dict[int, list[list[int]]] = {}  # row width -> radical_multiples' maps

    def mul(self, x: Vec, y: Vec) -> Vec:
        """The convolution as one integer product: x and y reduced mod q
        and packed in one pass (groupring.kronecker_layout), multiplied,
        folded onto the basis lanes, unpacked and reduced once."""
        q = self.q
        XY = int.from_bytes(self._pack(*[c % q for c in (*x, *y)]), "little")
        P = (XY & self._low) * (XY >> 8 * self._size)
        for mask, shift in self._folds:
            high = P & mask
            P = (P ^ high) + (high >> shift)
        return tuple([c % q for c in self._unpack(P.to_bytes(self._size, "little"))])

    def sharp_of(self, x: Vec) -> Vec:
        """x^#: the coefficient at g moves to g^-1."""
        q = self.q
        return tuple([x[i] % q for i in self.inversion])

    def regular_rows(self, x: Vec) -> list[list[int]]:
        """Rows of multiplication-by-x: row j = x * g_j, the coefficients of
        x permuted (the coefficient at g_k is x's at g_k g_j^-1)."""
        q = self.q
        return [[x[i] % q for i in row] for row in self._translates]

    def is_unit(self, x: Vec) -> bool:
        """Over a p-group (local, residue field F_p): augmentation nonzero
        mod p. Otherwise the Howell route."""
        if self.local:
            return sum(x) % self.p != 0
        return super().is_unit(x)

    @lockfree_cached_property
    def radical_elements(self) -> list[Vec]:
        """p*1 and g - 1 for a generator g of the p-part (order p^a) of each
        cyclic factor: (g - 1)^(p^a) = g^(p^a) - 1 = 0 mod p, so g - 1 is
        nilpotent. Over a p-group they generate the maximal ideal."""
        out = [self.scalar(self.p, self.one)]
        orders = self.group.orders
        for k, o in enumerate(orders):
            pa = math.gcd(o, self.p ** o.bit_length())  # p^a divides o < 2^bits <= p^bits
            if pa > 1:
                g = tuple(o // pa if i == k else 0 for i in range(len(orders)))
                out.append(self.sub(self.group_element_vector(g), self.one))
        return out

    def radical_multiples(self, z: list[int]) -> list[list[int]]:
        """j*z for each j of radical_elements, in that order, with no
        product: p*z is one pass over the flattened row, and (g - 1)*z one
        pass through an index map, built once per g - 1 and row width: entry
        t of g*z is z at map[t], as the coefficient at g_k of each component
        of g*z is the one at g^-1 g_k."""
        q, p, width = self.q, self.p, len(z)
        maps = self._radical_maps.get(width)
        if maps is None:  # e = g - 1 has its one coefficient 1 at g
            maps = self._radical_maps[width] = [
                [o + k for o in range(0, width, self.dim) for k in self._translates[e.index(1, 1)]]
                for e in self.radical_elements[1:]]
        return [[p * c % q for c in z], *([(z[i] - c) % q for i, c in zip(m, z)] for m in maps)]

    def group_element_vector(self, g) -> Vec:
        return self.basis_element(self.index[self.group.reduce(g)])


class AlgebraMorphism:
    """Algebra homomorphism given on the source basis: one image per basis
    element."""

    def __init__(self, src: FiniteCommAlgebra, dst: FiniteCommAlgebra, images: list[Vec]):
        self.src, self.dst = src, dst
        q = dst.q
        self.images = [tuple([c % q for c in v]) for v in images]

    def apply(self, x: Vec) -> Vec:
        return tuple(combine(x, self.images, self.dst.dim, self.dst.q))

    def check_homomorphism(self) -> None:
        if self.apply(self.src.one) != self.dst.one:
            raise ValueError("morphism does not preserve the unit")
        for i in range(self.src.dim):
            for j in range(self.src.dim):
                bi, bj = self.src.basis_element(i), self.src.basis_element(j)
                lhs = self.apply(self.src.mul(bi, bj))
                rhs = self.dst.mul(self.apply(bi), self.apply(bj))
                if lhs != rhs:
                    raise ValueError(
                        f"morphism breaks multiplicativity at basis ({i},{j})"
                    )


def minus_quotient(alg: GroupAlgebra, j) -> tuple[FiniteCommAlgebra, AlgebraMorphism]:
    """(Z/p^N)[A]/(1+j) for j of exact order 2 (complex conjugation, or an
    involution every caller checks): basis = one representative per {g, jg}
    pair, with jg = -g in the quotient, so basis_a * basis_b is the one term
    (representative of g_a g_b, +-1 mod q). Returns the quotient and the
    projection map.
    """
    group = alg.group
    j = group.reduce(j)
    index, q, table = alg.index, alg.q, alg.table
    reps: list[int] = []  # basis indices of the representatives
    partner: dict[int, tuple[int, int]] = {}  # basis index -> (rep, +-1 mod q)
    for i, ij in enumerate(table[index[j]]):
        if i not in partner:
            partner[i] = (len(reps), 1)
            partner[ij] = (len(reps), q - 1)
            reps.append(i)
    dim = len(reps)

    def project(k: int) -> Vec:
        r, s = partner[k]
        return tuple(s if t == r else 0 for t in range(dim))

    terms = [[[partner[table[a][b]]] for b in reps] for a in reps]
    one = project(index[group.identity])
    sharp = [project(alg.inversion[a]) for a in reps]
    basis = [alg.basis[a] for a in reps]
    quo = FiniteCommAlgebra(alg.p, alg.N, basis, terms, one, sharp, name=f"{alg.name}-minus")
    proj = AlgebraMorphism(alg, quo, [project(k) for k in range(alg.dim)])
    return quo, proj


class GroupAlgebraMorphism(AlgebraMorphism):
    """Pushforward along a group homomorphism: `apply` pushes basis_i to dst's
    index `targets[i]` (groupring.push), so no image vector is formed."""

    def __init__(self, src: GroupAlgebra, dst: GroupAlgebra, targets: list[int]):
        self.src, self.dst, self.targets = src, dst, targets

    def apply(self, x: Vec) -> Vec:
        return tuple([c % self.dst.q for c in push(x, self.targets, self.dst.dim)])


def group_algebra_morphism(src: GroupAlgebra, dst: GroupAlgebra, element_map) -> AlgebraMorphism:
    """Pushforward along a group homomorphism (e.g. aug projections), held
    as one target basis index per source basis element. An image already in
    reduced coordinates is looked up as it is; only a miss is reduced."""
    index, reduce = dst.index, dst.group.reduce
    targets = []
    for g in src.basis:
        h = element_map(g)
        k = index.get(h)
        targets.append(index[reduce(h)] if k is None else k)
    return GroupAlgebraMorphism(src, dst, targets)


# ---------------------------------------------------------------------------
# Ideals.

class IdealHandle:
    """Finitely generated ideal, canonicalized as the Howell form of its
    Z/p^N-span inside the regular representation (`howell`, width dim, in
    the algebra's own basis), taken from the generators. Two ideals over one
    algebra with equal lists of at most dim generators are equal with no
    form read. Over a local algebra an ideal is whole iff a generator is a
    unit; a whole ideal's `howell` is the identity rows, with no
    elimination.

    `generators` are literal: the list given, or for a product I*J the
    pairwise products x*y (x over I's generators, y over J's, in that
    order), so the brute-force oracles get an input that no Howell form has
    touched. A product is an ideal like any other: its span is realized
    from those products."""

    def __init__(self, algebra: FiniteCommAlgebra, generators: list[Vec]):
        self.algebra = algebra
        q = algebra.q
        self.generators = [tuple([c % q for c in g]) for g in generators]
        self.ngens = len(self.generators)

    @lockfree_cached_property
    def _whole(self) -> bool:
        """Known to be the ring (over a local algebra only)."""
        return self.algebra.local and any(map(self.algebra.is_unit, self.generators))

    @lockfree_cached_property
    def howell(self) -> list[list[int]]:
        alg = self.algebra
        if self._whole:
            return [list(alg.basis_element(i)) for i in range(alg.dim)]
        rows = []
        for g in self.generators:
            rows.extend(alg.regular_rows(g))
        return howell_form(rows, alg.dim, alg.q)

    def _spans_with(self, other: "IdealHandle") -> tuple[list, list]:
        """(this span, the other's span): ([], []) for equal lists of at most
        dim generators over one algebra, else the two Howell forms."""
        if (self.algebra is other.algebra and self.ngens == other.ngens <= self.algebra.dim
                and self.generators == other.generators):
            return [], []
        return self.howell, other.howell

    def residual(self, x: Vec) -> Vec:
        return tuple(reduce_mod_span(list(x), self.howell, self.algebra.q))

    def contains(self, other: "IdealHandle") -> bool:
        """Whether other, an ideal over the same algebra, lies inside."""
        h, k = self._spans_with(other)
        return all(in_span(r, h, self.algebra.q) for r in k)

    def __eq__(self, other: "IdealHandle") -> bool:
        """Whether other is an ideal over the same algebra object with the
        same span."""
        h, k = self._spans_with(other)
        return self.algebra is other.algebra and h == k

    def product(self, other: "IdealHandle") -> "IdealHandle":
        mul = self.algebra.mul
        return IdealHandle(self.algebra, [mul(a, b) for a in self.generators for b in other.generators])

    def sharp(self) -> "IdealHandle":
        return IdealHandle(self.algebra, [self.algebra.sharp_of(g) for g in self.generators])

    def map_through(self, phi: AlgebraMorphism) -> "IdealHandle":
        return IdealHandle(phi.dst, [phi.apply(g) for g in self.generators])


def unit_ideal(algebra: FiniteCommAlgebra) -> IdealHandle:
    return IdealHandle(algebra, [algebra.one])


def zero_ideal(algebra: FiniteCommAlgebra) -> IdealHandle:
    return IdealHandle(algebra, [])


# ---------------------------------------------------------------------------
# Finitely presented modules.

class FinPresModule:
    """Cokernel of relations inside A^ngens; relations are rows of algebra
    elements. The realization is the underlying (Z/p^N)-module."""

    def __init__(self, algebra: FiniteCommAlgebra, ngens: int, relations: list[list[Vec]]):
        self.algebra = algebra
        self.ngens = ngens
        q = algebra.q
        self.relations = [[tuple([c % q for c in entry]) for entry in row] for row in relations]
        for row in self.relations:
            if len(row) != ngens:
                raise ValueError("relation width must equal the generator count")

    @property
    def rwidth(self) -> int:
        return self.algebra.dim * self.ngens

    @lockfree_cached_property
    def relation_span(self) -> list[list[int]]:
        rows = [r for row in self.relations for r in self.algebra.realize(row)]
        return howell_form(rows, self.rwidth, self.algebra.q) if rows else []

    def size(self) -> int:
        q = self.algebra.q
        return q**self.rwidth // span_size(self.relation_span, q) if self.ngens else 1

    def is_zero_element(self, row: list[Vec]) -> bool:
        return in_span(self.algebra.flatten(row), self.relation_span, self.algebra.q)

    @lockfree_cached_property
    def fitting_ideal(self) -> IdealHandle:
        """Ideal of ngens x ngens minors of the relation matrix."""
        n, k = self.ngens, len(self.relations)
        if n == 0:
            return unit_ideal(self.algebra)
        if k < n:
            return zero_ideal(self.algebra)
        minors = [
            _det(self.algebra, [self.relations[i] for i in combo])
            for combo in itertools.combinations(range(k), n)
        ]
        return IdealHandle(self.algebra, minors)

    def direct_sum(self, other: "FinPresModule") -> "FinPresModule":
        """self (+) other, both over self's algebra."""
        z1 = [self.algebra.zero()] * other.ngens
        z0 = [self.algebra.zero()] * self.ngens
        rels = [row + z1 for row in self.relations]
        rels += [z0 + row for row in other.relations]
        return FinPresModule(self.algebra, self.ngens + other.ngens, rels)

    def has_square_regular_presentation(self) -> bool:
        """Square with nonzero determinant: the finite-level shadow of a
        quadratic presentation by an injective matrix (over the finite model
        every non-unit is a zero divisor, so literal regularity would be
        vacuous; nonzero determinant is what all spec-level instances carry)."""
        return (
            len(self.relations) == self.ngens
            and self.ngens > 0
            and any(_det(self.algebra, self.relations))
        )

    def annihilator_check(self, x: Vec) -> bool:
        """Does x annihilate every generator (hence the module)?"""
        return multiplication_map(self, x).is_zero()


def _det(algebra: FiniteCommAlgebra, rows: list[list[Vec]]) -> Vec:
    """The determinant of the n x n matrix rows, n >= 1: both callers return
    before they reach an empty one."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    out = algebra.zero()
    for i in range(n):
        entry = rows[i][0]
        if not any(entry):
            continue
        minor = [r[1:] for k, r in enumerate(rows) if k != i]
        term = algebra.mul(entry, _det(algebra, minor))
        out = algebra.add(out, term) if i % 2 == 0 else algebra.sub(out, term)
    return out


def principal_module(algebra: FiniteCommAlgebra, a: Vec) -> FinPresModule:
    """A/(a) presented on one generator."""
    return FinPresModule(algebra, 1, [[a]])


def quadratic_presentation_certificate(
    alg: FiniteCommAlgebra, alg_lifted: FiniteCommAlgebra, h: list[list[Vec]]
) -> bool:
    """Certifies that the square matrix h is the reduction of an injective
    square matrix over the p-adic order whose cokernel is killed by p^N:
    equivalently, p^N times each basis vector lies in the row span of the
    entrywise lift at one more digit of precision. Modules presented by a
    certified matrix have projective dimension at most one upstairs (the
    hypothesis of the duality and four-term lemmas). Every caller passes a
    square h of a square presentation and alg_lifted, the group algebra of
    alg at precision N + 1."""
    n = len(h)
    q = alg_lifted.q
    width = alg_lifted.dim * n
    H = howell_form([r for row in h for r in alg_lifted.realize(row)], width, q)
    return all(in_span([alg.q * (k == j) for k in range(width)], H, q) for j in range(width))


# ---------------------------------------------------------------------------
# Module maps and sub-quotients.

class ModuleMap:
    """A-linear map given on generators: src gen c maps to sum_d matrix[c][d] dst_d.

    Precondition: the map is well defined (`is_well_defined`: every src
    relation maps to zero in dst). Construction does not check it. The
    package reads `kernel_span` only of maps that are: BoundedComplex
    differentials, checked at construction (so `complex --data` input too),
    and zero and multiplication maps, well defined by construction."""

    def __init__(self, src: FinPresModule, dst: FinPresModule, matrix: list[list[Vec]]):
        if len(matrix) != src.ngens or any(len(r) != dst.ngens for r in matrix):
            raise ValueError("map matrix shape mismatch")
        self.src, self.dst = src, dst
        q = src.algebra.q
        self.matrix = [[tuple([c % q for c in e]) for e in r] for r in matrix]

    def apply_row(self, row: list[Vec]) -> list[Vec]:
        alg = self.src.algebra
        flat = combine(alg.flatten(row), self.realization_rows, self.dst.rwidth, alg.q)
        return alg.split(flat)

    @lockfree_cached_property
    def realization_rows(self) -> list[list[int]]:
        """Rows indexed by (component c, basis i) of the source realization:
        the image of basis_i at generator c."""
        return [r for row in self.matrix for r in self.src.algebra.realize(row)]

    def is_well_defined(self) -> bool:
        return all(self.dst.is_zero_element(self.apply_row(r)) for r in self.src.relations)

    @lockfree_cached_property
    def image_span(self) -> list[list[int]]:
        """Span of the image inside the dst realization, relations included."""
        rows = [list(r) for r in self.realization_rows]
        rows += [list(r) for r in self.dst.relation_span]
        return howell_form(rows, self.dst.rwidth, self.dst.algebra.q)

    @lockfree_cached_property
    def kernel_span(self) -> list[list[int]]:
        """Howell form of the kernel inside the src realization: the
        preimage of the dst relation span, which holds the src relations
        because the map is well defined."""
        return preimage_span(self.realization_rows, self.dst.relation_span, self.dst.rwidth,
                             self.src.algebra.q)

    def image_size(self) -> int:
        """|im f| = |image span| / |dst relation span|."""
        if not (self.src.ngens and self.dst.ngens):
            return 1
        q = self.dst.algebra.q
        return span_size(self.image_span, q) // span_size(self.dst.relation_span, q)

    def is_zero(self) -> bool:
        """Every generator maps to zero in dst."""
        return all(self.dst.is_zero_element(row) for row in self.matrix)

    def compose(self, then: "ModuleMap") -> "ModuleMap":
        matrix = []
        for c in range(self.src.ngens):
            matrix.append(then.apply_row(self.matrix[c]))
        return ModuleMap(self.src, then.dst, matrix)


def homology_sizes(maps: list[ModuleMap]) -> list[int | None]:
    """The one homology count: at each A_i of 0 -> A_0 -f_1-> ... -f_k-> A_k
    -> 0 (the outer maps zero), |A_i| / (|im f_i| |im f_(i+1)|), which is
    |ker f_(i+1) / im f_i| once f_(i+1) o f_i = 0, so 1 iff the sequence is
    exact there; None where that composite is not zero. It reads no kernel
    span, and a module or map with no generators takes no Howell form."""
    images = [1, *(f.image_size() for f in maps), 1]
    zero = [True, *(f.compose(g).is_zero() for f, g in zip(maps, maps[1:])), True]
    return [A.size() // (images[i] * images[i + 1]) if zero[i] else None
            for i, A in enumerate([maps[0].src, *(f.dst for f in maps)])]


def identity_map(M: FinPresModule) -> ModuleMap:
    return multiplication_map(M, M.algebra.one)


def zero_map(src: FinPresModule, dst: FinPresModule) -> ModuleMap:
    return ModuleMap(src, dst, [[src.algebra.zero()] * dst.ngens for _ in range(src.ngens)])


def multiplication_map(M: FinPresModule, a: Vec) -> ModuleMap:
    alg = M.algebra
    mat = [
        [a if d == c else alg.zero() for d in range(M.ngens)] for c in range(M.ngens)
    ]
    return ModuleMap(M, M, mat)


class SubquotientData:
    """An A-subquotient Z/B of A^n with a derived presentation.

    `gens_ambient` embeds the presentation generators back into A^n.
    """

    def __init__(self, module: FinPresModule, gens_ambient: list[list[Vec]]) -> None:
        self.module, self.gens_ambient = module, gens_ambient


def _nakayama_rows(
    algebra: FiniteCommAlgebra, width: int, rows: list[list[int]], base: list[list[int]]
) -> list[list[int]]:
    """Rows among `rows`, which span an A-stable Z over Z/p^N (its Howell
    rows, say), that generate Z modulo the A-stable B inside Z as an
    A-module; `base` is any rows spanning B over Z/p^N.

    Nakayama: for J inside the Jacobson radical, rows generate Z/B once they
    span it modulo JZ + B. So a row is kept only when it is not in the span
    of JZ + B (J generated by `radical_elements`) and the A-spans of the rows
    kept so far. JZ is spanned by the j*z over those j and the rows z
    (`radical_multiples`): a group algebra forms them with no product, p*z
    as one pass over the row and (g - 1)*z as one pass through an index map
    of its translation by g; any other algebra by its products. Where J is
    the maximal ideal of a local algebra the kept rows are a basis of
    Z/(JZ + B) over the residue field: a minimal set. There (a group algebra
    over a p-group) A = Z/p^N*1 + J, so the A-span of a kept row z is
    Z/p^N*z + Jz with Jz already in JZ: z alone joins the span, not its dim
    realized rows."""
    q, split = algebra.q, algebra.split
    # rows not yet in the Howell form `span`, eliminated only when a row is tested
    pending = [jz for z in rows for jz in algebra.radical_multiples(z)] + base
    span, kept = [], []
    for z in rows:
        if pending:
            span, pending = howell_form(span + pending, width, q), []
        if not in_span(z, span, q):
            kept.append(z)
            pending = [z] if algebra.local else algebra.realize(split(z))
    return kept


def subquotient_presentation(
    algebra: FiniteCommAlgebra,
    ncomp: int,
    z_rows: list[list[int]],
    b_rows: list[list[int]],
) -> SubquotientData:
    """Present Z/B over the algebra, for A-stable spans B <= Z <= (A^ncomp),
    once per algebra and input: the presentation is kept in the algebra's
    `subquotients` table under (ncomp, Z rows, B rows), and a later call
    with the same rows returns the same SubquotientData (so its module's
    cached Fitting ideal too). Every caller passes Howell forms, which are
    canonical, so equal submodules meet in one entry; for any other rows
    the key is still exact, as the presentation depends on nothing else."""
    key = (ncomp, tuple(map(tuple, z_rows)), tuple(map(tuple, b_rows)))
    table = algebra.subquotients
    data = table.get(key)
    if data is None:
        data = table[key] = present_subquotient(algebra, ncomp, z_rows, b_rows)
    return data


def present_subquotient(
    algebra: FiniteCommAlgebra,
    ncomp: int,
    z_rows: list[list[int]],
    b_rows: list[list[int]],
) -> SubquotientData:
    """Z/B presented on the rows of Z that generate it modulo the radical,
    with the Howell rows of their relation module that generate it modulo
    the radical as relations (_nakayama_rows), with no table. `z_rows` must
    span Z and Z must contain B: every caller passes a Howell kernel span,
    which holds B already. `b_rows` is any rows spanning B (every caller
    passes a Howell form); both of its readers, _nakayama_rows and
    preimage_span, form it with the rows they stack it under, so it is not
    formed alone."""
    q = algebra.q
    width = algebra.dim * ncomp
    gens_ambient = [algebra.split(g) for g in _nakayama_rows(algebra, width, z_rows, b_rows)]
    t = len(gens_ambient)

    # Relations: {u in A^t : sum_k u_k z_k in B}, computed on realizations.
    act_rows = [r for g in gens_ambient for r in algebra.realize(g)]
    rel_flat = preimage_span(act_rows, b_rows, width, q) if t else []
    relations = _nakayama_rows(algebra, algebra.dim * t, rel_flat, [])
    module = FinPresModule(algebra, t, [algebra.split(w) for w in relations])
    return SubquotientData(module, gens_ambient)


# ---------------------------------------------------------------------------
# Duals.

def dual_presentation(M: FinPresModule) -> FinPresModule:
    """Transpose-sharp presentation h^(T,#): for (the reduction of) a
    quadratic presentation by an injective matrix this presents both the
    Pontryagin dual and E^1(M). M is square with nonzero determinant
    (has_square_regular_presentation), as every caller draws it."""
    alg = M.algebra
    n = M.ngens
    rels = [[alg.sharp_of(M.relations[c][r]) for c in range(n)] for r in range(n)]
    return FinPresModule(alg, n, rels)


def pontryagin_dual(M: FinPresModule) -> FinPresModule:
    """Pontryagin dual of a finitely presented module over a group algebra
    A = (Z/p^N)[G], with the contragredient action (a.f)(m) = f(a^# m),
    presented by Nakayama's lemma.

    Route: the trace form tau(x) = coefficient of 1 is nondegenerate on A,
    so y -> (m -> tau(sum m_i y_i^#)) identifies A^n with Hom(A^n, Z/p^N)
    A-linearly. The functionals that kill the relation rows h are the y
    with h.y^# = 0, so M^dual = K^#, K = ker(x -> h.x) inside A^n: K is
    presented by Nakayama (subquotient_presentation) and # is applied to
    its relations. Raises ValueError over an algebra that is not a
    GroupAlgebra, whose tau is not known to be nondegenerate.
    """
    alg = M.algebra
    if not isinstance(alg, GroupAlgebra):
        raise ValueError(f"pontryagin dual needs a group algebra, not {alg.name}")
    n, rels = M.ngens, M.relations
    transpose = ModuleMap(FinPresModule(alg, n, []), FinPresModule(alg, len(rels), []),
                          [[row[c] for row in rels] for c in range(n)])
    K = subquotient_presentation(alg, n, transpose.kernel_span, []).module
    return FinPresModule(alg, K.ngens, [[alg.sharp_of(e) for e in row] for row in K.relations])


# ---------------------------------------------------------------------------
# Executable lemmas.

def e1_sharp_check(M: FinPresModule) -> bool:
    """Fitt(E^1(M)) = Fitt(M)^# for square regular presentations, computing
    the two sides by independent routes."""
    lhs = dual_presentation(M).fitting_ideal
    rhs = M.fitting_ideal.sharp()
    return lhs == rhs


def base_change_fitting(M: FinPresModule, phi: AlgebraMorphism) -> bool:
    """Fitt_S(S (x) M) = S (x) Fitt_R(M), both sides computed independently."""
    phi.check_homomorphism()
    pushed = FinPresModule(
        phi.dst, M.ngens, [[phi.apply(e) for e in row] for row in M.relations]
    )
    lhs = pushed.fitting_ideal
    rhs = M.fitting_ideal.map_through(phi)
    return lhs == rhs


def four_term_check(
    M: FinPresModule,
    C: FinPresModule,
    Cp: FinPresModule,
    Mp: FinPresModule,
    alpha: ModuleMap,
    beta: ModuleMap,
    gamma: ModuleMap,
) -> bool:
    """Fitt(M^dual)^# Fitt(C') = Fitt(C) Fitt(M') for an exact sequence
    0 -> M -> C -> C' -> M' -> 0 with C, C' of square regular presentation
    (every caller draws them certified).

    Precondition: the algebra is a GroupAlgebra, as pontryagin_dual needs;
    over any other algebra the dual raises ValueError once the exactness
    checks have passed.

    Exactness is counted by homology_sizes: a sequence that is not exact
    raises at the first of M, C, C', M' where the count is not 1.
    """
    for f in (alpha, beta, gamma):
        if not f.is_well_defined():
            raise ValueError("a supplied map is not well defined")
    for name, size in zip(("M", "C", "C'", "M'"), homology_sizes([alpha, beta, gamma])):
        if size != 1:
            raise ValueError(f"sequence is not exact at {name}")
    lhs = pontryagin_dual(M).fitting_ideal.sharp().product(Cp.fitting_ideal)
    rhs = C.fitting_ideal.product(Mp.fitting_ideal)
    return lhs == rhs


def tower_fitting_check(
    modules: list[FinPresModule], projections: list[AlgebraMorphism]
) -> dict:
    """Finite-level Greither-Kurihara consistency: for each adjacent pair,
    the image of Fitt(A_{n+1}) under the algebra projection must be contained
    in Fitt(A_n); equality is reported separately.

    `projections[n]` maps level n+1's algebra onto level n's: every caller
    builds the modules on the algebras its projections join.
    """
    contained, equal = [], []
    for n in range(len(modules) - 1):
        upper = modules[n + 1].fitting_ideal.map_through(projections[n])
        lower = modules[n].fitting_ideal
        contained.append(lower.contains(upper))
        equal.append(lower == upper)
    return {"contained": contained, "equal": equal, "ok": all(contained)}
