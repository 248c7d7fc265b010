"""The former forms of the Fitting hot paths, one oracle per fast path: the
q-pass span closure, the bucketed Howell kernel that read valuations digit
by digit and filed rows through a closure, the preimage span that formed its
kernel twice, the Nakayama selection that added every realized row of a kept
row, the dense dim^3 structure-constant product, the dense structure-constant
tables of group algebras and their minus quotients, the ideal product that
took its span from a wide factor's Howell rows, the full-width Howell form
of every ideal from the regular rows that the group law gives, the Howell
route of units over a local algebra (and the residue route through F_p[Delta]
over the others), the unit-vector images of group-algebra morphisms, the
group-ring maps that formed one group element per coefficient, the
element_of classification of each unit residue that the unit-class table of
a presentation replaced, the kernel span joined with the src relations, the
homology size as the kernel-span quotient |Z| / |B| (one reference for
cohomology sizes and both exactness checks), the quasi-isomorphism test
that compared kernel spans, the
subquotient presentation on every Howell row of Z with every preimage row
as a relation, and the Pontryagin dual taken through the Smith form with
the action of every basis element transported to its coordinates."""

import itertools
import json
import math
import random
from functools import cached_property, partial
from pathlib import Path
from types import SimpleNamespace

import pytest
from algebra_helpers import (
    algebra_json,
    contragredient_presentation,
    decode_span,
    fresh_zeta_tables,
    nilpotent_extension_json,
    patch_every_binding,
    prime_of,
    same_algebra,
    val,
)
from test_complexes import _random_chain_maps

from iwasawa_kit import (
    abelian,
    campaigns,
    complexes,
    fitting,
    groupring,
    linalg,
    lvalues,
    numutil,
    oracles,
    tower,
)
from iwasawa_kit.abelian import (
    AbelianFieldSpec,
    CharacterTable,
    FiniteAbelianGroup,
    galois_group,
    ramified_primes,
)
from iwasawa_kit.campaigns import (
    complex_campaigns,
    corpus_cm_specs,
    corpus_st_choices,
    fitting_campaigns,
)
from iwasawa_kit.fitting import (
    FiniteCommAlgebra,
    FinPresModule,
    GroupAlgebra,
    IdealHandle,
    group_algebra_morphism,
    minus_quotient,
    principal_module,
    unit_ideal,
    zero_ideal,
    zmod_algebra,
)
from iwasawa_kit.linalg import howell_form, in_span, span_size
from iwasawa_kit.lvalues import apply_plan, theta, theta_character_side, theta_plan
from iwasawa_kit.numutil import unit_residues
from iwasawa_kit.oracles import enumerate_span
from iwasawa_kit.tower import (
    TowerIntegralityError,
    aug_project,
    coherence_check,
    parity_projector_annihilates,
    theta_tower,
    tower_level,
    twist_congruence_check,
)


def enumerate_span_reference(rows, width, q):
    """All Z/q-combinations of the rows: q passes over the set per row."""
    out = {(0,) * width}
    for r in rows:
        r = tuple(c % q for c in r)
        out = {
            tuple((a + k * b) % q for a, b in zip(x, r)) for x in out for k in range(q)
        }
    return out


def howell_form_reference(rows, width, q):
    """The Howell kernel before valuations were read by gcd: a digit-by-digit
    valuation per candidate, rows filed through a closure, every pivot
    normalized."""
    if not rows:
        return []
    p, N = prime_of(q), val(q, 0)
    buckets = [[] for _ in range(width)]

    def file(r, start):
        for j in range(start, min(len(r), width)):
            if r[j]:
                buckets[j].append(r)
                return

    for r in rows:
        file([c % q for c in r], 0)
    pivots = []
    for col in range(width):
        cand = buckets[col]
        if not cand:
            continue
        piv = min(cand, key=lambda r: val(q, r[col]))
        cand.remove(piv)
        v = val(q, piv[col])
        pv = p**v
        u_inv = pow(piv[col] // pv, -1, q)
        piv = [(c * u_inv) % q for c in piv]
        for r in cand:
            f = r[col] // pv
            file([(a - f * b) % q for a, b in zip(r, piv)], col + 1)
        pivots.append((col, pv, piv))
        if v > 0:
            file([(p ** (N - v) * c) % q for c in piv], col + 1)
    out = [piv for _, _, piv in pivots]
    for i, (col, pv, piv) in enumerate(pivots):
        for j in range(i):
            f = out[j][col] // pv
            if f:
                out[j] = [(a - f * b) % q for a, b in zip(out[j], piv)]
    return out


def reduce_mod_span_reference(x, howell, q):
    """Reduction by a Howell form that reads each pivot's valuation."""
    p = prime_of(q)
    y = [c % q for c in x]
    for r in howell:
        col = next(j for j, c in enumerate(r) if c)
        f = y[col] // p ** val(q, r[col])
        if f:
            y = [(a - f * b) % q for a, b in zip(y, r)]
    return y


def span_size_reference(howell, q):
    """|span| from the valuation of each pivot."""
    p, N = prime_of(q), val(q, 0)
    return math.prod(p ** (N - val(q, next(c for c in r if c))) for r in howell)


def preimage_span_reference(rows, target, width, q):
    """The kernel rows of the stacked form, formed a second time."""
    n = len(rows)
    stacked = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    stacked += [list(t) + [0] * n for t in target]
    H = howell_form_reference(stacked, width + n, q)
    return howell_form_reference([r[width:] for r in H if not any(r[:width])], n, q)


def nakayama_rows_reference(algebra, width, rows, base):
    """The Nakayama selection that adds every realized row of a kept row to
    the span, on any algebra."""
    q, mul, split = algebra.q, algebra.mul, algebra.split
    pending = [
        algebra.flatten([mul(j, e) for e in split(z)])
        for j in algebra.radical_elements for z in rows
    ] + base
    span, kept = [], []
    for z in rows:
        if pending:
            span, pending = howell_form_reference(span + pending, width, q), []
        if any(reduce_mod_span_reference(z, span, q)):
            kept.append(z)
            pending = algebra.realize(split(z))
    return kept


# Z/2, Z/8, Z/9, Z/25, Z/27, Z/49
KERNEL_RINGS = [(2, 1), (2, 3), (3, 2), (5, 2), (3, 3), (7, 2)]  # (p, N)


def random_kernel_rows(rng, p, N, width, length):
    """Rows of the given length (at least width) for a form of that width:
    zero rows, combinations and p^k multiples of earlier rows, rows with a
    chosen lead (a unit, a p-power times a unit) and raw draws outside
    [0, q)."""
    q, rows = p**N, []
    for _ in range(rng.randint(0, 2 * width + 2)):
        kind = rng.randrange(5)
        if kind == 0:
            rows.append([0] * length)
        elif kind == 1 and rows:
            coeffs = [rng.randrange(q) for _ in rows]
            rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(length)])
        elif kind == 2 and rows:
            rows.append([p ** rng.randint(1, N) * c for c in rng.choice(rows)])
        elif kind == 3 and width:
            lead = rng.randrange(width)
            row = [0] * lead + [rng.randrange(q) for _ in range(length - lead)]
            row[lead] = p ** rng.randrange(N) * rng.randrange(1, p)
            rows.append(row)
        else:
            rows.append([rng.randrange(-q, 2 * q) for _ in range(length)])
    return rows


def lead_rows(rng, p, N, width):
    """Up to 2 * width rows, each with a chosen lead: a unit, p^k times a
    unit, or whatever the draw gave; sometimes the first row again."""
    q, rows = p**N, []
    for _ in range(rng.randint(0, 2 * width)):
        lead = rng.randrange(width)
        row = [0] * lead + [rng.randrange(q) for _ in range(width - lead)]
        row[lead] = rng.choice(
            [rng.randrange(1, p), p ** rng.randint(1, N) * rng.randrange(1, p), row[lead]]
        )
        rows.append(row)
    if rows and rng.random() < 0.3:
        rows.append(list(rows[0]))
    return rows


def test_howell_kernel_matches_the_reference_on_random_rows():
    """Every ring of KERNEL_RINGS at widths 0 to 9, with rows as long as the
    width and rows longer than it; the readers of the form (reduction, span
    size) agree with the valuation route on it. Then rows with chosen leads
    at widths 1 to 12 over Z/4 .. Z/49."""
    rng = random.Random(12)
    for p, N in [(2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (2, 4), (7, 2)]:
        q = p**N
        for _ in range(40):
            width = rng.randint(1, 12)
            rows = lead_rows(rng, p, N, width)
            assert howell_form(rows, width, q) == howell_form_reference(rows, width, q)
    rng = random.Random(26)
    cases = longer = 0
    for p, N in KERNEL_RINGS:
        q = p**N
        for _ in range(60):
            width = rng.randint(0, 9)
            extra = rng.choice([0, 0, rng.randint(1, 4)])
            rows = random_kernel_rows(rng, p, N, width, width + extra)
            H = howell_form(rows, width, q)
            assert H == howell_form_reference(rows, width, q)
            assert span_size(H, q) == span_size_reference(H, q)
            for x in random_kernel_rows(rng, p, N, width, width + extra)[:3]:
                assert linalg.reduce_mod_span(x, H, q) == reduce_mod_span_reference(x, H, q)
            cases += 1
            longer += extra > 0 and any(any(r[width:]) for r in rows)
    assert cases == 360 and longer >= 50
    for p, N in KERNEL_RINGS:
        q = p**N
        assert howell_form([], 3, q) == [] and howell_form([[1, 2]], 0, q) == []
        assert howell_form([[0, 0, 0]], 3, q) == []


def test_preimage_span_matches_the_double_form_on_random_rows():
    """The kernel rows of one stacked form are the Howell form of the
    preimage: no row count, target or ring needs the second form."""
    rng = random.Random(27)
    cases = nonzero = 0
    for p, N in KERNEL_RINGS:
        q = p**N
        for _ in range(60):
            width = rng.randint(0, 6)
            rows = random_kernel_rows(rng, p, N, width, width)
            target = random_kernel_rows(rng, p, N, width, width)
            if rng.randrange(2):
                target = howell_form(target, width, q)
            got = linalg.preimage_span(rows, target, width, q)
            assert got == preimage_span_reference(rows, target, width, q)
            assert got == howell_form(got, len(rows), q)
            cases += 1
            nonzero += bool(got)
    assert cases == 360 and nonzero >= 200


def mul_reference(mult, q, x, y):
    """Product through a dense structure-constant table: mult[i][j] is the
    coefficient vector of basis_i * basis_j."""
    out = [0] * len(mult)
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                if b:
                    for k, c in enumerate(mult[i][j]):
                        if c:
                            out[k] += a * b * c
    return tuple(c % q for c in out)


def group_algebra_reference(p, N, group):
    """The former GroupAlgebra construction, as the JSON it wrote: the dense
    dim x dim table of unit vectors of g * h, through group.mul."""
    elems = list(group.elements())
    index = {g: i for i, g in enumerate(elems)}
    dim = len(elems)

    def unit_vec(i):
        return [int(j == i) for j in range(dim)]

    return {
        "p": p,
        "N": N,
        "basis": [str(g) for g in elems],
        "mult": [[unit_vec(index[group.mul(g, h)]) for h in elems] for g in elems],
        "one": unit_vec(index[group.identity]),
        "sharp": [unit_vec(index[group.inv(g)]) for g in elems],
        "name": f"(Z/{p}^{N}){group.orders}",
    }


def minus_quotient_reference(p, N, group, j):
    """The former minus_quotient construction of (Z/p^N)[A]/(1 + j), as the
    JSON it wrote, and the images of the projection on the group elements."""
    q = p**N
    reps, partner = [], {}
    for g in group.elements():
        gj = group.mul(g, j)
        if g not in partner:
            reps.append(g)
            partner[g] = (len(reps) - 1, 1)
            partner[gj] = (len(reps) - 1, -1)
    dim = len(reps)

    def project(g):
        i, s = partner[group.reduce(g)]
        return [(s if k == i else 0) % q for k in range(dim)]

    quotient = {
        "p": p,
        "N": N,
        "basis": [str(g) for g in reps],
        "mult": [[project(group.mul(g, h)) for h in reps] for g in reps],
        "one": project(group.identity),
        "sharp": [project(group.inv(g)) for g in reps],
        "name": f"(Z/{p}^{N}){group.orders}-minus",
    }
    return quotient, [project(g) for g in group.elements()]


def zmod_reference(p, N):
    return {"p": p, "N": N, "basis": ["1"], "mult": [[[1]]], "one": [1], "sharp": [[1]],
            "name": f"Z/{p}^{N}"}


def check_against_reference(alg, ref):
    """alg has the reference's products of basis pairs, unit and #, and
    writes the reference's JSON byte for byte."""
    basis = [alg.basis_element(i) for i in range(alg.dim)]
    assert [[list(alg.mul(x, y)) for y in basis] for x in basis] == ref["mult"]
    assert list(alg.one) == ref["one"]
    assert [list(alg.sharp_of(x)) for x in basis] == ref["sharp"]
    assert json.dumps(algebra_json(alg)) == json.dumps(ref)
    assert same_algebra(alg, FiniteCommAlgebra.from_json(algebra_json(alg)))


REFERENCE_ORDERS = [(), (2,), (3,), (2, 2), (2, 9), (2, 27), (4, 4), (3, 3, 3)]


# (p, N): q = 2^k - 1 and q = 2^k fill their lanes of q.bit_length() + 1 bits
# most and least; q = 2 reaches width 6
SPAN_RINGS = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (7, 1), (31, 1)]


def random_span_rows(rng, p, N, width):
    """Random rows mixed with zero rows, rows already in the span of the
    earlier ones and p^k multiples; sometimes no rows at all."""
    q, rows = p**N, []
    for _ in range(rng.randint(0, 4)):
        kind = rng.randrange(4)
        if kind == 1:
            rows.append([0] * width)
        elif kind == 2 and rows:
            coeffs = [rng.randrange(q) for _ in rows]
            rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(width)])
        elif kind == 3:
            k = rng.randint(1, N)
            rows.append([p**k * rng.randrange(q) for _ in range(width)])
        else:
            rows.append([rng.randrange(-q, 2 * q) for _ in range(width)])
    return rows


def test_enumerate_span_matches_reference():
    """Random rows, with entries below 0 and at or above q, on every ring of
    SPAN_RINGS; then the whole of (Z/q)^width, where every lane takes every
    value of Z/q, q - 1 included."""
    rng = random.Random(6)
    cases = 0
    for p, N in SPAN_RINGS:
        q = p**N
        widths = [w for w in range(1, 7) if q**w <= 3125]
        for _ in range(48):
            width = rng.choice(widths)
            rows = random_span_rows(rng, p, N, width)
            got = decode_span(enumerate_span(rows, width, q), width, q)
            assert got == enumerate_span_reference(rows, width, q), (q, width, rows)
            cases += 1
        width = widths[-1]
        rows = [[-1 - q if i == j else q * (i + 1) for i in range(width)] for j in range(width)]
        whole = enumerate_span(rows, width, q)
        assert decode_span(whole, width, q) == enumerate_span_reference(rows, width, q)
        assert len(whole) == q**width
    assert cases >= 480
    assert decode_span(enumerate_span([], 3, 9), 3, 9) == {(0, 0, 0)}
    span = enumerate_span([[3, 0], [6, 0], [0, 0]], 2, 9)
    assert decode_span(span, 2, 9) == {(3 * k, 0) for k in range(3)}
    # lanes of 6 bits over Z/16: (15, 1) spans the codes of (-k, k)
    assert enumerate_span([[-1, 17]], 2, 16) == {(-k % 16) + (k << 6) for k in range(16)}


def test_enumerate_ideal_matches_reference_on_the_fitting_campaigns(monkeypatch):
    calls = []
    fast = oracles.enumerate_span

    def checked(rows, width, q):
        got = fast(rows, width, q)
        assert decode_span(got, width, q) == enumerate_span_reference(rows, width, q)
        calls.append(len(got))
        return got

    monkeypatch.setattr(oracles, "enumerate_span", checked)
    results = fitting_campaigns(seed=2026, trials=6)
    assert all(r.ok for r in results)
    assert len(calls) > 20


def monogenic_algebra_json(p, N, f):
    """(Z/p^N)[x]/(x^d - f[0] - f[1] x - ... - f[d-1] x^(d-1)) on 1, x, ..., x^(d-1),
    in the dense JSON form: its products of basis elements have several terms."""
    d = len(f)
    powers = [[int(k == i) for k in range(d)] for i in range(d)]
    for _ in range(d - 1):  # x^(e+1) = x * x^e, with x^d = f
        top = powers[-1]
        powers.append([top[k - 1] * (k > 0) + top[-1] * f[k] for k in range(d)])
    mult = [[powers[i + j] for j in range(d)] for i in range(d)]
    return {"p": p, "N": N, "basis": [f"x^{i}" for i in range(d)], "mult": mult,
            "one": powers[0], "sharp": None, "name": f"x^{d}={f}"}


def _algebras():
    """(algebra, its dense table) pairs that are no group algebra (those are
    test_group_algebras_match_the_dense_construction's); every table comes
    from a reference construction or a dense JSON input, never from the
    algebra itself."""
    c2 = FiniteAbelianGroup((2,))
    c2c2 = FiniteAbelianGroup((2, 2))
    pairs = [(minus_quotient(GroupAlgebra(3, 2, c2c2), (1, 0))[0],
              minus_quotient_reference(3, 2, c2c2, (1, 0))[0])]
    dense = [
        nilpotent_extension_json(zmod_reference(3, 2), 3),
        nilpotent_extension_json(group_algebra_reference(2, 2, c2), 2),
        monogenic_algebra_json(3, 2, (2, 3)),
        monogenic_algebra_json(2, 3, (1, 1, 6)),
    ]
    pairs += [(FiniteCommAlgebra.from_json(obj), obj) for obj in dense]
    pairs.append((zmod_algebra(5, 2), zmod_reference(5, 2)))
    return [pytest.param(alg, ref["mult"], id=alg.name) for alg, ref in pairs]


def check_products_against_dense(alg, mult):
    """Products of basis pairs and of random elements, the regular rows,
    split and realize against the dense table mult."""
    def mul_ref(x, y):
        return mul_reference(mult, alg.q, x, y)

    rng = random.Random(alg.dim)
    basis = [alg.basis_element(i) for i in range(alg.dim)]
    for bi in basis:
        for bj in basis:
            assert alg.mul(bi, bj) == mul_ref(bi, bj)
    elements = basis + [
        tuple(rng.randrange(-alg.q, 2 * alg.q) for _ in range(alg.dim)) for _ in range(8)
    ]
    for x in elements:
        rows = alg.regular_rows(x)
        assert rows == [list(mul_ref(x, b)) for b in basis]
        for y in elements[-8:]:
            assert alg.mul(x, y) == mul_ref(x, y)
    zero = alg.zero()
    rows = [[rng.choice(elements) for _ in range(n)] for n in (1, 2, 3)]
    rows += [[zero], [rng.choice(elements), zero], [zero, rng.choice(elements), zero]]
    for row in rows:
        flat = [c for entry in row for c in entry]
        assert alg.split(flat) == row
        assert alg.realize(row) == [
            [c for entry in row for c in mul_ref(b, entry)] for b in basis
        ]
    assert alg.q == alg.p**alg.N


@pytest.mark.parametrize("alg, mult", _algebras())
def test_sparse_mul_matches_dense_reference(alg, mult):
    check_products_against_dense(alg, mult)


def ideal_product_reference(I, J):
    """The Howell form of I*J by the route products once took: I*J is the
    Z/p^N-span of {x*y} with x over any Z/p^N-spanning set of I and y over
    ideal generators of J (a in I and b = sum c_k y_k give
    a*b = sum (a*c_k)*y_k with a*c_k in I). The wider factor (more
    generators) lends the Howell rows of its realized generators as x, so no
    pairwise product is realized."""
    if J.ngens > I.ngens:
        I, J = J, I
    alg = I.algebra
    rows_of_I = howell_form([r for g in I.generators for r in alg.regular_rows(g)], alg.dim, alg.q)
    return howell_form([alg.mul(x, y) for x in rows_of_I for y in J.generators], alg.dim, alg.q)


PRODUCT_ALGEBRAS = [
    GroupAlgebra(p, N, FiniteAbelianGroup(orders))
    for p, N, orders in ((2, 3, (2,)), (3, 2, (3,)), (3, 2, (2, 2)), (3, 2, (2, 9)))
]


def random_ideal(rng, alg, n):
    """An ideal on n generators: random elements, p-power multiples, elements
    of the augmentation ideal, zeros and repeats, so that spans are proper."""
    gens = []
    for _ in range(n):
        x = tuple(rng.randrange(alg.q) for _ in range(alg.dim))
        kind = rng.randrange(5)
        if kind == 1:
            x = alg.scalar(alg.p ** rng.randint(1, alg.N), x)
        elif kind == 2:
            g = alg.basis_element(rng.randrange(alg.dim))
            x = alg.mul(alg.sub(g, alg.one), x)
        elif kind == 3:
            x = alg.zero()
        elif kind == 4 and gens:
            x = rng.choice(gens)
        gens.append(x)
    return IdealHandle(alg, gens)


@pytest.mark.parametrize("alg", PRODUCT_ALGEBRAS, ids=lambda a: a.name)
def test_ideal_product_matches_reference_on_random_ideals(alg):
    rng = random.Random(alg.dim * alg.q)
    dim = alg.dim
    # the reference realizes up to (dim + 2)^2 products as dim rows each
    ideals = [random_ideal(rng, alg, rng.randint(0, dim + 2)) for _ in range(8 if dim <= 4 else 3)]
    ideals += [random_ideal(rng, alg, dim + 1), random_ideal(rng, alg, dim + 2)]
    ideals += [zero_ideal(alg), unit_ideal(alg)]
    # coverage: factors with more generators than dim (whose Howell rows the
    # reference then reads) on either side, both or neither
    wide = set()
    for I in ideals:
        for J in ideals:
            assert I.product(J).howell == ideal_product_reference(I, J)
            wide.add((I.ngens > dim, J.ngens > dim))
    assert wide == {(False, False), (False, True), (True, False), (True, True)}
    # chains of three products: a product factor is an ideal on its pairwise
    # generator products, often more than dim of them
    for _ in range(6):
        I, J, K = (random_ideal(rng, alg, rng.randint(0, min(dim + 2, 6))) for _ in range(3))
        for chain, left, right in (
            (I.product(J).product(K), I.product(J), K),
            (I.product(J.product(K)), I, J.product(K)),
        ):
            assert chain.howell == ideal_product_reference(left, right)
            assert chain == IdealHandle(alg, left.generators).product(right)
    big = random_ideal(rng, alg, dim + 2)
    third = big if dim <= 4 else random_ideal(rng, alg, 2)
    assert big.product(big).product(third).howell == ideal_product_reference(big.product(big), third)


@pytest.fixture(scope="module")
def campaign_records():
    """Every ideal product and every ideal comparison (==, contains) that the
    AC5/AC6 campaign slices form, with the verdicts the fast path gave, every
    subquotient they present: (algebra, ncomp, Z rows, B rows, the
    presentation), every map whose kernel span they read, with that span,
    every Pontryagin dual they take: (module, dual), every complex they build
    and every short exact sequence whose exactness ComplexSES.verify_exact
    checks. The fitting slices at seeds 2027 and 2028 add products with a
    factor of more generators than dim."""
    formed, compared, presented, kernels, duals, built, sequences = [], [], [], [], [], [], []
    product, eq, contains = IdealHandle.product, IdealHandle.__eq__, IdealHandle.contains
    subquotient = fitting.subquotient_presentation
    kernel_span = fitting.ModuleMap.kernel_span.func
    dual = fitting.pontryagin_dual
    build = complexes.BoundedComplex.__init__
    verify_exact = complexes.ComplexSES.verify_exact

    def recorded_product(I, J):
        out = product(I, J)
        formed.append((I, J, out))
        return out

    def recorded_eq(I, J):
        verdict = eq(I, J)
        compared.append(("==", I, J, verdict))
        return verdict

    def recorded_contains(I, J):
        verdict = contains(I, J)
        compared.append(("contains", I, J, verdict))
        return verdict

    def recorded_subquotient(algebra, ncomp, z_rows, b_rows):
        out = subquotient(algebra, ncomp, z_rows, b_rows)
        presented.append((algebra, ncomp, [list(r) for r in z_rows], [list(r) for r in b_rows], out))
        return out

    def recorded_kernel_span(f):
        out = kernel_span(f)
        kernels.append((f, out))
        return out

    def recorded_dual(M):
        out = dual(M)
        duals.append((M, out))
        return out

    def recorded_build(C, *args):
        build(C, *args)
        built.append(C)

    def recorded_verify_exact(ses):
        sequences.append(ses)
        verify_exact(ses)

    recorded_kernel = cached_property(recorded_kernel_span)
    recorded_kernel.__set_name__(fitting.ModuleMap, "kernel_span")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(IdealHandle, "product", recorded_product)
        mp.setattr(IdealHandle, "__eq__", recorded_eq)
        mp.setattr(IdealHandle, "contains", recorded_contains)
        patch_every_binding(mp, (subquotient,), recorded_subquotient)
        mp.setattr(fitting.ModuleMap, "kernel_span", recorded_kernel)
        patch_every_binding(mp, (dual,), recorded_dual)
        mp.setattr(complexes.BoundedComplex, "__init__", recorded_build)
        mp.setattr(complexes.ComplexSES, "verify_exact", recorded_verify_exact)
        results = complex_campaigns(seed=2026, trials=100) + fitting_campaigns(seed=2026, trials=200)
        results += fitting_campaigns(seed=2027, trials=50) + fitting_campaigns(seed=2028, trials=100)
    assert all(r.ok for r in results)
    return SimpleNamespace(formed=formed, compared=compared, presented=presented, kernels=kernels,
                           duals=duals, complexes=built, sequences=sequences)


def test_ideal_product_matches_reference_on_the_campaigns(campaign_records):
    """Every Fitting product and every Euler-Fitting numerator, denominator
    and cross-multiplication that the AC5/AC6 campaign slices form."""
    formed = campaign_records.formed
    assert len(formed) > 3000
    # coverage: products with a factor of more generators than dim (the
    # reference reads that factor's Howell rows) and products of two factors
    # of at most dim
    wide = sum(max(I.ngens, J.ngens) > I.algebra.dim for I, J, _ in formed)
    assert wide >= 300 and len(formed) - wide >= 300
    for I, J, out in formed:
        assert out.howell == ideal_product_reference(I, J)


def test_product_generators_are_literal_and_span_free(monkeypatch):
    alg = PRODUCT_ALGEBRAS[1]
    rng = random.Random(9)
    I, J, K = (random_ideal(rng, alg, n) for n in (alg.dim + 2, 2, alg.dim + 1))
    IJ, IJK = I.product(J), I.product(J).product(K)

    def refused(*args):
        raise AssertionError("reading generators must not take a Howell form")

    monkeypatch.setattr(fitting, "howell_form", refused)
    monkeypatch.setattr(linalg, "howell_form", refused)
    assert IJ.generators == [alg.mul(x, y) for x in I.generators for y in J.generators]
    assert IJK.generators == [
        alg.mul(alg.mul(x, y), z) for x in I.generators for y in J.generators for z in K.generators
    ]
    assert I.product(zero_ideal(alg)).generators == []
    monkeypatch.undo()
    assert IJ.ngens == len(IJ.generators) and IJK.ngens == len(IJK.generators)


def test_ideal_equal_oracle_agrees_on_products():
    alg = PRODUCT_ALGEBRAS[1]
    assert alg.q**alg.dim <= 729
    rng = random.Random(33)
    ideals = [random_ideal(rng, alg, rng.randint(0, alg.dim + 2)) for _ in range(6)]
    ideals += [zero_ideal(alg), unit_ideal(alg)]
    products = [I.product(J) for I in ideals for J in ideals[::2]]
    products += [ideals[0].product(ideals[1]).product(ideals[2])]
    seen = set()
    for X in products:
        for Y in products[::3] + ideals:
            equal = X == Y
            assert oracles.ideal_equal_oracle(X, Y) == equal
            seen.add(equal)
    assert seen == {True, False}


def ideal_howell_reference(I, cache=None):
    """The canonical form of every ideal by the former route: one Howell
    form of width dim in the algebra's own basis, from the regular rows that
    the structure constants give (over a group algebra, the rows that
    group.mul gives). `cache` maps id(ideal) to (ideal, form) across calls."""
    cache = {} if cache is None else cache
    if id(I) in cache:
        return cache[id(I)][1]
    alg = I.algebra
    if isinstance(alg, GroupAlgebra):
        rows = [r for g in I.generators for r in regular_rows_reference(g, alg.group, alg.q)]
    else:
        rows = [r for g in I.generators for r in FiniteCommAlgebra.regular_rows(alg, g)]
    out = howell_form(rows, alg.dim, alg.q)
    cache[id(I)] = (I, out)
    return out


def check_ideals_against_reference(ideals, elements, pairs=None):
    """howell, size and residual of each ideal, and == and contains
    of each pair (all pairs by default), agree with the reference forms; ==
    holds only over one algebra object."""
    cache = {}
    q = ideals[0].algebra.q
    for I in ideals:
        ref = ideal_howell_reference(I, cache)
        assert I.howell == ref
        for x in elements + I.generators[:3]:
            assert list(I.residual(x)) == reduce_mod_span_reference(x, ref, q)
    verdicts = set()
    for I, J in pairs if pairs is not None else [(I, J) for I in ideals for J in ideals]:
        refI, refJ = ideal_howell_reference(I, cache), ideal_howell_reference(J, cache)
        assert (I == J) == (I.algebra is J.algebra and refI == refJ)
        contained = refI == refJ or all(in_span(r, refI, q) for r in refJ)
        assert I.contains(J) == contained
        verdicts.add((refI == refJ, contained))
    return verdicts


def norm_of(alg, g):
    """1 + g + ... + g^(o-1), o the order of the group element g. g^o = 1
    comes within 2 dim steps (over a minus quotient g may pass -1 first), so
    a faulty product fails here instead of running on."""
    norm, power = alg.one, g
    for _ in range(2 * alg.dim):
        if power == alg.one:
            return norm
        norm, power = alg.add(norm, power), alg.mul(power, g)
    raise AssertionError(f"no power of {g} within 2 dim is 1 in {alg.name}")


def component_ideal(rng, alg, n):
    """An ideal on n generators a*x with a one or two factors g - 1 or
    1 + g + ... + g^(o-1), g a random group element other than 1, and x
    random: each factor kills some characters of the group, so the ideal is
    whole at some characters and proper at others."""

    def factor():
        g = alg.basis_element(rng.randrange(1, alg.dim))  # basis 0 is the identity
        if rng.randrange(2):
            return alg.sub(g, alg.one)
        return norm_of(alg, g)

    gens = []
    for _ in range(n):
        a = factor() if rng.randrange(2) else alg.mul(factor(), factor())
        gens.append(alg.mul(a, tuple(rng.randrange(alg.q) for _ in range(alg.dim))))
    return IdealHandle(alg, gens)


def group_algebra(p, N, orders):
    return GroupAlgebra(p, N, FiniteAbelianGroup(orders))


def unit_and_non_units(rng, alg):
    """A random unit of the algebra and three non-units: a multiple of p, a
    multiple of g - 1 and their sum. Over every algebra here more than a
    sixth of the elements are units (the fewest, (2/3)^4, over (Z/9)[C2 x
    C2]), so 200 draws that find none mean a faulty unit test."""
    draws = (tuple(rng.randrange(alg.q) for _ in range(alg.dim)) for _ in range(200))
    unit = next((x for x in draws if FiniteCommAlgebra.is_unit(alg, x)), None)
    assert unit is not None, f"no unit of {alg.name} in 200 draws"
    g = alg.basis_element(rng.randrange(alg.dim))
    a = alg.scalar(alg.p, tuple(rng.randrange(alg.q) for _ in range(alg.dim)))
    b = alg.mul(alg.sub(g, alg.one), tuple(rng.randrange(alg.q) for _ in range(alg.dim)))
    return unit, [a, b, alg.add(a, b)]


def _ideal_algebras():
    """Group algebras of dim 1 to 42: local (a p-group) and not, p = 2 among
    them, with a prime-to-p part whose exponent divides p - 1 and with one
    whose exponent does not; a minus quotient; and from_json copies of two
    group algebras, whose ideals are also compared with the same generators
    over the group algebra."""
    algebras = [
        (group_algebra(p, N, orders), None)
        for p, N, orders in (
            (3, 3, ()), (2, 3, (2,)), (2, 2, (2, 2)), (3, 2, (3,)), (3, 2, (9,)),
            (2, 3, (3,)), (3, 2, (2,)), (3, 2, (2, 2)), (3, 2, (2, 3)), (3, 2, (4,)), (3, 2, (5,)),
            (5, 2, (3,)), (5, 1, (2, 2)), (5, 1, (2, 3)), (3, 2, (9, 3)), (3, 2, (2, 9)),
            (3, 3, (18,)), (5, 2, (20,)), (5, 2, (2, 10)), (7, 2, (42,)), (7, 1, (3, 14)),
        )
    ]
    algebras.append((minus_quotient(group_algebra(3, 2, (2, 2)), (1, 0))[0], None))
    for orders in ((2,), (2, 2)):
        source = group_algebra(3, 2, orders)
        algebras.append((FiniteCommAlgebra.from_json(algebra_json(source)), source))
    return [pytest.param(alg, source, id=f"{type(alg).__name__}-{alg.name}")
            for alg, source in algebras]


@pytest.mark.parametrize("alg, source", _ideal_algebras())
def test_ideals_match_the_howell_reference(alg, source):
    """Random ideals (more generators than dim on the small algebras), ideals
    whole at some characters and proper at others, ideals that a unit among
    non-units settles and handles on one generator list (one longer than
    dim), zero, the ring, #, products and a chain of two, each with elements
    inside and outside. Over a from_json copy, contains also meets the ideal
    on the same generators over the group algebra it copies, which == tells
    apart."""
    rng = random.Random(alg.dim * alg.q)
    small = alg.dim <= 9
    unit, non_units = unit_and_non_units(rng, alg)
    other_unit, more_non_units = unit_and_non_units(rng, alg)
    ideals = [random_ideal(rng, alg, rng.randint(0, alg.dim + 2 if small else 3))
              for _ in range(3 if small else 2)]
    ideals.append(random_ideal(rng, alg, alg.dim + 1 if small else 4))
    if alg.dim > 1:
        ideals += [component_ideal(rng, alg, n) for n in (1, 2)]
    mixed = IdealHandle(alg, [non_units[0], unit, non_units[1]])
    proper = IdealHandle(alg, non_units[:2])
    ideals += [mixed, proper, IdealHandle(alg, list(proper.generators)), zero_ideal(alg),
               unit_ideal(alg)]
    if small:
        long = non_units + more_non_units + [unit] * alg.dim
        ideals += [IdealHandle(alg, [non_units[0], other_unit, non_units[1]]),
                   IdealHandle(alg, more_non_units[:2]), IdealHandle(alg, [non_units[2]]),
                   IdealHandle(alg, long), IdealHandle(alg, list(long)),
                   IdealHandle(alg, long[:alg.dim])]
    if alg.has_sharp:
        ideals.append(ideals[0].sharp())
    right = [I for I in ideals[-9:] if I.ngens <= alg.dim] if small else ideals[-6:-3]
    products = [I.product(J) for I in ideals[:2] for J in right]
    products += [ideals[0].product(ideals[1]).product(ideals[2]),
                 mixed.product(proper), proper.product(mixed)]
    products.append(IdealHandle(alg, products[-4].generators))
    everything = ideals + products
    pairs = [(I, J) for I in everything for J in everything[:: 1 if small else 3]]
    if source is not None:
        copies = [IdealHandle(source, I.generators) for I in products[::3]]
        everything += copies
        pairs += [(X, Y) for X in ideals for Y in copies] + [(Y, X) for X in ideals for Y in copies]
    elements = [alg.zero(), alg.one, unit, *non_units, *more_non_units]
    elements += [alg.mul(g, tuple(rng.randrange(alg.q) for _ in range(alg.dim)))
                 for g in ideals[0].generators[:2] + ideals[-1].generators[:1]]
    verdicts = check_ideals_against_reference(everything, elements, pairs)
    assert {(True, True), (False, True), (False, False)} <= verdicts
    assert mixed == unit_ideal(alg) and mixed.product(proper) == proper


def test_ideals_match_the_howell_reference_on_a_dim_54_tower_level():
    """The top level of the Q(zeta3) tower at p = 3, N = 2: (Z/9)[C2 x C27]
    = (Z/9)[C27]^2. The Fitting ideals of the principal Stickelberger modules,
    the images of the level above, a direct sum's and a product's."""
    t = theta_tower(AbelianFieldSpec.cyclotomic(3), [3, "oo"], [7], 3, 2, 3, -1)
    algs = [GroupAlgebra(3, 2, level.group) for level in t.levels[2:]]
    top = algs[-1]
    assert top.dim == 54
    x = t.entries[-1]
    M1, M2 = principal_module(top, x), principal_module(top, top.sharp_of(x))
    down = group_algebra_morphism(top, algs[0], lambda g: t.levels[3].project(g, 2))
    ideals = [M1.fitting_ideal, M2.fitting_ideal, M1.direct_sum(M2).fitting_ideal,
              M1.fitting_ideal.product(M2.fitting_ideal), unit_ideal(top)]
    elements = [x, top.sharp_of(x), top.mul(x, top.sharp_of(x)), top.one]
    verdicts = check_ideals_against_reference(ideals, elements)
    assert (True, True) in verdicts and (False, False) in verdicts
    lower = [principal_module(algs[0], t.entries[2]).fitting_ideal,
             M1.fitting_ideal.map_through(down)]
    assert check_ideals_against_reference(lower, [t.entries[2]]) == {(True, True)}


def test_ideals_match_the_howell_reference_on_the_campaigns(campaign_records):
    """Every == and contains of the campaign slices, over local algebras and
    over group algebras that are not local; the products they form are the
    product oracle's."""
    compared = campaign_records.compared
    cache = {}
    nonlocal_ = [c for c in compared
                 if isinstance(c[1].algebra, GroupAlgebra) and not c[1].algebra.local]
    assert len(nonlocal_) > 300 and {c[0] for c in nonlocal_} == {"==", "contains"}
    assert {c[1].algebra.group.orders for c in nonlocal_} >= {(2,), (2, 2), (4, 1)}
    for kind, I, J, verdict in compared:
        refI, refJ = ideal_howell_reference(I, cache), ideal_howell_reference(J, cache)
        if kind == "==":
            assert verdict == (refI == refJ)
        else:
            assert verdict == all(in_span(r, refI, I.algebra.q) for r in refJ)
        assert I.howell == refI


# ---------------------------------------------------------------------------
# Group-ring maps: the element-wise forms, one group element per coefficient
# looked up in a basis index of their own.

def _element_index(group):
    return {g: i for i, g in enumerate(group.elements())}


def translate_reference(x, group, h):
    """h . x through group.mul: the coefficient at g moves to h g."""
    index = _element_index(group)
    out = list(x)
    for g, c in zip(index, x):
        out[index[group.mul(h, g)]] = c
    return tuple(out)


def sharp_reference(x, group):
    """x^# through group.inv: the coefficient at g moves to g^(-1)."""
    index = _element_index(group)
    out = list(x)
    for g, c in zip(index, x):
        out[index[group.inv(g)]] = c
    return tuple(out)


def pushforward_reference(x, src, target, element_map):
    """The pushforward through target.reduce of each image."""
    index = _element_index(target)
    out = [0] * target.size
    for g, c in zip(src.elements(), x):
        out[index[target.reduce(element_map(g))]] += c
    return tuple(out)


def distinct_coefficients(group, rng):
    """Distinct coefficients, so that any misplaced one shows."""
    return tuple(rng.sample(range(-5 * group.size, 5 * group.size), group.size))


def test_group_ring_maps_match_the_element_route_on_the_corpus():
    rng = random.Random(17)
    groups = {galois_group(spec).group for spec in corpus_cm_specs(24)}
    assert len(groups) == 12 and max(g.size for g in groups) == 22
    for group in groups:
        x = distinct_coefficients(group, rng)
        assert groupring.sharp(x, group) == sharp_reference(x, group)
        for h in group.elements():
            assert groupring.translate(x, group, h) == translate_reference(x, group, h)
            # a group element given by unreduced or negative coordinates
            shifted = tuple(a - 3 * o for a, o in zip(h, group.orders))
            assert groupring.translate(x, group, shifted) == translate_reference(x, group, h)


TOWER_LEVELS = [(3, 5), (5, 2), (7, 2)]  # (p = the conductor of the base, top level)


@pytest.mark.parametrize("p, top", TOWER_LEVELS, ids=lambda v: str(v))
def test_group_ring_maps_match_the_element_route_on_tower_levels(p, top):
    """Q(zeta_p) levels up to dim 486 (p = 3), 100 (p = 5) and 294 (p = 7):
    sampled translations, #, and every aug projection to the level below and
    to level 0, by the index maps and by push over an index list."""
    rng = random.Random(p)
    spec = AbelianFieldSpec.cyclotomic(p)
    levels = [tower_level(spec, p, n) for n in range(top + 1)]
    assert levels[-1].group.size == (p - 1) * p**top
    for n, level in enumerate(levels):
        group, q = level.group, p**2
        x = distinct_coefficients(group, rng)
        assert groupring.sharp(x, group) == sharp_reference(x, group)
        elements = list(group.elements())
        for h in rng.sample(elements, min(8, len(elements))):
            assert groupring.translate(x, group, h) == translate_reference(x, group, h)
        for target in {levels[n - 1], levels[0]} if n else ():
            def project(g, m=target.n):
                return level.project(g, m)

            expected = pushforward_reference(x, group, target.group, project)
            index = groupring.basis_index(target.group)
            images = [index[target.group.reduce(project(g))] for g in group.elements()]
            assert groupring.push(x, images, target.group.size) == expected
            assert aug_project(x, level, target, 2) == tuple(c % q for c in expected)


def test_maps_form_no_group_element(monkeypatch):
    """translate, sharp and aug_project make no FiniteAbelianGroup.mul, inv
    or reduce call."""
    spec = AbelianFieldSpec.cyclotomic(3)
    top, below = tower_level(spec, 3, 3), tower_level(spec, 3, 2)
    x = tuple(range(top.group.size))

    def refuse(*args):
        pytest.fail("a group element was formed")

    for name in ("mul", "inv", "reduce"):
        monkeypatch.setattr(FiniteAbelianGroup, name, refuse)
    groupring.translate(x, top.group, (1, 5))
    groupring.sharp(x, top.group)
    aug_project(x, top, below, 2)


def test_translation_is_one_cached_tuple_per_reduced_element():
    """translate reduces h^(-1) itself, so an unreduced h reads the entry of
    its reduced form: one more hit, no new entry."""
    group = FiniteAbelianGroup((2, 9))
    x = distinct_coefficients(group, random.Random(18))
    groupring.translation.cache_clear()
    assert isinstance(groupring.translation(group, (1, 5)), tuple)
    first = groupring.translate(x, group, (1, 4))
    before = groupring.translation.cache_info()
    assert groupring.translate(x, group, (-3, 13)) == first == translate_reference(x, group, (1, 4))
    after = groupring.translation.cache_info()
    assert (after.hits, after.currsize) == (before.hits + 1, before.currsize)


def test_json_keys_are_the_joined_coordinates_on_the_corpus_and_tower_groups():
    """The key table of each Galois group of corpus_cm_specs(24) and of each
    level n <= 3 of TOWER_CORPUS's towers is "g1,g2" of each element in the
    basis order; to_json and from_json round-trip an element through it,
    and from_json refuses a key of no element: coordinates out of range,
    one too many or too few, or spelled with a space."""
    rng = random.Random(53)
    groups = {galois_group(spec).group for spec in corpus_cm_specs(24)}
    groups |= {tower_level(spec, p, n).group for spec, p, *_ in campaigns.TOWER_CORPUS
               for n in range(4)}
    assert len(groups) == 28
    for group in groups:
        keys = groupring.json_keys(group)
        assert list(keys.items()) == [(",".join(map(str, g)), i)
                                      for i, g in enumerate(group.elements())]
        x = distinct_coefficients(group, rng)
        assert groupring.from_json(groupring.to_json(x, group, int), group, int) == x
        g = group.identity
        for bad in (",".join(map(str, group.orders)), ",".join(map(str, (*g, 0))),
                    ",".join(map(str, g[1:])), ", ".join(map(str, g))):
            if bad in keys:  # only a group of rank 0 has the key ""
                continue
            with pytest.raises(ValueError, match="is not an element of the group"):
                groupring.from_json({bad: 1}, group, int)


# ---------------------------------------------------------------------------
# Unit classes: the table of a presentation against element_of at every unit
# residue, the route that the partial zeta values took before and that the
# character route still takes.

def unit_classes_reference(pres):
    """(b, basis index of element_of(b)) for each unit residue b mod the
    conductor."""
    f = pres.conductor
    if f == 1:
        return ((1, 0),)
    index = _element_index(pres.group)
    return tuple((b, index[pres.element_of(b)]) for b in unit_residues(f))


def test_unit_classes_match_element_of():
    """The corpus, two fields of conductor 1 and the Q(zeta_p) levels up to
    dim 486 (p = 3), 100 (p = 5) and 294 (p = 7)."""
    presentations = [galois_group(spec) for spec in corpus_cm_specs(24)]
    presentations += [galois_group(AbelianFieldSpec.rationals()),
                      galois_group(AbelianFieldSpec(4, frozenset({1, 3})))]
    presentations += [tower_level(AbelianFieldSpec.cyclotomic(p), p, n)
                      for p, top in TOWER_LEVELS for n in range(top + 1)]
    for pres in presentations:
        assert pres.unit_classes == unit_classes_reference(pres), pres.spec.label


def test_theta_value_reads_only_the_unit_class_table(monkeypatch):
    """On warm presentations, with S = S_ram + oo and T empty (no Frobenius
    to take), theta's plan classifies no residue and lists no unit group,
    its tables built afresh."""
    cases = [(galois_group(spec), ramified_primes(spec)) for spec in corpus_cm_specs(12)]
    cases += [(tower_level(AbelianFieldSpec.cyclotomic(3), 3, 3), {3})]

    def values():
        return [apply_plan(pres, theta_plan(s_fin, set(), r))
                for pres, s_fin in cases for r in (0, -2)]

    expected = values()
    fresh_zeta_tables(monkeypatch)

    def refuse(*args):
        pytest.fail("a unit residue was classified or listed")

    assert not hasattr(lvalues, "unit_residues")
    monkeypatch.setattr(abelian.GaloisData, "element_of", refuse)
    for module in (numutil, abelian):
        monkeypatch.setattr(module, "unit_residues", refuse)
    assert values() == expected


def test_field_data_is_built_once_per_spec():
    """One pass of theta_tower and the parity check over TOWER_CORPUS builds
    w_L and its primes once per layer 0, the only layer whose Hyp verdict is
    read, and the CM structure once per base field, which the parity table
    of each level reads."""
    tables = (abelian.cm_data, abelian.roots_of_unity_order, abelian.roots_of_unity_primes,
              tower._conjugate_pairs)
    for table in tables:
        table.cache_clear()
    for spec, p, S, T in campaigns.TOWER_CORPUS:
        t = theta_tower(spec, S, T, p, 3, 2, -1)
        assert all(parity_projector_annihilates(t, n) for n in range(3))
    bases = {spec for spec, *_ in campaigns.TOWER_CORPUS}
    layers = {tower_level(spec, p, 0).spec for spec, p, *_ in campaigns.TOWER_CORPUS}
    cm, w, primes, pairs = (table.cache_info() for table in tables)
    assert (cm.misses, w.misses, primes.misses) == (len(bases), len(layers), len(layers))
    assert len(bases) == len(layers) == 4 and pairs.misses == 3 * len(bases)
    assert cm.hits > 0 and primes.hits > 0 and pairs.hits > 0


# ---------------------------------------------------------------------------
# The cross-checks see a bad unit-class table: two classes that swap indices.

def swapped_tables(pres):
    """pres.unit_classes with the indices of two residues of different
    classes swapped, for each such pair in turn."""
    table = pres.unit_classes
    for (s, (a, i)), (t, (b, j)) in itertools.combinations(enumerate(table), 2):
        if i != j:
            bad = list(table)
            bad[s], bad[t] = (a, j), (b, i)
            yield tuple(bad)


def test_a_swapped_unit_class_breaks_the_character_cross_check(monkeypatch):
    """theta reads the table of Q(zeta_7) and changes; theta_character_side
    does not read it, so decompose(theta) no longer matches it, and the
    character campaign records the mismatch."""
    spec = next(s for s in corpus_cm_specs(7) if s.modulus == 7 and len(s.fixing) == 1)
    pres = galois_group(spec)
    table = CharacterTable(pres.group)
    S, T = max(corpus_st_choices(spec), key=lambda st: len(st[0]) + len(st[1]))
    good = theta(spec, S, T, -1).value
    components = theta_character_side(spec, S, T, -1)
    assert table.decompose(good) == components
    monkeypatch.setattr(pres, "unit_classes", next(swapped_tables(pres)))
    fresh_zeta_tables(monkeypatch)
    bad = theta(spec, S, T, -1).value
    assert bad != good
    assert theta_character_side(spec, S, T, -1) == components
    assert table.decompose(bad) != components
    assert campaigns.character_campaign(7).failures > 0


@pytest.mark.parametrize("row", [0, 6], ids=["Q(zeta_3)", "Q(zeta_12)"])
def test_a_swapped_unit_class_on_a_tower_level_is_caught(monkeypatch, row):
    """Every swap in the table of level 1: theta_tower refuses a layer whose
    theta is no longer p-integral (each swap over Q(zeta_3)), and where it
    stays p-integral (some swaps over Q(zeta_12)), coherence or the Kummer
    congruence fails."""
    spec, p, S, T = campaigns.TOWER_CORPUS[row]
    level = tower_level(spec, p, 1)
    tables = fresh_zeta_tables(monkeypatch)
    checked = 0
    for bad in swapped_tables(level):
        monkeypatch.setattr(level, "unit_classes", bad)
        tables.cache_clear()
        try:
            t_r, t_0 = (theta_tower(spec, S, T, p, 3, 1, r) for r in (-1, 0))
        except TowerIntegralityError:
            continue
        checked += 1
        assert not (coherence_check(t_r)[0] and coherence_check(t_0)[0]
                    and twist_congruence_check(t_r, t_0)[0])
    assert checked == (0 if row == 0 else 6)
    assert campaigns.tower_coherence_campaign().failures > 0


# ---------------------------------------------------------------------------
# Group algebras on the group law: products, # and the regular rows read the
# group's shared table; the dense dim x dim table of unit vectors, and the
# element route through group.mul, are the oracle.

def regular_rows_reference(x, group, q):
    """Row j of multiplication by x through group.mul: x_i at g_i g_j."""
    elems, index = list(group.elements()), _element_index(group)
    rows = []
    for h in elems:
        row = [0] * group.size
        for g, c in zip(elems, x):
            row[index[group.mul(g, h)]] = c % q
        rows.append(row)
    return rows


Z3 = AbelianFieldSpec.cyclotomic(3)
# with (2,), (2, 9) and (2, 27): the groups of the Q(zeta3) tower levels 0 to 5
DENSE_ORDERS = REFERENCE_ORDERS + [(2, 1), (2, 3), (2, 81), (2, 243)]


@pytest.mark.parametrize("orders", DENSE_ORDERS, ids=str)
def test_group_algebras_match_the_dense_construction(orders):
    """Up to dim 54, over Z/8 and Z/9: the products of basis pairs, the unit,
    # and algebra_json byte for byte against the dense JSON, and so every
    minus quotient; up to dim 18 products of random elements, the regular
    rows, split and realize too; Z/8 and Z/25 beside the trivial group. Over
    Z/9 up to dim 486: mul against the dense table (above dim 54, where it
    has dim^3 entries, against sum_k y_k (x g_k) with a sparse y), the
    regular rows and # against the element route."""
    group = FiniteAbelianGroup(orders)
    dim = group.size
    involutions = [
        j for j in group.elements() if j != group.identity and group.mul(j, j) == group.identity
    ]
    assert bool(involutions) == (dim % 2 == 0)
    for p, N in ((2, 3), (3, 2)) if dim <= 54 else ((3, 2),):
        alg, q, rng = GroupAlgebra(p, N, group), p**N, random.Random(dim)
        ref = group_algebra_reference(p, N, group) if dim <= 54 else None
        if ref:
            check_against_reference(alg, ref)
            if dim <= 18:
                check_products_against_dense(alg, ref["mult"])
            for j in involutions:
                quotient, proj = minus_quotient(alg, j)
                quotient_ref, images = minus_quotient_reference(p, N, group, j)
                check_against_reference(quotient, quotient_ref)
                assert [list(v) for v in proj.images] == images
        x = distinct_coefficients(group, rng)
        rows = regular_rows_reference(x, group, q)
        for _ in range(2):
            y = [0] * dim
            for k in rng.sample(range(dim), dim if dim <= 54 else 4):
                y[k] = rng.randrange(-q, 2 * q)
            if ref:
                expected = mul_reference(ref["mult"], q, x, y)
            else:  # sum_k y_k (x g_k)
                expected = tuple(sum(c * row[i] for c, row in zip(y, rows) if c) % q
                                 for i in range(dim))
            assert alg.mul(x, tuple(y)) == expected
        assert alg.regular_rows(x) == rows
        assert alg.sharp_of(x) == tuple(c % q for c in sharp_reference(x, group))
        assert not hasattr(alg, "terms") and not hasattr(alg, "sharp_images")
    if dim == 1:
        for p, N in ((2, 3), (5, 2)):
            check_against_reference(zmod_algebra(p, N), zmod_reference(p, N))


def test_same_algebra_reads_the_group_law():
    """Two group algebras are the same when (p, N) and the group orders agree
    (up to cyclic factors of order 1), and so is a from_json copy of either;
    neither has `terms`."""
    c2c9 = FiniteAbelianGroup((2, 9))
    alg = GroupAlgebra(3, 2, c2c9)
    twin = GroupAlgebra(3, 2, FiniteAbelianGroup((2, 9)))
    assert same_algebra(alg, twin)
    assert not hasattr(alg, "terms") and not hasattr(twin, "terms")
    copy = FiniteCommAlgebra.from_json(algebra_json(GroupAlgebra(3, 2, c2c9)))
    assert same_algebra(alg, copy) and same_algebra(copy, alg)
    others = [GroupAlgebra(3, 3, c2c9), GroupAlgebra(2, 2, c2c9)]
    others += [GroupAlgebra(3, 2, FiniteAbelianGroup(o)) for o in ((18,), (9, 2), (2, 3, 3))]
    for other in others:
        assert not same_algebra(alg, other) and not same_algebra(other, alg)
        assert not same_algebra(copy, other) and not same_algebra(other, copy)
    # a cyclic factor of order 1 changes neither the basis order nor the table
    orders = ((2, 1), (2,), (1, 2), (4,), (2, 2))
    algebras = [GroupAlgebra(3, 2, FiniteAbelianGroup(o)) for o in orders]
    for a in algebras:
        for b in algebras:
            assert same_algebra(a, b) == same_algebra(a, FiniteCommAlgebra.from_json(algebra_json(b)))
    assert same_algebra(algebras[0], algebras[1]) and same_algebra(algebras[2], algebras[1])
    assert not same_algebra(algebras[3], algebras[4])


def _round_trip_algebras():
    c6 = GroupAlgebra(3, 2, FiniteAbelianGroup((6,)))
    fixture = json.loads((Path(__file__).parent / "fixtures" / "complex_z9.json").read_text())
    algebras = [
        c6,
        FiniteCommAlgebra.from_json(algebra_json(c6)),
        minus_quotient(GroupAlgebra(3, 2, FiniteAbelianGroup((2, 2))), (1, 0))[0],
        zmod_algebra(2, 3),
        FiniteCommAlgebra.from_json(fixture["algebra"]),
        FiniteCommAlgebra.from_json(monogenic_algebra_json(3, 2, (2, 3))),
    ]
    return [pytest.param(alg, id=f"{type(alg).__name__}-{alg.name}") for alg in algebras]


@pytest.mark.parametrize("alg", _round_trip_algebras())
def test_algebras_round_trip_through_json_by_their_operations(alg):
    """algebra_json reads mul and sharp_of: the copy it writes is the same algebra
    both ways round, both pass validate, and only a group algebra has a
    Pontryagin dual (its route reads the trace form): any other algebra, with
    # (a minus quotient, a from_json copy) or without, is refused for being
    no group algebra."""
    copy = FiniteCommAlgebra.from_json(algebra_json(alg))
    assert same_algebra(copy, alg) and same_algebra(alg, copy)
    assert copy.has_sharp == alg.has_sharp
    alg.validate()
    copy.validate()
    M = principal_module(alg, alg.scalar(alg.p, alg.one))
    if not isinstance(alg, GroupAlgebra):
        with pytest.raises(ValueError, match="^pontryagin dual needs a group algebra, not "):
            fitting.pontryagin_dual(M)
    else:
        assert fitting.pontryagin_dual(M).size() == M.size()


@pytest.mark.parametrize("orders", [(2, 9), (9,), (2, 27)], ids=str)
def test_group_algebra_use_builds_no_structure_table(orders):
    """Products, regular rows, #, a Fitting ideal, its product and sharp and an
    ideal comparison across two builds (unequal: equal ideals lie over one
    algebra object, on one span) give neither algebra `terms` or
    `sharp_images`."""
    alg = GroupAlgebra(3, 2, FiniteAbelianGroup(orders))
    twin = GroupAlgebra(3, 2, FiniteAbelianGroup(orders))
    rng = random.Random(alg.dim)
    x, y = (tuple(rng.randrange(alg.q) for _ in range(alg.dim)) for _ in range(2))
    alg.mul(x, y)
    alg.regular_rows(x)
    alg.sharp_of(x)
    I = principal_module(alg, x).fitting_ideal
    assert I != IdealHandle(twin, [x]) and I.howell == IdealHandle(twin, [x]).howell
    assert I.product(I.sharp()).contains(IdealHandle(alg, [alg.mul(x, alg.sharp_of(x))]))
    for a in (alg, twin):
        assert not hasattr(a, "terms") and not hasattr(a, "sharp_images")


# ---------------------------------------------------------------------------
# Homology sizes and quasi-isomorphism by span comparison: each kernel span
# built and compared with an image span.

C2_GROUP = FiniteAbelianGroup((2,))


def homology_sizes_reference(maps):
    """fitting.homology_sizes by the kernel-span quotient |Z| / |B| at each
    module of 0 -> A_0 -> ... -> A_k -> 0, Z = ker f_(i+1) and B = im f_i
    (the outer maps zero); None where B is not inside Z."""
    alg = maps[0].src.algebra
    zero = FinPresModule(alg, 0, [])
    outer = [fitting.zero_map(zero, maps[0].src), *maps, fitting.zero_map(maps[-1].dst, zero)]
    sizes = []
    for f, g in zip(outer, outer[1:]):
        Z, B = g.kernel_span, f.image_span
        inside = howell_form(Z + B, g.src.rwidth, alg.q) == Z
        sizes.append(span_size(Z, alg.q) // span_size(B, alg.q) if inside else None)
    return sizes


def inexact_reference(names, maps):
    """The refusal of the first named module where the reference homology is
    not 1, or None."""
    return next((f"sequence is not exact at {name}"
                 for name, size in zip(names, homology_sizes_reference(maps)) if size != 1), None)


FOUR_TERM = ("M", "C", "C'", "M'")


def quasi_iso_reference(f):
    """Injective on H^i: the preimage in the src cocycles of the dst
    coboundaries is exactly the src coboundaries; onto: the mapped cocycles
    and the dst coboundaries span the dst cocycles."""
    f.validate()
    src, dst = f.src, f.dst
    q = src.algebra.q
    for i in range(min(src.lo, dst.lo), max(src.hi, dst.hi) + 1):
        ws, wd = src.module_at(i).rwidth, dst.module_at(i).rwidth
        Zs, Bs = src.differential_at(i).kernel_span, src.differential_at(i - 1).image_span
        Zd, Bd = dst.differential_at(i).kernel_span, dst.differential_at(i - 1).image_span
        mapped = [linalg.combine(z, f.at(i).realization_rows, wd, q) for z in Zs]
        pre_b = linalg.preimage_span(mapped, Bd, wd, q)
        amb = [linalg.combine(y, Zs, ws, q) for y in pre_b]
        if howell_form(amb + Bs, ws, q) != howell_form(Bs, ws, q):
            return False
        if howell_form(mapped + Bd, wd, q) != Zd:
            return False
    return True


def refusal(check, *args):
    """The message check raises, or None when it accepts."""
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


class Exact(Exception):
    """four_term_check has passed its exactness checks and takes the dual."""


def test_four_term_exactness_matches_reference_on_the_campaign(monkeypatch):
    """Every four-term instance of AC5 (seed 2026 + 3, 600 trials), and every
    fourth one again with beta replaced by a random multiplication. The lemma
    itself is AC5's; here four_term_check stops where it takes the dual."""
    rng = random.Random(7)
    corpus, perturbed = [], []

    def exact(M):
        raise Exact

    def counting(*args):
        try:
            fitting.four_term_check(*args)
        except Exact:
            return None
        except ValueError as exc:
            return str(exc)
        pytest.fail("four_term_check returned before taking the dual")

    def compare(seen, args):
        seen.append(inexact_reference(FOUR_TERM, args[4:]))
        assert counting(*args) == seen[-1]

    def checked(M, C, Cp, Mp, alpha, beta, gamma):
        compare(corpus, (M, C, Cp, Mp, alpha, beta, gamma))
        if len(corpus) % 4 == 0:
            z = tuple(rng.randrange(C.algebra.q) for _ in range(C.algebra.dim))
            compare(perturbed, (M, C, Cp, Mp, alpha, fitting.multiplication_map(C, z), gamma))
        return corpus[-1] is None

    monkeypatch.setattr(fitting, "pontryagin_dual", exact)
    monkeypatch.setattr(campaigns, "four_term_check", checked)
    result = campaigns.fitting_four_term_campaign(2026 + 3, 600)
    assert result.trials == 600 and result.failures == 0, result.details
    assert corpus == [None] * 600 and len(perturbed) == 150
    assert set(perturbed) == {None, "sequence is not exact at C"}


def test_homology_sizes_match_the_reference_on_the_campaigns(campaign_records):
    """Every degree of every complex that the AC5/AC6 slices build, and every
    degree of every short exact sequence of AC6's additivity suite (seed
    2026 + 1, 100 trials), all exact."""
    built, sequences = campaign_records.complexes, campaign_records.sequences
    assert sum(len(C.degrees()) for C in built) > 1000 and len(sequences) == 100
    for C in built:
        for i in C.degrees():
            maps = [C.differential_at(i - 1), C.differential_at(i)]
            assert C.cohomology_size(i) == homology_sizes_reference(maps)[1]
    for ses in sequences:
        ses.verify_exact()
        cs = (ses.c1, ses.c2, ses.c3)
        for i in range(min(c.lo for c in cs), max(c.hi for c in cs) + 1):
            maps = [ses.inc.at(i), ses.quo.at(i)]
            assert fitting.homology_sizes(maps) == homology_sizes_reference(maps) == [1, 1, 1]


def test_quasi_iso_matches_reference_on_random_chain_maps():
    rng = random.Random(720)
    verdicts = []
    for alg in (GroupAlgebra(3, 2, C2_GROUP), GroupAlgebra(2, 3, C2_GROUP),
                GroupAlgebra(3, 2, FiniteAbelianGroup((2, 2)))):
        for _ in range(60):
            for f in _random_chain_maps(alg, rng):
                verdicts.append(complexes.quasi_iso_check(f))
                assert verdicts[-1] == quasi_iso_reference(f)
    assert len(verdicts) == 720 and True in verdicts and False in verdicts


def _four_term_refusals():
    """One sequence 0 -> M -> C -> C' -> M' -> 0 over (Z/9)[C2] per refusal,
    failing there first. C = C' = A/(3) = F_3 e+ x F_3 e- with the idempotents
    e+- = (1 +- s)/2, so 1 + s and 1 - s act on C with image and kernel one
    part each."""
    alg = GroupAlgebra(3, 2, C2_GROUP)
    one, zero, s = alg.one, alg.zero(), alg.group_element_vector((1,))
    plus, minus = alg.add(one, s), alg.sub(one, s)
    three = alg.scalar(3, one)
    C = principal_module(alg, three)
    F = FinPresModule(alg, 1, [])
    O = FinPresModule(alg, 0, [])
    Mplus = FinPresModule(alg, 1, [[three], [minus]])  # F_3 with s = 1
    Mminus = FinPresModule(alg, 1, [[three], [plus]])  # F_3 with s = -1
    ident = fitting.identity_map(C)
    into_C = fitting.zero_map(O, C)

    def mult(M, N, a):
        return fitting.ModuleMap(M, N, [[a]])

    return [
        # alpha: A -> A/(3) is not injective
        ("sequence is not exact at M", (F, C, C, C, mult(F, C, one), ident, ident)),
        # beta = 0: ker beta = C while im alpha = 0
        ("sequence is not exact at C", (O, C, C, C, into_C, mult(C, C, zero), ident)),
        # |im alpha| |im beta| = 3 * 3 = |C|, but beta alpha = (1 + s)^2 != 0
        ("sequence is not exact at C",
         (Mplus, C, C, Mminus, mult(Mplus, C, plus), mult(C, C, plus), mult(C, Mminus, one))),
        # exact at C; |im beta| |im gamma| = 3 * 3 = |C'|, but gamma beta = 1 - s != 0
        ("sequence is not exact at C'",
         (Mplus, C, C, Mminus, mult(Mplus, C, plus), mult(C, C, minus), mult(C, Mminus, one))),
        # exact at C; gamma = 0 and im beta = F_3 e-: |C'| / (3 * 1) = 3
        ("sequence is not exact at C'",
         (Mplus, C, C, O, mult(Mplus, C, plus), mult(C, C, minus), fitting.zero_map(C, O))),
        # exact at M, C and C'; gamma = 0 onto M' = C
        ("sequence is not exact at M'", (O, C, C, C, into_C, ident, mult(C, C, zero))),
    ]


@pytest.mark.parametrize("message, args", _four_term_refusals())
def test_four_term_refusals_match_the_reference(message, args):
    assert inexact_reference(FOUR_TERM, args[4:]) == message == refusal(fitting.four_term_check, *args)


def _verify_exact_refusals():
    """One-degree sequences C1 -> C2 -> C3 over (Z/9)[C2] with C = A/(3), one
    per refusal, failing there first."""
    alg = GroupAlgebra(3, 2, C2_GROUP)
    one, zero = alg.one, alg.zero()
    C = principal_module(alg, alg.scalar(3, one))
    CC = C.direct_sum(C)

    def ses(M1, M2, M3, f, g):
        c1, c2, c3 = (complexes.BoundedComplex(alg, 0, [M], []) for M in (M1, M2, M3))
        return complexes.ComplexSES(
            c1, c2, c3,
            complexes.ChainMap(c1, c2, {0: fitting.ModuleMap(M1, M2, f)}),
            complexes.ChainMap(c2, c3, {0: fitting.ModuleMap(M2, M3, g)}),
        )

    first, second = [[one, zero]], [[zero, one]]
    project = [[one], [zero]]
    return [
        ("sequence is not exact at C1^0", ses(C, CC, C, [[zero, zero]], project)),
        # g f = 1 != 0
        ("sequence is not exact at C2^0", ses(C, C, C, [[one]], [[one]])),
        # g = 0: |C2| / (|im f| |im g|) = 81 / 9
        ("sequence is not exact at C2^0", ses(C, CC, C, first, [[zero], [zero]])),
        ("sequence is not exact at C3^0", ses(C, C, C, [[one]], [[zero]])),
        (None, ses(C, CC, C, second, project)),
    ]


@pytest.mark.parametrize("message, seq", _verify_exact_refusals())
def test_verify_exact_refusals_match_the_reference(message, seq):
    maps = [seq.inc.at(0), seq.quo.at(0)]
    assert inexact_reference(("C1^0", "C2^0", "C3^0"), maps) == message == refusal(seq.verify_exact)


def test_exactness_checks_compute_no_kernel_span(monkeypatch):
    """The counting routes decide exactness and acyclicity from image sizes
    and zero maps: four_term_check, verify_exact, and is_acyclic on A -3-> A
    over (Z/9)[C2] (not acyclic) and on its cone of the identity (acyclic)."""
    sequences = [args for _, args in _four_term_refusals()]
    additivity = [seq for _, seq in _verify_exact_refusals()]
    alg = GroupAlgebra(3, 2, C2_GROUP)
    F = FinPresModule(alg, 1, [])
    K = complexes.BoundedComplex(alg, 0, [F, F], [fitting.multiplication_map(F, alg.scalar(3, alg.one))])
    cone = complexes.cone(complexes.ChainMap(K, K, {i: fitting.identity_map(F) for i in (0, 1)}))
    monkeypatch.setattr(linalg, "preimage_span", lambda *a: pytest.fail("a kernel span was built"))
    monkeypatch.setattr(fitting, "preimage_span", lambda *a: pytest.fail("a kernel span was built"))
    for args in sequences:
        refusal(fitting.four_term_check, *args)
    for seq in additivity:
        refusal(seq.verify_exact)
    assert not K.is_acyclic() and cone.is_acyclic()


# ---------------------------------------------------------------------------
# Kernel spans: the former union form, the preimage joined with the src
# relations and formed again, is the oracle of the preimage alone, which
# holds the src relations when the map is well defined.

def kernel_span_reference(f):
    q = f.src.algebra.q
    preimage = linalg.preimage_span(f.realization_rows, f.dst.relation_span, f.dst.rwidth, q)
    return howell_form(preimage + f.src.relation_span, f.src.rwidth, q)


def test_kernel_span_matches_the_union_form_on_the_campaigns(campaign_records):
    """Every map whose kernel span the AC5/AC6 slices read: differentials,
    zero maps and multiplication maps, some with src relations."""
    kernels = campaign_records.kernels
    assert len(kernels) > 1000
    assert sum(bool(f.src.relation_span) for f, _ in kernels) >= 60
    for f, span in kernels:
        assert span == kernel_span_reference(f)


def well_defined_maps(rng, alg):
    """Maps out of modules with relations: multiplications, quotient maps onto
    more relations, and maps M -> N with matrix X where N's relations are
    M's times X plus random rows, each also as the differential of a
    two-term complex."""
    mul, add = alg.mul, alg.add

    def times(row, X):
        out = [alg.zero()] * len(X[0])
        for a, x_row in zip(row, X):
            out = [add(o, mul(a, x)) for o, x in zip(out, x_row)]
        return out

    maps = []
    for _ in range(6):
        M = campaigns._random_module(alg, rng)
        z = campaigns._random_element(alg, rng)
        extra = [[campaigns._random_element(alg, rng) for _ in range(M.ngens)]]
        m = rng.randint(1, 2)
        X = [[campaigns._random_element(alg, rng) for _ in range(m)] for _ in range(M.ngens)]
        N = FinPresModule(alg, m, [times(row, X) for row in M.relations]
                          + [[campaigns._random_element(alg, rng) for _ in range(m)]])
        maps += [
            fitting.multiplication_map(M, z),
            fitting.ModuleMap(M, FinPresModule(alg, M.ngens, M.relations + extra),
                              fitting.identity_map(M).matrix),
            fitting.ModuleMap(M, N, X),
        ]
    complexes_of = [complexes.BoundedComplex(alg, 0, [f.src, f.dst], [f]) for f in maps]
    return maps + [C.differential_at(0) for C in complexes_of]


@pytest.mark.parametrize("alg", [
    minus_quotient(GroupAlgebra(3, 2, FiniteAbelianGroup((2, 2))), (1, 0))[0],
    FiniteCommAlgebra.from_json(algebra_json(GroupAlgebra(3, 2, FiniteAbelianGroup((3,))))),
], ids=["minus-quotient", "from-json"])
def test_kernel_span_matches_the_union_form_off_group_algebras(alg):
    """The campaigns draw only group algebras: here a minus quotient of
    (Z/9)[C2 x C2] and a from_json copy of (Z/9)[C3]."""
    rng = random.Random(alg.dim * alg.q)
    maps = well_defined_maps(rng, alg)
    proper = 0
    for f in maps:
        assert f.is_well_defined() and f.src.relation_span
        assert f.kernel_span == kernel_span_reference(f)
        proper += f.kernel_span != f.src.relation_span
    assert proper >= 6


def test_maps_that_are_not_well_defined_are_refused_before_a_kernel_is_read(monkeypatch):
    """A differential that is not well defined is refused by BoundedComplex,
    and a chain-map level that is not well defined by quasi_iso_check, each
    before any kernel span is formed. Over Z/9: A/(3) -1-> A sends 3 to 3."""
    alg = zmod_algebra(3, 2)
    one = alg.one
    C, F = principal_module(alg, alg.scalar(3, one)), FinPresModule(alg, 1, [])
    bad = fitting.ModuleMap(C, F, [[one]])
    assert not bad.is_well_defined()
    free_complex = complexes.BoundedComplex(alg, 0, [F], [])
    quotient_complex = complexes.BoundedComplex(alg, 0, [C], [])
    monkeypatch.setattr(fitting, "preimage_span", lambda *a: pytest.fail("a kernel span was built"))
    with pytest.raises(ValueError, match="^differential in degree 0 is not well defined$"):
        complexes.BoundedComplex(alg, 0, [C, F], [bad])
    chain = complexes.ChainMap(quotient_complex, free_complex, {0: bad})
    with pytest.raises(ValueError, match="^chain map level 0 is not well defined$"):
        complexes.quasi_iso_check(chain)


# ---------------------------------------------------------------------------
# Units: over a local algebra the Howell route of FiniteCommAlgebra.is_unit,
# which the augmentation test replaced, is the oracle; elsewhere
# GroupAlgebra.is_unit is that route itself, and the residue route through
# F_p[Delta] is.

def residue_is_unit(alg):
    """A second unit test, x -> whether x is a unit: through F_p[Delta],
    Delta = G / P the prime-to-p quotient. The kernel of (Z/p^N)[G] ->
    F_p[Delta] is generated by p and the h - 1 with h in the p-Sylow P, so
    it is nilpotent and x is a unit iff its image is; the image is tested by
    the Howell route of width |Delta| over F_p, not of width dim over Z/p^N,
    once per image."""
    orders = alg.group.orders
    delta = FiniteAbelianGroup(tuple(o // math.gcd(o, alg.p ** o.bit_length()) for o in orders))
    residue = GroupAlgebra(alg.p, 1, delta)
    images, verdicts = groupring.reduction(alg.group, delta), {}

    def is_unit(x):
        image = tuple(c % alg.p for c in groupring.push(x, images, residue.dim))
        if image not in verdicts:
            verdicts[image] = FiniteCommAlgebra.is_unit(residue, image)
        return verdicts[image]

    return is_unit


def unit_reference(alg):
    if alg.local:
        return partial(FiniteCommAlgebra.is_unit, alg)
    return residue_is_unit(alg)


# (p, N, orders, samples): every element where samples is None, else that
# many random elements and multiples of g - 1 plus a p-multiple of 1, then a
# unit, three non-units and, where Delta has an element h of order below p,
# the norm of h: its augmentation is a unit, yet it vanishes at every
# character psi of Delta with psi(h) != 1
UNIT_ALGEBRAS = [
    (3, 2, (3,), None), (2, 3, (2,), None), (2, 2, (2, 2), None), (3, 3, (), None),
    (3, 2, (2,), None), (3, 2, (2, 2), None), (2, 3, (3,), None), (2, 2, (6,), None),
    (3, 1, (3, 2), None), (2, 1, (2, 5), None), (5, 1, (2, 2), None),
    (3, 2, (27,), 200), (3, 2, (2, 9), 200), (3, 2, (6, 3), 200), (3, 2, (20,), 200),
    (3, 2, (4,), 24), (3, 2, (5,), 24), (3, 2, (9, 3), 24), (5, 2, (3,), 24), (5, 1, (2, 3), 24),
    (3, 3, (18,), 24), (5, 2, (20,), 24), (5, 2, (2, 10), 24), (7, 2, (42,), 12),
    (7, 1, (3, 14), 12),
]


def delta_norm(alg):
    """The norm 1 + h + ... of an element h != 1 of order below p, or None."""
    h = next((alg.basis_element(i) for i, g in enumerate(alg.group.elements())
              if 1 < math.lcm(*(o // math.gcd(o, e) for e, o in zip(g, alg.group.orders))) < alg.p),
             None)
    return None if h is None else norm_of(alg, h)


@pytest.mark.parametrize("p, N, orders, samples", UNIT_ALGEBRAS, ids=str)
def test_is_unit_matches_the_reference(p, N, orders, samples):
    alg = group_algebra(p, N, orders)
    if samples is None:
        elements = list(alg.elements())
    else:
        rng = random.Random(alg.dim)
        elements = []
        for _ in range(samples):
            x = tuple(rng.randrange(alg.q) for _ in range(alg.dim))
            if rng.randrange(3) == 0:
                g = alg.basis_element(rng.randrange(1, alg.dim))
                x = alg.add(alg.mul(alg.sub(g, alg.one), x), alg.scalar(p * rng.randrange(p), alg.one))
            elements.append(x)
        unit, non_units = unit_and_non_units(rng, alg)
        norm = delta_norm(alg)
        special = [unit, *non_units] + ([norm] if norm is not None else [])
        assert norm is None or sum(norm) % p != 0
        elements += special
    verdicts = [alg.is_unit(x) for x in elements]
    assert verdicts == list(map(unit_reference(alg), elements))
    if samples is None and alg.local:  # the units are the elements off the maximal ideal
        assert verdicts.count(True) * p == alg.q**alg.dim * (p - 1)
    elif samples is not None:
        assert verdicts[samples:] == [True] + [False] * (len(special) - 1)
    assert set(verdicts) == {True, False}


def identity_rows(dim):
    return [[int(i == j) for j in range(dim)] for i in range(dim)]


def test_a_whole_ideal_takes_no_howell_form(monkeypatch):
    """Over a local algebra an ideal with a unit generator, and a product of
    two such, is the ring: its form is the identity rows."""
    cases = []
    for p, N, orders in ((3, 2, (3,)), (2, 3, (2,)), (2, 2, (2, 2)), (3, 2, (9,)), (3, 3, ()),
                         (3, 2, (27,))):
        alg = group_algebra(p, N, orders)
        rng = random.Random(alg.dim)
        unit, non_units = unit_and_non_units(rng, alg)
        I = IdealHandle(alg, non_units + [unit])
        cases.append((alg, I, I.product(IdealHandle(alg, [unit, non_units[0]]))))

    def refused(*args):
        pytest.fail("a whole ideal took a Howell form")

    monkeypatch.setattr(fitting, "howell_form", refused)
    for alg, I, product in cases:
        for whole in (I, product):
            assert whole == unit_ideal(alg) and whole.contains(unit_ideal(alg))
            assert whole.howell == identity_rows(alg.dim)
    monkeypatch.undo()
    for alg, I, product in cases:
        assert ideal_howell_reference(I) == ideal_howell_reference(product) == identity_rows(alg.dim)


def test_the_level_fitting_body_takes_no_width_27_form(monkeypatch):
    """tower_fitting_check and multiplicativity over the Q(zeta3) tower at
    p = 3, N = 2 up to (Z/9)[C2 x C27] (dim 54), at the four r of the
    benchmark's level-Fitting op. Each projected Fitting ideal and each
    product of Fitting ideals has the generator list of the ideal it meets,
    so no form of width 27 or 54 is eliminated."""
    widths = []

    def recorded(rows, width, q):
        widths.append(width)
        return howell_form(rows, width, q)

    monkeypatch.setattr(fitting, "howell_form", recorded)
    for r in (0, -1, -2, -3):
        t = theta_tower(Z3, [3, "oo"], [7], 3, 2, 3, r)
        algs = [GroupAlgebra(3, 2, level.group) for level in t.levels]
        mods = [principal_module(alg, entry) for alg, entry in zip(algs, t.entries)]
        projections = [
            group_algebra_morphism(algs[n + 1], algs[n], lambda g, n=n: t.levels[n + 1].project(g, n))
            for n in range(3)
        ]
        report = fitting.tower_fitting_check(mods, projections)
        top, x = algs[-1], t.entries[-1]
        M1, M2 = principal_module(top, x), principal_module(top, top.sharp_of(x))
        assert top.dim == 54 and report["ok"] and all(report["equal"])
        assert M1.direct_sum(M2).fitting_ideal == M1.fitting_ideal.product(M2.fitting_ideal)
    assert max(widths, default=0) < 27


# ---------------------------------------------------------------------------
# Group-algebra morphisms on basis indices: the former route, combine over
# the unit-vector images that group_element_vector gives, is the oracle.

@pytest.mark.parametrize("p, top", TOWER_LEVELS, ids=lambda v: str(v))
def test_group_algebra_morphisms_match_the_unit_vector_images(p, top):
    """Every aug projection of the Q(zeta_p) levels to the level below and to
    level 0, up to dim 486 (p = 3), 100 (p = 5) and 294 (p = 7): each basis
    element goes where the reference's unit-vector image sends it, and no
    image vector is stored."""
    rng = random.Random(p + top)
    spec = AbelianFieldSpec.cyclotomic(p)
    levels = [tower_level(spec, p, n) for n in range(top + 1)]
    algs = [GroupAlgebra(p, 2, level.group) for level in levels]
    for n in range(1, top + 1):
        src = algs[n]
        for m in {n - 1, 0}:
            def project(g, n=n, m=m):
                return levels[n].project(g, m)

            phi = group_algebra_morphism(src, algs[m], project)
            # the index map that tower_fitting_campaign hands GroupAlgebraMorphism
            assert phi.targets == list(groupring.reduction(src.group, algs[m].group))
            images = [algs[m].group_element_vector(project(g)) for g in src.basis]
            reference = fitting.AlgebraMorphism(src, algs[m], images)
            xs = [distinct_coefficients(src.group, rng), src.one]
            xs.append(tuple(rng.randrange(src.q) for _ in range(src.dim)))
            for x in xs:
                assert phi.apply(x) == reference.apply(x)
            assert [phi.apply(src.basis_element(i)) for i in range(src.dim)] == reference.images
            if src.dim <= 18:
                phi.check_homomorphism()


# ---------------------------------------------------------------------------
# Subquotient presentations: the former route, every Howell row of Z a
# generator and every row of the preimage span a relation, is the oracle of
# the presentation on the rows that generate Z modulo the radical.

def subquotient_presentation_reference(algebra, ncomp, z_rows, b_rows):
    """Z/B presented on every Howell row of Z, with every Howell row of the
    preimage span of those generators as a relation."""
    q = algebra.q
    width = algebra.dim * ncomp
    Zh = howell_form([list(r) for r in z_rows] + [list(r) for r in b_rows], width, q)
    Bh = howell_form([list(r) for r in b_rows], width, q)
    gens_ambient = [algebra.split(g) for g in Zh]
    act_rows = [r for g in gens_ambient for r in algebra.realize(g)]
    rel_flat = linalg.preimage_span(act_rows, Bh, width, q) if Zh else []
    module = FinPresModule(algebra, len(Zh), [algebra.split(w) for w in rel_flat])
    return fitting.SubquotientData(module, gens_ambient)


def residue_index(alg, width, Zh, Bh):
    """|Z/(mZ + B)| for m = (p, g - 1 for every group element g): the
    maximal ideal of a p-group algebra."""
    q = alg.q
    m = [alg.scalar(alg.p, alg.one)] + [alg.sub(alg.basis_element(i), alg.one) for i in range(1, alg.dim)]
    mz = [alg.flatten([alg.mul(x, e) for e in alg.split(z)]) for x in m for z in Zh]
    return span_size(Zh, q) // span_size(howell_form(mz + Bh, width, q), q)


def check_subquotient(alg, ncomp, z_rows, b_rows, sub):
    """The presentation against the reference: it presents a module of size
    |Z|/|B| whose generators span Z modulo B over A, on no more generators
    than the reference, with the reference's Fitting ideal where that has at
    most 1,000 minors; over a p-group algebra its generators number
    dim_F_p Z/(mZ + B). True when the Fitting ideals were compared."""
    q, width = alg.q, alg.dim * ncomp
    Zh = howell_form(z_rows + b_rows, width, q)
    Bh = howell_form(b_rows, width, q)
    M, ref = sub.module, subquotient_presentation_reference(alg, ncomp, z_rows, b_rows).module
    assert M.size() == span_size(Zh, q) // span_size(Bh, q)
    assert len(sub.gens_ambient) == M.ngens
    realized = [r for g in sub.gens_ambient for r in alg.realize(g)]
    assert howell_form(realized + Bh, width, q) == Zh
    assert M.ngens <= ref.ngens
    if alg.local:
        assert residue_index(alg, width, Zh, Bh) == alg.p**M.ngens
    if math.comb(len(ref.relations), ref.ngens) > 1000:
        return False
    assert M.fitting_ideal == ref.fitting_ideal
    return True


def test_subquotient_presentation_matches_reference_on_the_campaigns(campaign_records):
    """Every cohomology module of the AC6 slice and every kernel module of
    the AC5 four-term slice."""
    presented = campaign_records.presented
    compared = [check_subquotient(*args) for args in presented]
    assert len(compared) > 1000 and sum(compared) > len(compared) // 2
    assert {alg.name for alg, *_ in presented} >= {"(Z/3^2)(2,)", "(Z/2^3)(2,)", "(Z/3^2)(2, 2)"}
    assert any(sub.module.ngens < len(howell_form(z + b, alg.dim * n, alg.q))
               for alg, n, z, b, sub in presented)


def random_submodule_rows(rng, alg, ncomp, k):
    """The realized rows of k random elements of A^ncomp, each entry a
    random element, a p-power multiple, a multiple of b - 1 for a basis
    element b, or zero, so that the spans are proper."""
    rows = []
    for _ in range(k):
        row = []
        for _ in range(ncomp):
            x = tuple(rng.randrange(alg.q) for _ in range(alg.dim))
            kind = rng.randrange(4)
            if kind == 1:
                x = alg.scalar(alg.p ** rng.randint(1, alg.N), x)
            elif kind == 2:
                x = alg.mul(alg.sub(alg.basis_element(rng.randrange(alg.dim)), alg.one), x)
            elif kind == 3:
                x = alg.zero()
            row.append(x)
        rows += alg.realize(row)
    return rows


def _subquotient_algebras():
    c3 = group_algebra(3, 2, (3,))
    algebras = [
        group_algebra(2, 3, (2,)), c3, group_algebra(3, 2, (2,)), group_algebra(3, 2, (2, 2)),
        minus_quotient(group_algebra(3, 2, (2, 2)), (1, 0))[0],
        FiniteCommAlgebra.from_json(algebra_json(c3)),
    ]
    return [pytest.param(alg, id=f"{type(alg).__name__}-{alg.name}") for alg in algebras]


def check_nakayama_steps(alg, ncomp, z_rows, b_rows):
    """Both Nakayama selections of a subquotient presentation, and the
    preimage span between them, against their references: the generators
    of Z/B, the relations of those generators and the relation module they
    generate. Returns how many generators were kept."""
    q, width = alg.q, alg.dim * ncomp
    Zh = howell_form(z_rows + b_rows, width, q)
    Bh = howell_form(b_rows, width, q)
    gens = fitting._nakayama_rows(alg, width, Zh, Bh)
    assert gens == nakayama_rows_reference(alg, width, Zh, Bh)
    act_rows = [r for g in gens for r in alg.realize(alg.split(g))]
    rel_flat = linalg.preimage_span(act_rows, Bh, width, q)
    assert rel_flat == preimage_span_reference(act_rows, Bh, width, q)
    t_width = alg.dim * len(gens)
    relations = fitting._nakayama_rows(alg, t_width, rel_flat, [])
    assert relations == nakayama_rows_reference(alg, t_width, rel_flat, [])
    return len(gens)


def test_nakayama_and_preimage_match_their_references_on_the_campaigns(campaign_records):
    """Every subquotient that the AC5/AC6 slices present, over local and
    non-local algebras."""
    presented = campaign_records.presented
    kept = [check_nakayama_steps(alg, n, z, b) for alg, n, z, b, _ in presented]
    assert len(kept) > 1000 and any(kept)
    assert any(alg.local for alg, *_ in presented) and not all(alg.local for alg, *_ in presented)


def test_howell_kernel_matches_the_reference_on_the_campaigns(monkeypatch):
    """Every form that a slice of the AC5 and AC6 campaigns takes, checked
    as it is taken; the multiplicativity and base-change suites read every
    form through one kernel, so a wrong form would not change their
    verdicts. Every form keeps the kernel's row contract: no row is shorter
    than the width."""
    fast, seen = linalg.howell_form, []

    def checked(rows, width, q):
        assert all(len(r) >= width for r in rows)
        got = fast(rows, width, q)
        assert got == howell_form_reference(rows, width, q)
        seen.append(len(rows) * width)
        return got

    for name in ("linalg", "fitting", "complexes", "campaigns"):
        monkeypatch.setattr(f"iwasawa_kit.{name}.howell_form", checked)
    results = complex_campaigns(seed=2026, trials=10) + fitting_campaigns(seed=2026, trials=20)
    assert all(r.ok for r in results)
    assert len(seen) > 1000 and max(seen) > 100


@pytest.mark.parametrize("alg", _subquotient_algebras())
def test_subquotient_presentation_matches_reference_on_random_subquotients(alg):
    """(Z/8)[C2] and (Z/9)[C3] (local), (Z/9)[C2] and (Z/9)[C2 x C2]
    (not local), a minus quotient and a from_json copy of (Z/9)[C3], whose only
    known radical element is p: random B <= Z <= A^n, with Z = B, B = 0 and
    Z = A^n among them."""
    rng = random.Random(alg.q * alg.dim)
    cases = []
    for t in range(12):
        n = 1 + t % 2
        b_rows = random_submodule_rows(rng, alg, n, rng.randint(0, 2))
        z_rows = b_rows + random_submodule_rows(rng, alg, n, rng.randint(0, 2))
        cases.append((n, z_rows, b_rows))
    free = alg.realize([alg.one, alg.zero()]) + alg.realize([alg.zero(), alg.one])
    cases += [(2, free, []), (2, free, free), (1, [], []), (2, random_submodule_rows(rng, alg, 2, 2), [])]
    compared = 0
    for n, z_rows, b_rows in cases:
        sub = fitting.subquotient_presentation(alg, n, z_rows, b_rows)
        compared += check_subquotient(alg, n, z_rows, b_rows, sub)
        check_nakayama_steps(alg, n, z_rows, b_rows)
    assert compared >= 6


# ---------------------------------------------------------------------------
# The subquotient table: every presentation an algebra's table returns is
# compared with present_subquotient, the same presentation taken with no
# table.

def recorded_subquotient_calls(monkeypatch, run):
    """Every call of subquotient_presentation that run() makes, as
    (algebra, ncomp, Z rows, B rows, whether the algebra's table answered it
    without growing, the presentation returned). Each returned presentation
    must be an entry of the table."""
    tabled, calls = fitting.subquotient_presentation, []

    def recorded(algebra, ncomp, z_rows, b_rows):
        before = len(algebra.subquotients)
        out = tabled(algebra, ncomp, z_rows, b_rows)
        assert any(v is out for v in algebra.subquotients.values())
        hit = len(algebra.subquotients) == before
        calls.append((algebra, ncomp, [list(r) for r in z_rows], [list(r) for r in b_rows], hit, out))
        return out

    with monkeypatch.context() as mp:
        patch_every_binding(mp, (tabled,), recorded)
        run()
    return calls


def workload_subquotients(alg):
    """Random B <= Z <= A^n over alg, each presented as Z/B and as (Z + B)/0
    (one pair of row lists joined would name both) and each a second time."""
    rng = random.Random(alg.q * alg.dim)
    for t in range(8):
        n = 1 + t % 2
        b_rows = random_submodule_rows(rng, alg, n, rng.randint(1, 2))
        z_rows = random_submodule_rows(rng, alg, n, rng.randint(0, 2)) + b_rows
        for z, b in ((z_rows, b_rows), (z_rows + b_rows, []), (z_rows, b_rows), (z_rows + b_rows, [])):
            fitting.subquotient_presentation(alg, n, z, b)


def test_the_subquotient_table_matches_the_untabled_presentation(monkeypatch):
    """The per-algebra table against the presentation taken with no table
    (present_subquotient), call by call, over complex_campaigns(2026, 20),
    fitting_campaigns(2026, 30) and random subquotients over the `fitting`
    workload's three algebras: the same generators in A^n and the same
    relations on every call; a hit returns the object the table stored on
    the key's first call, Fitting ideal included, and that ideal is the
    untabled module's by the enumeration oracle; a new algebra starts with
    an empty table."""
    def campaigns_run():
        assert all(r.ok for r in complex_campaigns(2026, 20) + fitting_campaigns(2026, 30))

    workload = [group_algebra(2, 3, (2,)), group_algebra(3, 2, (3,)), group_algebra(3, 2, (2, 2))]
    assert all(alg.subquotients == {} for alg in workload)
    calls = recorded_subquotient_calls(monkeypatch, campaigns_run)
    calls += recorded_subquotient_calls(monkeypatch, lambda: [workload_subquotients(a) for a in workload])
    first, hits, oracle_checked = {}, 0, 0
    for alg, n, z, b, hit, out in calls:
        ref = fitting.present_subquotient(alg, n, z, b)
        assert out.gens_ambient == ref.gens_ambient
        assert (out.module.ngens, out.module.relations) == (ref.module.ngens, ref.module.relations)
        key = (id(alg), n, tuple(map(tuple, z)), tuple(map(tuple, b)))
        if hit:
            hits += 1
            assert out is first[key]
            if alg.q**alg.dim <= campaigns.ORACLE_RING_LIMIT:
                assert oracles.ideal_equal_oracle(out.module.fitting_ideal, ref.module.fitting_ideal)
                oracle_checked += 1
        else:
            first[key] = out
    assert hits > 300 and oracle_checked > 300 and len(first) > 150
    assert {alg.name for alg, *_ in calls} >= {a.name for a in workload}
    repeats = calls[-len(workload) * 32:]  # the last two of each four repeat the first two
    assert all(c[4] for i, c in enumerate(repeats) if i % 4 >= 2)
    for alg in workload:
        assert alg.subquotients and GroupAlgebra(alg.p, alg.N, alg.group).subquotients == {}


# ---------------------------------------------------------------------------
# Pontryagin duals: the Smith route, which diagonalizes the relation span
# over Z with p^N.I appended and hands the transported action of every basis
# element's # to the closed-form dual of algebra_helpers
# (contragredient_presentation), is the oracle of the dual presented as the
# #-twist of a kernel.

def matrix_inverse(M: list[list[int]], q: int) -> list[list[int]]:
    """Inverse of a unimodular matrix over Z/q, q = p^N (Gauss-Jordan; unit
    pivots exist at every step because M is invertible mod p)."""
    n, p = len(M), prime_of(q)
    A = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(M)]
    for t in range(n):
        piv = next((i for i in range(t, n) if A[i][t] % p != 0), None)
        if piv is None:
            raise ValueError("matrix is not invertible mod p")
        A[t], A[piv] = A[piv], A[t]
        inv = pow(A[t][t], -1, q)
        A[t] = [(c * inv) % q for c in A[t]]
        for i in range(n):
            if i != t and A[i][t]:
                f = A[i][t]
                A[i] = [(a - f * b) % q for a, b in zip(A[i], A[t])]
    return [r[n:] for r in A]


def test_matrix_inverse():
    q = 9
    M = [[1, 3], [1, 2]]  # det = -1, unit
    Minv = matrix_inverse(M, q)
    prod = [
        [sum(M[i][t] * Minv[t][j] for t in range(2)) % q for j in range(2)]
        for i in range(2)
    ]
    assert prod == [[1, 0], [0, 1]]
    with pytest.raises(ValueError):
        matrix_inverse([[3, 0], [0, 1]], q)


def test_smith_over_chain():
    # Spans over Z/p^N: the Smith form of the rows together with p^N.I.
    rng = random.Random(13)
    for p, N in [(2, 2), (2, 3), (3, 2)]:
        q = p**N
        for _ in range(40):
            width = rng.randint(1, 3)
            rows = [[rng.randrange(q) for _ in range(width)] for _ in range(rng.randint(1, 3))]
            lattice = rows + [[q * int(i == j) for j in range(width)] for i in range(width)]
            diag, V = linalg.smith_normal_form(lattice, width)
            vals = [val(q, d) for d in diag]
            assert diag == [p**v for v in vals]
            V = [[c % q for c in r] for r in V]
            matrix_inverse(V, q)  # V mod p^N is invertible
            # span(rows . V) = span(diag) over Z/p^N
            rowsV = [
                [sum(r[i] * V[i][j] for i in range(width)) % q for j in range(width)]
                for r in rows
            ]
            diag_rows = [[d * int(j == t) for j in range(width)] for t, d in enumerate(diag)]
            assert howell_form(rowsV, width, q) == howell_form(diag_rows, width, q)


def pontryagin_dual_reference(M):
    """Pontryagin dual of an arbitrary finitely presented module, with the
    contragredient action (a.f)(m) = f(a^# m).

    Route: the Smith form of the relation span with p^N.I appended
    diagonalizes the realization to sum_t Z/p^(v_t) in the y = x.V
    coordinates; the action of each basis element's # is transported there and
    handed to contragredient_presentation.
    """
    alg = M.algebra
    if not alg.has_sharp:
        raise ValueError("pontryagin dual needs the # involution")
    q = alg.q
    w = M.rwidth
    lattice = [list(r) for r in M.relation_span]
    lattice += [[q * int(i == j) for j in range(w)] for i in range(w)]
    diag, V = linalg.smith_normal_form(lattice, w)
    vals = [val(q, d) for d in diag]  # each d divides p^N, so d = p^val
    V = [[c % q for c in r] for r in V]
    Vinv = matrix_inverse(V, q)

    def transported_action(bvec):
        """Matrix of multiplication by bvec in y-coordinates: e_t -> row T[t].
        Row t of Vinv holds the x-coordinates of the t-th y-basis vector."""
        zero = alg.zero()
        scaled = [  # bvec * (basis_i at generator c), taken to y-coordinates
            linalg.combine(r, V, w, q)
            for c in range(M.ngens)
            for r in alg.realize([bvec if d == c else zero for d in range(M.ngens)])
        ]
        return [linalg.combine(x, scaled, w, q) for x in Vinv]

    actions = (
        (b, transported_action(alg.sharp_of(b)))
        for b in map(alg.basis_element, range(alg.dim))
    )
    return contragredient_presentation(alg, vals, actions)


REFERENCE_MINOR_LIMIT = 1000


def annihilator(M):
    """Ann(M), element by element."""
    return {x for x in M.algebra.elements() if M.annihilator_check(x)}


def check_dual(M, D):
    """D = pontryagin_dual(M) against the reference: M's size on no more
    generators; the reference's size and Fitting ideal where the reference
    has at most 1,000 minors; Ann(M) = Ann(D)^# element by element where
    q^dim <= 2^10; and a double dual with M's size and Fitting ideal.
    Returns whether the Fitting ideals and the annihilators were compared."""
    alg = M.algebra
    ref = pontryagin_dual_reference(M)
    assert D.size() == M.size()
    assert D.ngens <= ref.ngens
    fitting_compared = math.comb(len(ref.relations), ref.ngens) <= REFERENCE_MINOR_LIMIT
    if fitting_compared:  # the reference's relation span is small too
        assert ref.size() == M.size()
        assert D.fitting_ideal == ref.fitting_ideal
    exhaustive = alg.q**alg.dim <= campaigns.ORACLE_RING_LIMIT
    if exhaustive:
        assert annihilator(M) == {alg.sharp_of(x) for x in annihilator(D)}
    DD = fitting.pontryagin_dual(D)
    assert DD.size() == M.size()
    if math.comb(len(M.relations), M.ngens) <= REFERENCE_MINOR_LIMIT:
        assert DD.fitting_ideal == M.fitting_ideal
    return fitting_compared, exhaustive


def test_pontryagin_dual_matches_the_reference_on_the_campaigns(campaign_records):
    """Every dual that the AC5 slices take: the certified squares of the
    E^1-sharp suite, the kernels of the four-term suite and the squares of
    the annihilator duality."""
    duals = campaign_records.duals
    compared = [check_dual(M, D) for M, D in duals]
    assert sum(f for f, _ in compared) > 450 and sum(a for _, a in compared) > 300
    assert {M.algebra.name for M, _ in duals} == {"(Z/2^3)(2,)", "(Z/3^2)(3,)", "(Z/3^2)(2, 2)"}


def random_dual_module(rng, alg):
    """A module on 1 or 2 generators with 0 to 3 relations whose entries are
    random elements, p-power multiples, multiples of b - 1 for a basis
    element b, zeros or units, so that duals have summands of every order."""
    n = rng.randint(1, 2)
    rows = []
    for _ in range(rng.randint(0, 3)):
        row = []
        for _ in range(n):
            x = tuple(rng.randrange(alg.q) for _ in range(alg.dim))
            kind = rng.randrange(5)
            if kind == 1:
                x = alg.scalar(alg.p ** rng.randint(1, alg.N), x)
            elif kind == 2:
                x = alg.mul(alg.sub(alg.basis_element(rng.randrange(alg.dim)), alg.one), x)
            elif kind == 3:
                x = alg.zero()
            elif kind == 4:
                x = alg.scalar(rng.randrange(1, alg.p), alg.one)
            row.append(x)
        rows.append(row)
    return FinPresModule(alg, n, rows)


DUAL_CORPUS = campaigns._algebra_corpus()
DUAL_ALGEBRAS = DUAL_CORPUS + [
    group_algebra(3, 2, (9,)), group_algebra(3, 2, (2, 9)), group_algebra(3, 2, (2, 2, 2)),
    group_algebra(5, 2, (4,)),
]


@pytest.mark.parametrize("alg", DUAL_ALGEBRAS, ids=lambda a: a.name)
def test_pontryagin_dual_matches_the_reference_on_random_modules(alg):
    """The corpus algebras, (Z/9)[C9], (Z/9)[C2 x C9], (Z/9)[C2 x C2 x C2]
    and (Z/25)[C4]: local and not, p = 2 included. The reference acts by
    every basis element, so the dim-18 algebra draws 12 modules, not 30."""
    rng = random.Random(alg.q * alg.dim)
    modules = [random_dual_module(rng, alg) for _ in range(30 if alg.dim <= 9 else 12)]
    modules.append(FinPresModule(alg, 2, []))  # free: the dual of a free module is free
    compared = [check_dual(M, fitting.pontryagin_dual(M)) for M in modules]
    assert sum(f for f, _ in compared) >= len(modules) // 3


@pytest.mark.parametrize("alg", DUAL_CORPUS, ids=lambda a: a.name)
def test_the_dual_comparison_sees_a_nakayama_row_dropped(alg, monkeypatch):
    """A _nakayama_rows that drops its last kept row presents kernels, and so
    duals, on too few generators or relations: the comparison must fail on
    a share of the modules that the random comparison above passes. The
    algebra is built here, so its subquotient table holds no presentation
    taken before the fault (the random comparison above fills the corpus
    algebras' tables)."""
    alg = GroupAlgebra(alg.p, alg.N, alg.group)
    keep = fitting._nakayama_rows
    monkeypatch.setattr(fitting, "_nakayama_rows", lambda *args: keep(*args)[:-1])
    rng = random.Random(alg.q * alg.dim)
    caught = 0
    for _ in range(30):
        M = random_dual_module(rng, alg)
        try:
            check_dual(M, fitting.pontryagin_dual(M))
        except AssertionError:
            caught += 1
    assert caught >= 10
