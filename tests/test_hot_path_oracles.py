"""The former forms of the Fitting hot paths, kept as oracles of the fast
ones: the q-pass span closure, the Howell form that rescans every row for its
leading index, the dense dim^3 structure-constant product, the dense
structure-constant tables of group algebras and their minus quotients, and the
ideal product realized from every pairwise generator product."""

import json
import random

import pytest
from algebra_helpers import nilpotent_extension_json

from iwasawa_kit import fitting, linalg, oracles
from iwasawa_kit.abelian import FiniteAbelianGroup
from iwasawa_kit.campaigns import complex_campaigns, fitting_campaigns
from iwasawa_kit.fitting import (
    FiniteCommAlgebra,
    GroupAlgebra,
    IdealHandle,
    minus_quotient,
    same_algebra,
    unit_ideal,
    zero_ideal,
    zmod_algebra,
)
from iwasawa_kit.linalg import ZModPN, howell_form
from iwasawa_kit.oracles import enumerate_span


def enumerate_span_reference(rows, width, R):
    """All Z/p^N-combinations of the rows: q passes over the set per row."""
    q = R.q
    out = {(0,) * width}
    for r in rows:
        r = tuple(c % q for c in r)
        out = {
            tuple((a + k * b) % q for a, b in zip(x, r)) for x in out for k in range(q)
        }
    return out


def howell_form_reference(rows, width, R):
    """Howell form that rescans every pooled row for its leading index."""
    p, q, N = R.p, R.q, R.N
    pool = []
    for r in rows:
        rr = [c % q for c in r]
        if any(rr):
            pool.append(rr)
    pivots = []
    for col in range(width):
        cand, rest = [], []
        for r in pool:
            lead = next((j for j, c in enumerate(r) if c), None)
            if lead is None:
                continue
            (cand if lead == col else rest).append(r)
        pool = rest
        if not cand:
            continue
        piv = min(cand, key=lambda r: R.val(r[col]))
        cand.remove(piv)
        v = R.val(piv[col])
        pv = p**v
        u_inv = R.unit_inverse(piv[col] // pv)
        piv = [(c * u_inv) % q for c in piv]
        for r in cand:
            f = r[col] // pv
            rr = [(a - f * b) % q for a, b in zip(r, piv)]
            if any(rr):
                pool.append(rr)
        pivots.append((col, piv))
        if v > 0:
            shadow = [(p ** (N - v) * c) % q for c in piv]
            if any(shadow):
                pool.append(shadow)
    out = [r for _, r in pivots]
    for i, (col, piv) in enumerate(pivots):
        pv = p ** R.val(piv[col])
        for j in range(i):
            f = out[j][col] // pv
            if f:
                out[j] = [(a - f * b) % q for a, b in zip(out[j], piv)]
    return out


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
    """alg has the reference's structure constants, unit and #, and writes
    the reference's JSON byte for byte."""
    q = alg.q
    assert alg.terms == [
        [[(k, c % q) for k, c in enumerate(v) if c % q] for v in row] for row in ref["mult"]
    ]
    assert list(alg.one) == ref["one"]
    assert [list(v) for v in alg.sharp_images] == ref["sharp"]
    assert json.dumps(alg.to_json()) == json.dumps(ref)
    assert same_algebra(alg, FiniteCommAlgebra.from_json(alg.to_json()))


REFERENCE_ORDERS = [(), (2,), (3,), (2, 2), (2, 9), (2, 27), (4, 4), (3, 3, 3)]


@pytest.mark.parametrize("orders", REFERENCE_ORDERS, ids=str)
def test_group_algebras_match_the_dense_construction(orders):
    group = FiniteAbelianGroup(orders)
    involutions = [
        j for j in group.elements() if j != group.identity and group.mul(j, j) == group.identity
    ]
    assert bool(involutions) == (group.size % 2 == 0)
    for p, N in ((2, 3), (3, 2)):
        alg = GroupAlgebra(p, N, group)
        check_against_reference(alg, group_algebra_reference(p, N, group))
        for j in involutions:
            quotient, proj = minus_quotient(alg, j)
            ref, images = minus_quotient_reference(p, N, group, j)
            check_against_reference(quotient, ref)
            assert [list(v) for v in proj.images] == images
    for p, N in ((2, 3), (5, 2)):
        check_against_reference(zmod_algebra(p, N), zmod_reference(p, N))


SPAN_RINGS = [ZModPN(2, 2), ZModPN(2, 3), ZModPN(3, 1), ZModPN(3, 2), ZModPN(5, 1)]


def random_span_rows(rng, R, width):
    """Random rows mixed with zero rows, rows already in the span of the
    earlier ones and p^k multiples; sometimes no rows at all."""
    rows = []
    for _ in range(rng.randint(0, 4)):
        kind = rng.randrange(4)
        if kind == 1:
            rows.append([0] * width)
        elif kind == 2 and rows:
            coeffs = [rng.randrange(R.q) for _ in rows]
            rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(width)])
        elif kind == 3:
            k = rng.randint(1, R.N)
            rows.append([R.p**k * rng.randrange(R.q) for _ in range(width)])
        else:
            rows.append([rng.randrange(-R.q, 2 * R.q) for _ in range(width)])
    return rows


def test_enumerate_span_matches_reference():
    rng = random.Random(6)
    cases = 0
    for R in SPAN_RINGS:
        widths = [w for w in range(1, 6) if R.q**w <= 3125]
        for _ in range(48):
            width = rng.choice(widths)
            rows = random_span_rows(rng, R, width)
            assert enumerate_span(rows, width, R) == enumerate_span_reference(rows, width, R)
            cases += 1
    assert cases >= 200
    R = ZModPN(3, 2)
    assert enumerate_span([], 3, R) == {(0, 0, 0)}
    assert enumerate_span([[3, 0], [6, 0], [0, 0]], 2, R) == {(3 * k, 0) for k in range(3)}


def test_enumerate_span_rejects_a_row_of_the_wrong_width():
    with pytest.raises(ValueError):
        enumerate_span([[1, 2, 3]], 2, ZModPN(3, 1))


def test_enumerate_ideal_matches_reference_on_the_fitting_campaigns(monkeypatch):
    calls = []
    fast = oracles.enumerate_span

    def checked(rows, width, R):
        got = fast(rows, width, R)
        assert got == enumerate_span_reference(rows, width, R)
        calls.append(len(got))
        return got

    monkeypatch.setattr(oracles, "enumerate_span", checked)
    results = fitting_campaigns(seed=2026, trials=6)
    assert all(r.ok for r in results)
    assert len(calls) > 20


def test_howell_form_matches_reference():
    rng = random.Random(12)
    for R in SPAN_RINGS + [ZModPN(2, 4), ZModPN(7, 2)]:
        for _ in range(40):
            width = rng.randint(1, 12)
            rows = []
            for _ in range(rng.randint(0, 2 * width)):
                lead = rng.randrange(width)
                row = [0] * lead + [rng.randrange(R.q) for _ in range(width - lead)]
                # a unit lead, a non-unit lead, or whatever the draw gave
                row[lead] = rng.choice(
                    [rng.randrange(1, R.p), R.p ** rng.randint(1, R.N) * rng.randrange(1, R.p), row[lead]]
                )
                rows.append(row)
            if rows and rng.random() < 0.3:
                rows.append(list(rows[0]))
            assert howell_form(rows, width, R) == howell_form_reference(rows, width, R)


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
    """(algebra, its dense table) pairs; every table comes from a reference
    construction or a dense JSON input, never from the algebra itself."""
    c2 = FiniteAbelianGroup((2,))
    c2c2 = FiniteAbelianGroup((2, 2))
    pairs = [
        (GroupAlgebra(p, N, group), group_algebra_reference(p, N, group))
        for p, N, group in ((2, 3, c2), (3, 2, FiniteAbelianGroup((3,))), (3, 2, c2c2),
                            (3, 2, FiniteAbelianGroup((2, 9))))
    ]
    pairs.append((minus_quotient(GroupAlgebra(3, 2, c2c2), (1, 0))[0],
                  minus_quotient_reference(3, 2, c2c2, (1, 0))[0]))
    dense = [
        nilpotent_extension_json(zmod_reference(3, 2), 3),
        nilpotent_extension_json(group_algebra_reference(2, 2, c2), 2),
        monogenic_algebra_json(3, 2, (2, 3)),
        monogenic_algebra_json(2, 3, (1, 1, 6)),
    ]
    pairs += [(FiniteCommAlgebra.from_json(obj), obj) for obj in dense]
    pairs.append((zmod_algebra(5, 2), zmod_reference(5, 2)))
    return [pytest.param(alg, ref["mult"], id=alg.name) for alg, ref in pairs]


@pytest.mark.parametrize("alg, mult", _algebras())
def test_sparse_mul_matches_dense_reference(alg, mult):
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


def ideal_product_reference(I, J):
    """The Howell form of I*J with every pairwise generator product realized
    in the regular representation."""
    alg = I.algebra
    rows = []
    for a in I.generators:
        for b in J.generators:
            rows.extend(alg.regular_rows(alg.mul(a, b)))
    return howell_form(rows, alg.dim, alg.R)


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
    routes = set()
    for I in ideals:
        for J in ideals:
            assert I.product(J).howell == ideal_product_reference(I, J)
            routes.add((I.ngens > dim, J.ngens > dim))
    assert routes == {(False, False), (False, True), (True, False), (True, True)}
    # chains of three products: a product factor with more than dim generators
    # contributes its own Howell rows
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
    assert big.product(big).product(third).howell == ideal_product_reference(
        big.product(big), third
    )


def test_ideal_product_matches_reference_on_the_campaigns(monkeypatch):
    """Every Fitting product and every Euler-Fitting numerator, denominator
    and cross-multiplication that the AC5/AC6 campaign slices form."""
    formed = []
    product = IdealHandle.product

    def recorded(I, J):
        out = product(I, J)
        formed.append((I, J, out))
        return out

    monkeypatch.setattr(IdealHandle, "product", recorded)
    results = complex_campaigns(seed=2026, trials=100) + fitting_campaigns(seed=2026, trials=200)
    assert all(r.ok for r in results)
    monkeypatch.undo()
    assert len(formed) > 3000
    # most of them take the route through a factor's Howell rows
    assert sum(max(I.ngens, J.ngens) > I.algebra.dim for I, J, _ in formed) > len(formed) // 2
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
