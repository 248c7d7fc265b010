"""The former forms of the three Fitting hot paths, kept as oracles of the
fast ones: the q-pass span closure, the Howell form that rescans every row
for its leading index, and the dense dim^3 structure-constant product."""

import random

import pytest

from iwasawa_kit import oracles
from iwasawa_kit.abelian import FiniteAbelianGroup
from iwasawa_kit.campaigns import fitting_campaigns
from iwasawa_kit.fitting import (
    FiniteCommAlgebra,
    GroupAlgebra,
    minus_quotient,
    nilpotent_extension,
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


def mul_reference(alg, x, y):
    """Product through the dense structure constants alg.mult."""
    out = [0] * alg.dim
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                if b:
                    for k, c in enumerate(alg.mult[i][j]):
                        if c:
                            out[k] += a * b * c
    return tuple(c % alg.q for c in out)


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


def monogenic_algebra(p, N, f):
    """(Z/p^N)[x]/(x^d - f[0] - f[1] x - ... - f[d-1] x^(d-1)) on 1, x, ..., x^(d-1):
    its products of basis elements have several terms."""
    d = len(f)
    powers = [tuple(int(k == i) for k in range(d)) for i in range(d)]
    for _ in range(d - 1):  # x^(e+1) = x * x^e, with x^d = f
        top = powers[-1]
        powers.append(tuple(top[k - 1] * (k > 0) + top[-1] * f[k] for k in range(d)))
    mult = [[powers[i + j] for j in range(d)] for i in range(d)]
    return FiniteCommAlgebra(p, N, [f"x^{i}" for i in range(d)], mult, powers[0], name=f"x^{d}={f}")


def _algebras():
    c2 = FiniteAbelianGroup((2,))
    c2c2 = FiniteAbelianGroup((2, 2))
    groups = [GroupAlgebra(2, 3, c2), GroupAlgebra(3, 2, FiniteAbelianGroup((3,))),
              GroupAlgebra(3, 2, c2c2), GroupAlgebra(3, 2, FiniteAbelianGroup((2, 9)))]
    quotient, _ = minus_quotient(GroupAlgebra(3, 2, c2c2), (1, 0))
    return groups + [
        quotient,
        nilpotent_extension(zmod_algebra(3, 2), 3),
        nilpotent_extension(GroupAlgebra(2, 2, c2), 2),
        zmod_algebra(5, 2),
        monogenic_algebra(3, 2, (2, 3)),
        monogenic_algebra(2, 3, (1, 1, 6)),
    ]


@pytest.mark.parametrize("alg", _algebras(), ids=lambda a: a.name)
def test_sparse_mul_matches_dense_reference(alg):
    rng = random.Random(alg.dim)
    basis = [alg.basis_element(i) for i in range(alg.dim)]
    for bi in basis:
        for bj in basis:
            assert alg.mul(bi, bj) == mul_reference(alg, bi, bj)
    elements = basis + [
        tuple(rng.randrange(-alg.q, 2 * alg.q) for _ in range(alg.dim)) for _ in range(8)
    ]
    for x in elements:
        rows = alg.regular_rows(x)
        assert rows == [list(mul_reference(alg, x, b)) for b in basis]
        for y in elements[-8:]:
            assert alg.mul(x, y) == mul_reference(alg, x, y)
    zero = alg.zero()
    rows = [[rng.choice(elements) for _ in range(n)] for n in (1, 2, 3)]
    rows += [[zero], [rng.choice(elements), zero], [zero, rng.choice(elements), zero]]
    for row in rows:
        flat = [c for entry in row for c in entry]
        assert alg.split(flat) == row
        assert alg.realize(row) == [
            [c for entry in row for c in mul_reference(alg, b, entry)] for b in basis
        ]
    assert alg.q == alg.p**alg.N
