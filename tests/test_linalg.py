"""Howell-form engine tests, cross-checked against exhaustive span closure."""

import random

import pytest
from algebra_helpers import decode_span, prime_of, val
from hypothesis import given, settings
from hypothesis import strategies as st

from iwasawa_kit.linalg import howell_form, in_span, preimage_span, reduce_mod_span, span_size
from iwasawa_kit.oracles import enumerate_span

RINGS = [4, 8, 9]  # the moduli q = p^N


def span_vectors(rows, width, q):
    """The vectors of the span of rows, by exhaustive closure."""
    return decode_span(enumerate_span(rows, width, q), width, q)


def random_rows(rng, q, nrows, width):
    return [[rng.randrange(q) for _ in range(width)] for _ in range(nrows)]


def test_howell_examples():
    q = 4
    assert howell_form([[1, 0], [0, 1]], 2, q) == [[1, 0], [0, 1]]
    # [[2,1]] over Z/4: span {00, 21, 02, 23} needs the saturated row [0,2]
    assert howell_form([[2, 1]], 2, q) == [[2, 1], [0, 2]]
    assert howell_form([[0, 0]], 2, q) == []


@pytest.mark.parametrize("width", [0, 1, 54])
def test_howell_form_of_no_rows_is_empty(width):
    for q in RINGS:
        assert howell_form([], width, q) == []


def test_howell_is_canonical_and_matches_bruteforce():
    rng = random.Random(42)
    for q in RINGS:
        for _ in range(60):
            width = rng.randint(1, 3)
            rows = random_rows(rng, q, rng.randint(1, 3), width)
            H = howell_form(rows, width, q)
            # idempotent
            assert howell_form(H, width, q) == H
            # span preserved exactly
            brute = span_vectors(rows, width, q)
            assert span_vectors(H, width, q) == brute
            assert span_size(H, q) == len(brute)
            # canonical: any generating set of the same span has the same form
            sample = rng.sample(sorted(brute), k=min(3, len(brute)))
            regenerated = howell_form([list(v) for v in sample] + rows, width, q)
            assert regenerated == H


def test_membership_and_reduction():
    rng = random.Random(1)
    for q in RINGS:
        for _ in range(40):
            width = rng.randint(1, 3)
            rows = random_rows(rng, q, 2, width)
            H = howell_form(rows, width, q)
            brute = span_vectors(rows, width, q)
            for _ in range(10):
                x = [rng.randrange(q) for _ in range(width)]
                assert in_span(x, H, q) == (tuple(x) in brute)
                red = reduce_mod_span(x, H, q)
                # reduction is a coset representative
                diff = [(a - b) % q for a, b in zip(x, red)]
                assert tuple(diff) in brute
                # and canonical: equal cosets reduce equally
                for y in list(brute)[:5]:
                    x2 = [(a + b) % q for a, b in zip(x, y)]
                    assert reduce_mod_span(x2, H, q) == red


def solve_in_span(x: list[int], rows: list[list[int]], q: int) -> list[int] | None:
    """Coefficients c with x = sum c_i rows[i] mod p^N, or None."""
    n = len(rows)
    width = len(x)
    aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    H = howell_form(aug, width + n, q)
    p = prime_of(q)
    y = [c % q for c in x] + [0] * n
    for r in H:
        col = next(j for j, c in enumerate(r) if c)
        if col >= width:
            break
        pv = p ** val(q, r[col])
        if y[col] % pv:
            return None
        f = y[col] // pv
        if f:
            y = [(a - f * b) % q for a, b in zip(y, r)]
    if any(y[:width]):
        return None
    return [(-c) % q for c in y[width:]]


def test_solve_in_span():
    rng = random.Random(3)
    q = 9
    for _ in range(30):
        rows = random_rows(rng, q, 3, 3)
        coeffs = [rng.randrange(q) for _ in range(3)]
        x = [sum(c * r[j] for c, r in zip(coeffs, rows)) % q for j in range(3)]
        got = solve_in_span(x, rows, q)
        assert got is not None
        rebuilt = [sum(c * r[j] for c, r in zip(got, rows)) % q for j in range(3)]
        assert rebuilt == x
    assert solve_in_span([1], [[3]], 9) is None


def test_left_kernel_exactness():
    rng = random.Random(7)
    for q in RINGS:
        for _ in range(30):
            nrows, width = rng.randint(1, 3), rng.randint(1, 3)
            rows = random_rows(rng, q, nrows, width)
            K = preimage_span(rows, [], width, q)
            # every kernel generator kills the rows
            for y in K:
                combo = [
                    sum(y[i] * rows[i][j] for i in range(nrows)) % q
                    for j in range(width)
                ]
                assert not any(combo)
            # kernel size matches |domain| / |image|
            H = howell_form(rows, width, q)
            assert span_size(howell_form(K, nrows, q), q) * span_size(H, q) == q**nrows


def test_preimage_span():
    q = 9
    rng = random.Random(11)
    for _ in range(20):
        rows = random_rows(rng, q, 2, 2)
        target = random_rows(rng, q, 1, 2)
        P = preimage_span(rows, target, 2, q)
        Ht = howell_form(target, 2, q)
        brute_target = span_vectors(target, 2, q)
        # each preimage generator lands in the target span
        for y in P:
            img = [sum(y[i] * rows[i][j] for i in range(2)) % q for j in range(2)]
            assert tuple(img) in brute_target
        # completeness: brute force over all y
        brute_pre = {
            y
            for y in span_vectors([[1, 0], [0, 1]], 2, q)
            if tuple(
                sum(y[i] * rows[i][j] for i in range(2)) % q for j in range(2)
            )
            in brute_target
        }
        assert span_vectors([list(y) for y in P], 2, q) == brute_pre


@given(st.integers(0, 80), st.integers(0, 80), st.integers(0, 80))
@settings(max_examples=30)
def test_howell_span_closure_property(a, b, c):
    q = 9
    rows = [[a % 9, b % 9, c % 9], [c % 9, a % 9, 3]]
    H = howell_form(rows, 3, q)
    # closure: the sum of any two span generators is in the span
    for r1 in H:
        for r2 in H:
            s = [(x + y) % 9 for x, y in zip(r1, r2)]
            assert in_span(s, H, q)
