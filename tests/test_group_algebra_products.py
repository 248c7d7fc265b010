"""GroupAlgebra.mul, one integer product per call (Kronecker substitution,
groupring.kronecker_layout), against the double loop along the group's
product table (algebra_helpers.convolution) and groupring.mul reduced mod q:
the groups of the tower levels and products of several cyclic factors, the
moduli on each side of every lane width, unreduced and negative inputs and
every pair of two small algebras. Then GroupAlgebra.radical_multiples, the
J*z of Nakayama's lemma by index maps, against the products of the
FiniteCommAlgebra route."""

import itertools
import math
import random

import pytest
from algebra_helpers import convolution

from iwasawa_kit import groupring
from iwasawa_kit.abelian import FiniteAbelianGroup
from iwasawa_kit.fitting import FiniteCommAlgebra, GroupAlgebra
from iwasawa_kit.numutil import is_prime

# C1 (as no factor and as one factor of order 1), C2, C3, C2 x C2, the
# groups of the Q(zeta3) tower levels (C2 x C9, C2 x C27, C2 x C81), C54,
# C6 x C7 (Q(zeta7) at p = 7) and C6 x C27
ORDERS = [(), (1,), (2,), (3,), (2, 2), (2, 9), (54,), (2, 27), (6, 7), (2, 81), (6, 27)]


def sample(q: int, dim: int, rng: random.Random) -> list[tuple]:
    """Dense reduced, dense unreduced (negative too), sparse and all q - 1."""
    return [
        tuple(rng.randrange(q) for _ in range(dim)),
        tuple(rng.randrange(-3 * q, 3 * q) for _ in range(dim)),
        tuple(rng.randrange(-q, q) if rng.random() < 0.2 else 0 for _ in range(dim)),
        (q - 1,) * dim,
    ]


@pytest.mark.parametrize("orders", ORDERS, ids=str)
def test_products_match_the_double_loop_and_the_group_ring(orders):
    group = FiniteAbelianGroup(orders)
    rng = random.Random(len(orders) * 1000 + group.size)
    for p, N in ((2, 3), (3, 2), (3, 3), (7, 2), (5, 1)):
        alg, q = GroupAlgebra(p, N, group), p**N
        assert alg._unpack is GroupAlgebra(p, N, group)._unpack  # cached per (group, q)
        xs, ys = sample(q, group.size, rng), sample(q, group.size, rng)
        for x, y in zip(xs, ys[1:] + ys[:1]):
            expected = convolution(alg, x, y)
            assert alg.mul(x, y) == expected
            assert expected == tuple(c % q for c in groupring.mul(x, y, group))
        assert alg.mul(alg.one, xs[1]) == tuple(c % q for c in xs[1])


def lane_bytes(group: FiniteAbelianGroup, q: int) -> int:
    """Bytes per lane of the layout: its size over the lanes it spans."""
    last, stride = 0, 1
    for o in reversed(group.orders):
        last, stride = last + (o - 1) * stride, stride * (2 * o - 1)
    return groupring.kronecker_layout(group, q)[2] // (last + 1)


def edge_primes(dim: int, bits: int) -> tuple[int, int]:
    """The largest prime p with dim (p-1)^2 < 2^bits and the least with
    dim (p-1)^2 >= 2^bits."""
    m = math.isqrt((2**bits - 1) // dim) + 1  # dim (m-1)^2 < 2^bits <= dim m^2
    below = next(p for p in range(m, 1, -1) if is_prime(p))
    above = next(p for p in itertools.count(m + 1) if is_prime(p))
    return below, above


@pytest.mark.parametrize("orders", [(2,), (3,), (54,), (2, 27)], ids=str)
@pytest.mark.parametrize("bits", [8, 16, 32, 64])
def test_products_at_each_side_of_a_lane_width(orders, bits):
    """Just below 2^bits a lane of bits/8 bytes holds dim (q-1)^2, the value
    every coefficient of (q-1)(sum g)^2 reaches; just above, the next width
    (9 bytes past the 8 of the widest struct code)."""
    group = FiniteAbelianGroup(orders)
    dim = group.size
    rng = random.Random(bits * dim)
    for p, width in zip(edge_primes(dim, bits), (bits // 8, {8: 2, 16: 4, 32: 8, 64: 9}[bits])):
        alg = GroupAlgebra(p, 1, group)
        assert lane_bytes(group, p) == width
        top = (p - 1,) * dim
        assert alg.mul(top, top) == (dim * (p - 1) ** 2 % p,) * dim
        pairs = [(top, top), ((-1,) * dim, top)] + list(zip(sample(p, dim, rng), sample(p, dim, rng)))
        for x, y in pairs:
            assert alg.mul(x, y) == convolution(alg, x, y)


@pytest.mark.parametrize("p, N", [(2, 3), (3, 2)])
def test_every_pair_over_a_small_algebra(p, N):
    """Every pair of (Z/8)[C2] and of (Z/9)[C2], and each pair again with
    representatives moved by multiples of q, negative ones among them."""
    alg, q = GroupAlgebra(p, N, FiniteAbelianGroup((2,))), p**N
    elements = list(itertools.product(range(q), repeat=2))
    for x in elements:
        for y in elements:
            expected = convolution(alg, x, y)
            assert alg.mul(x, y) == expected
            shifted = (x[0] - 2 * q, x[1] + q * (y[0] - 3))
            assert alg.mul(shifted, (y[0] + 5 * q, y[1] - q)) == expected


# (p, N, orders): (Z/8)[C2], (Z/9)[C3], (Z/9)[C2 x C2], (Z/27)[C9],
# (Z/9)[C3 x C3], (Z/25)[C10], (Z/9)[C6 x C27], and (Z/9)[C2], where
# J = (3) has no g - 1
RADICAL_CASES = [(2, 3, (2,)), (3, 2, (3,)), (3, 2, (2, 2)), (3, 3, (9,)), (3, 2, (3, 3)),
                 (5, 2, (10,)), (3, 2, (6, 27)), (3, 2, (2,))]


@pytest.mark.parametrize("p, N, orders", RADICAL_CASES, ids=str)
def test_radical_multiples_match_the_products(p, N, orders):
    """p*z and each (g - 1)*z, one flattened row each in the order of
    radical_elements, equal the products of the FiniteCommAlgebra route on
    rows of 1 to 3 components, dense, unreduced, negative and sparse."""
    alg = GroupAlgebra(p, N, FiniteAbelianGroup(orders))
    rng = random.Random(p * 1000 + alg.dim)
    ngs = sum(math.gcd(o, p) > 1 for o in orders)  # cyclic factors with a p-part
    for n in (1, 2, 3):
        for _ in range(4):
            z = [c for _ in range(n) for c in rng.choice(sample(alg.q, alg.dim, rng))]
            got = alg.radical_multiples(z)
            assert got == FiniteCommAlgebra.radical_multiples(alg, z)
            assert len(got) == 1 + ngs and all(len(r) == n * alg.dim for r in got)
