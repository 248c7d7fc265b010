"""The group ring R[G] of a finite abelian group G.

An element of R[G] is a tuple of coefficients in the order of
`group.elements()`: ints mod p^N for (Z/p^N)[G] (fitting.GroupAlgebra, tower
entries), CyclotomicInt for Q(zeta)[G]. An element of Q[G] (Stickelberger
elements, CM idempotents, the input of the character table) is the pair
(nums, den): integer numerators in that order over one positive denominator,
in lowest terms (exact.lowest_terms); the maps below act on nums. This module
owns that basis: the index map, linear forms over the basis, the product
table of basis indices, translation by a group element, the # involution
(g -> g^(-1)), push along a list of basis indices, the convolution
product, the Kronecker layout that makes a product in (Z/q)[G] one integer
product, and the "g1,g2" JSON keys. Translation and # are permutations of
basis indices and a quotient map is a list of them, each built in mixed radix
with no group element formed, and cached: the product table and # per
group, a quotient map per pair of groups, a translation per group and
element, the Kronecker layout per group and q. The product table does not
multiply elements of (Z/p^N)[G] (the layout does): it gives the rows of the
regular representation (row j of g_k g_j^(-1), through #), the structure
constants of a minus quotient and the test that two group algebras are the
same (fitting.same_algebra). The maps only move and add coefficients, and
reducing mod p^N is the caller's step.
"""

from __future__ import annotations

import struct
from functools import lru_cache


@lru_cache(maxsize=None)
def basis_index(group: "FiniteAbelianGroup") -> dict:
    """Position of each group element in the basis order of group.elements()."""
    return {g: i for i, g in enumerate(group.elements())}


def linear_form(group: "FiniteAbelianGroup", weights, modulus: int) -> list[int]:
    """sum_i weights_i g_i mod modulus for g in the basis order, built in
    mixed radix (the last coordinate runs fastest) with no group element
    formed."""
    values = [0]
    for w, o in zip(weights, group.orders):
        values = [(a + x * w) % modulus for a in values for x in range(o)]
    return values


@lru_cache(maxsize=None)
def mul_table(group: "FiniteAbelianGroup") -> tuple[tuple[int, ...], ...]:
    """table[i][j] = basis index of g_i g_j, cached per group; the rows are
    tuples, shared by every algebra over the group. The basis order is mixed
    radix (the last coordinate runs fastest), so the table of C_o x H is built
    from the table of H one cyclic factor at a time, with no group element
    formed."""
    table, size = [(0,)], 1
    for o in reversed(group.orders):
        table = [tuple([(a + b) % o * size + k for b in range(o) for k in row])
                 for a in range(o) for row in table]
        size *= o
    return tuple(table)


@lru_cache(maxsize=None)
def kronecker_layout(group: "FiniteAbelianGroup", q: int) -> tuple:
    """The layout that turns a product in (Z/q)[G] into one integer product
    (Kronecker substitution), cached per group and q: (pack, unpack, size,
    low, folds).

    g_i, with exponents a_j in [0, n_j) over the cyclic orders n_j, goes to
    lane sum_j a_j S_j, S_last = 1 and S_j = prod_(l>j) (2 n_l - 1). An
    element with coefficients in [0, q) is `size` bytes, little-endian, lane
    by lane, pad bytes at the lanes of no basis element. `pack(*x, *y)`
    gives the bytes of X + Y 2^(8 size) for two elements x and y, so that
    one pass reduces and converts both factors; `low` = 2^(8 size) - 1
    masks X. In X Y the lane of exponent sums c_j = a_j + b_j <= 2 n_j - 2
    holds the sum of x_i y_k over the pairs with those sums; a lane is wide
    enough for dim (q-1)^2, so none carries into the next. `folds` is one
    (mask, shift) per cyclic factor of order > 1: the mask selects the
    lanes with c_j >= n_j and the shift moves them down n_j S_j lanes, onto
    c_j - n_j (g^(n_j) = 1). Once every factor is folded, the lane of each
    basis element holds its coefficient of the product, at most
    dim (q-1)^2, every other lane is zero, and `unpack` reads the `size`
    bytes back to the dim coefficients. A lane is 1, 2, 4 or 8 bytes, a
    struct integer code; past that, as many bytes as dim (q-1)^2 needs,
    each lane converted by itself.
    """
    orders, dim = group.orders, group.size
    width = -(-(dim * (q - 1) ** 2).bit_length() // 8)  # bytes per lane
    lanes = [0]
    for o in orders:
        lanes = [L * (2 * o - 1) + a for L in lanes for a in range(o)]
    if width <= 8:
        width = 1 << (width - 1).bit_length()
    code = {1: "B", 2: "H", 4: "I", 8: "Q"}.get(width, f"{width}s")
    gaps = [L - prev - 1 for prev, L in zip([-1, *lanes], lanes)]
    body = "".join(f"{g * width}x{code}" if g else code for g in gaps)
    one, two = struct.Struct("<" + body), struct.Struct("<" + body * 2)
    if width <= 8:
        pack, unpack = two.pack, one.unpack
    else:  # wider than struct's widest integer: each lane is a bytes field
        pack = lambda *cs: two.pack(*[c.to_bytes(width, "little") for c in cs])
        unpack = lambda data: [int.from_bytes(b, "little") for b in one.unpack(data)]
    nprod = 2 * lanes[-1] + 1  # prod_j (2 n_j - 1), the lanes of a product
    stride, folds = nprod, []
    full, empty = b"\xff" * width, bytes(width)
    for o in orders:
        r = 2 * o - 1
        stride //= r
        if o > 1:
            high = b"".join(full if L // stride % r >= o else empty for L in range(nprod))
            folds.append((int.from_bytes(high, "little"), o * stride * 8 * width))
    return pack, unpack, one.size, (1 << 8 * one.size) - 1, tuple(folds)


def _index_map(digits, radices) -> list[int]:
    """Basis index, in the group of cyclic orders radices, of the image of
    each basis element when coordinate x_j goes to digits[j][x_j]."""
    values = [0]
    for col, o in zip(digits, radices):
        values = [v * o + d for v in values for d in col]
    return values


@lru_cache(maxsize=None)
def translation(group: "FiniteAbelianGroup", h: tuple[int, ...]) -> tuple[int, ...]:
    """The basis index of h g_i for each i, built in O(dim) from h with
    reduced coordinates, once per group and h."""
    digits = [[(x + a) % o for x in range(o)] for a, o in zip(h, group.orders, strict=True)]
    return tuple(_index_map(digits, group.orders))


@lru_cache(maxsize=None)
def inversion(group: "FiniteAbelianGroup") -> tuple[int, ...]:
    """The basis index of g_i^(-1) for each i."""
    return tuple(_index_map([[-x % o for x in range(o)] for o in group.orders], group.orders))


@lru_cache(maxsize=None)
def reduction(src: "FiniteAbelianGroup", target: "FiniteAbelianGroup") -> tuple[int, ...]:
    """The basis index in target of g_i mod target's orders, coordinatewise:
    the quotient map when each order of target divides src's."""
    digits = [[x % t for x in range(o)] for o, t in zip(src.orders, target.orders, strict=True)]
    return tuple(_index_map(digits, target.orders))


def translate(x: tuple, group: "FiniteAbelianGroup", h) -> tuple:
    """The product h . x: the coefficient at g moves to h g."""
    h_inv = tuple([-a % o for a, o in zip(h, group.orders, strict=True)])
    return tuple(map(x.__getitem__, translation(group, h_inv)))


def sharp(x: tuple, group: "FiniteAbelianGroup") -> tuple:
    """The involution #: the coefficient at g moves to g^(-1)."""
    return tuple(map(x.__getitem__, inversion(group)))


def push(x: tuple, images, size: int) -> tuple:
    """Add the coefficient at basis index i into images[i] of a basis of size."""
    out = [0] * size
    for k, c in zip(images, x):
        out[k] += c
    return tuple(out)


def mul(x: tuple, y: tuple, group: "FiniteAbelianGroup") -> tuple:
    """Convolution product: (x y)_k = sum over g h = k of x_g y_h."""
    out = [0] * len(x)
    for g, c in zip(group.elements(), x):
        for k, d in zip(translation(group, g), y):
            out[k] += c * d
    return tuple(out)


# ---------------------------------------------------------------------------
# JSON: {"g1,g2": coefficient}, nonzero coefficients only.

def to_json(x: tuple, group: "FiniteAbelianGroup", encode: Callable) -> dict:
    """The nonzero coefficients, keyed by element, in the basis order."""
    return {",".join(map(str, g)): encode(c) for g, c in zip(basis_index(group), x) if c}


def from_json(obj, group: "FiniteAbelianGroup", decode: Callable) -> tuple:
    """Inverse of to_json: obj.items() are the (key, coefficient) pairs of a
    dict or a wire.Node; raises ValueError on a key that is not the to_json
    key of an element (decode raises on a bad coefficient)."""
    keys = {",".join(map(str, g)): i for g, i in basis_index(group).items()}
    out = [0] * group.size
    for key, c in obj.items():
        if key not in keys:
            raise ValueError(f"{key!r} is not an element of the group {group.orders}")
        out[keys[key]] = decode(c)
    return tuple(out)
