"""Brute-force enumeration oracles.

Everything here is deliberately independent of the Howell/minor machinery:
spans are closed by exhaustive addition, annihilation is checked element by
element; a row adds the cosets x + k.row of the span until a multiple of it
falls back in (none when the row already lies in it). Used by the test suite
and the selftest campaigns to cross-check the fast paths on small instances.

A vector of (Z/q)^width is held as one int, its code: coordinate i, reduced
mod q, in the lane of K = q.bit_length() + 1 bits that starts at bit K*i.
A translate x + s adds the codes and subtracts q in each lane that reached
q, a fixed number of int operations whatever the width (SIMD within a
register); spans are sets of codes and are compared as such.
"""

from __future__ import annotations

import itertools

from .fitting import FiniteCommAlgebra, IdealHandle


def encode(x, q: int) -> int:
    """The code of the vector x of (Z/q)^len(x)."""
    k = q.bit_length() + 1
    code = 0
    for c in reversed(x):
        code = (code << k) | (c % q)
    return code


def decode(code: int, width: int, q: int) -> list[int]:
    """The vector of (Z/q)^width whose code is code."""
    k = q.bit_length() + 1
    mask = (1 << k) - 1
    return [(code >> k * i) & mask for i in range(width)]


def enumerate_span(rows: list[list[int]], width: int, q: int) -> set[int]:
    """The codes of all Z/q-combinations of the rows (each of length width),
    by exhaustive closure over cosets. In a lane x_i + s_i < 2q <= 2^K
    carries nothing out, and adding 2^(K-1) - q sets the lane's top bit
    exactly when x_i + s_i >= q."""
    top = q.bit_length()
    ones = sum(1 << (top + 1) * i for i in range(width))
    high, lift = ones << top, ones * ((1 << top) - q)
    span = {0}
    for r in rows:
        r = encode(r, q)
        if r in span:
            continue
        grown = set(span)
        shift = r
        while shift not in span:
            lifted = shift + lift
            grown.update([x + shift - (((x + lifted) & high) >> top) * q for x in span])
            shift += r - (((shift + r + lift) & high) >> top) * q
        span = grown
    return span


def enumerate_ideal(algebra: FiniteCommAlgebra, generators) -> set[int]:
    """The codes of all elements of the ideal (generators), by exhaustive
    closure of the Z/p^N-span of {g * basis_j}."""
    rows = []
    for g in generators:
        for j in range(algebra.dim):
            rows.append(list(algebra.mul(tuple(g), algebra.basis_element(j))))
    return enumerate_span(rows, algebra.dim, algebra.q)


def ideal_equal_oracle(I: IdealHandle, J: IdealHandle) -> bool:
    return enumerate_ideal(I.algebra, I.generators) == enumerate_ideal(J.algebra, J.generators)


def ideal_member_oracle(x, I: IdealHandle) -> bool:
    return encode(x, I.algebra.q) in enumerate_ideal(I.algebra, I.generators)


def module_elements(orders: tuple[int, ...]):
    return itertools.product(*(range(d) for d in orders))


def annihilation_oracle(nums, group_orders, action, orders: tuple[int, ...]) -> bool:
    """Does sum_g nums[g] g kill every element of sum_i Z/orders[i]? nums are
    integer coefficients over the group of cyclic orders group_orders, in
    mixed radix (the last coordinate runs fastest); generator t acts by the
    integer matrix action[t] (column convention). The orbit of each element
    is walked one generator at a time, forming no matrix product."""
    for x in module_elements(orders):
        orbit = [x]  # g x for g in the basis order
        for t, o in enumerate(group_orders):
            walked = []
            for y in orbit:
                for _ in range(o):
                    walked.append(y)
                    y = tuple([sum(a * b for a, b in zip(row, y)) % d for row, d in zip(action[t], orders)])
            orbit = walked
        if any(sum(c * y[i] for c, y in zip(nums, orbit)) % d for i, d in enumerate(orders)):
            return False
    return True
