"""The minus dual of class data by the kernel route, the oracle of
`lvalues.minus_dual_presentation`, and by the generic closed form.

`minus_dual_presentation` writes the Pontryagin dual of the p-part of a class
module directly over (Z/p^N)[G]/(1+j), through the contragredient action of
each g_t^(-1) read straight from the action matrix A_t. The generic closed
form (`algebra_helpers.contragredient_presentation`), handed g_t^(-1), the
transpose of A_t and the p-adic valuations of the orders, must write the same
relations row for row. The kernel route shares none of that:
it presents M (x) Z_p over A' = (Z/p^N')[G], N' = max(N, v_p of each order),
on generators e_a for the coordinates with p | order and the relations
p^(v_a) e_a and g_t e_a - sum_i A_t[i][a] e_i, takes `fitting.pontryagin_dual`
(a #-twisted kernel, presented by Nakayama), and pushes its relations along
A' -> (Z/p^N)[G] -> (Z/p^N)[G]/(1+j). Fitting ideals commute with that base
change, so the two presentations have one Fitting ideal and one size.
"""

import math
import random
from pathlib import Path

from algebra_helpers import contragredient_presentation, same_algebra

from iwasawa_kit.abelian import AbelianFieldSpec, cm_data, galois_group
from iwasawa_kit.campaigns import load_manifest
from iwasawa_kit.fitting import FinPresModule, GroupAlgebra, minus_quotient, pontryagin_dual
from iwasawa_kit.lvalues import ClassModuleData, minus_dual_presentation

DATA = Path(__file__).resolve().parent.parent / "data"


def valuation(d: int, p: int) -> int:
    v = 0
    while d % p == 0:
        d //= p
        v += 1
    return v


def kernel_route_minus_dual(spec, M: ClassModuleData, p: int, N: int) -> FinPresModule:
    """The dual of the minus p-part of M over (Z/p^N)[G]/(1+j), by the
    kernel route over A' = (Z/p^N')[G]."""
    grp = galois_group(spec).group
    vals = [valuation(d, p) for d in M.orders]
    keep = [a for a, v in enumerate(vals) if v]
    big = GroupAlgebra(p, max([N, *vals]), grp)
    relations = []
    for idx, a in enumerate(keep):
        row = [big.zero()] * len(keep)
        row[idx] = big.scalar(p ** vals[a], big.one)
        relations.append(row)
    for t, g in enumerate(grp.generators()):
        for idx, a in enumerate(keep):  # g_t e_a = sum_i A_t[i][a] e_i
            row = [big.scalar(-M.action[t][i][a], big.one) for i in keep]
            row[idx] = big.add(row[idx], big.group_element_vector(g))
            relations.append(row)
    dual = pontryagin_dual(FinPresModule(big, len(keep), relations))
    quo, proj = minus_quotient(GroupAlgebra(p, N, grp), cm_data(spec).j)
    # A' and (Z/p^N)[G] share the basis of G: the first map reduces mod p^N
    pushed = [[proj.apply(tuple(c % p**N for c in e)) for e in row] for row in dual.relations]
    return FinPresModule(quo, dual.ngens, pushed)


def assert_same_dual(spec, M, p, N):
    direct, _ = minus_dual_presentation(spec, M, p, N)
    kernel = kernel_route_minus_dual(spec, M, p, N)
    assert kernel.size() == direct.size()
    # two builds of one quotient algebra: the ideals are compared as spans
    assert same_algebra(kernel.algebra, direct.algebra)
    assert kernel.fitting_ideal.howell == direct.fitting_ideal.howell


def test_the_routes_agree_on_every_manifest_entry_at_n_n_plus_1_and_1():
    entries = load_manifest(DATA)
    assert len(entries) == 5
    for e in entries:
        for N in (e["N"], e["N"] + 1, 1):
            assert_same_dual(e["spec"], e["module"], e["p"], N)


def closed_form_minus_dual(spec, M: ClassModuleData, p: int, N: int) -> FinPresModule:
    """The generic closed form over (Z/p^N)[G]/(1+j): each b = g_t^(-1) with
    the matrix of b^# = g_t in row convention, the transpose of A_t."""
    grp = galois_group(spec).group
    alg = GroupAlgebra(p, N, grp)
    quo, proj = minus_quotient(alg, cm_data(spec).j)
    actions = ((proj.apply(alg.group_element_vector(grp.inv(g))), [list(c) for c in zip(*M.action[t])])
               for t, g in enumerate(grp.generators()))
    return contragredient_presentation(quo, [valuation(d, p) for d in M.orders], actions)


def test_the_closed_form_writes_the_same_relations_on_every_manifest_entry():
    entries = load_manifest(DATA)
    for e in entries:
        for N in (e["N"], e["N"] + 1, 1):
            direct, _ = minus_dual_presentation(e["spec"], e["module"], e["p"], N)
            closed = closed_form_minus_dual(e["spec"], e["module"], e["p"], N)
            assert direct.ngens == closed.ngens
            assert direct.relations == closed.relations, (e["name"], N)
    # unequal orders and an action that is not symmetric: a moved p-power or
    # a transposition changes a relation
    assert any(len(set(e["module"].orders)) > 1 for e in entries)


# ---------------------------------------------------------------------------
# Random well-defined class modules.

def character_value(rng, d: int, n: int) -> int:
    """A unit x mod d with x^n = 1 (u^(phi(d)) = 1 for every unit u)."""
    units = [u for u in range(1, d + 1) if math.gcd(u, d) == 1]
    phi = len(units)
    return pow(rng.choice(units), phi // math.gcd(phi, n), d) if d > 1 else 0


def random_class_module(rng, group_orders, p: int, N: int) -> ClassModuleData:
    """A direct sum of blocks conjugated by a random well-defined
    automorphism. A block has one order d (a power of p up to p^(N+2), at
    times times 2, or 2 alone) and is a character (each generator a scalar
    of order dividing its own) or, for a generator of order divisible by m in
    2..4, the cyclic shift of length m times a scalar (the other generators
    scalars). Each block is well defined and the actions commute, and so
    they stay under conjugation by products of elementary matrices
    I + c E_ij with orders[j] c = 0 mod orders[i]."""
    orders, blocks = [], []
    while len(orders) < 2 or (len(orders) < 4 and rng.random() < 0.5):
        d = p ** rng.randint(0, N + 2) * rng.choice((1, 1, 2))
        scalars = [character_value(rng, d, n) for n in group_orders]
        shifts = [(t, m) for t, n in enumerate(group_orders) for m in (2, 3, 4)
                  if n % m == 0 and len(orders) + m <= 4]
        t0, m = rng.choice(shifts) if shifts and rng.random() < 0.5 else (None, 1)
        blocks.append((len(orders), m, t0, scalars))
        orders += [d] * m
    k = len(orders)
    action = {t: [[0] * k for _ in range(k)] for t in range(len(group_orders))}
    for start, m, t0, scalars in blocks:
        for t, x in enumerate(scalars):
            for j in range(m):  # e_j goes to x e_(j+1 mod m) under the shift
                action[t][start + ((j + 1) % m if t == t0 else j)][start + j] = x
    U, Uinv = identity(k), identity(k)
    for _ in range(rng.randint(0, 4)):
        i, j = rng.sample(range(k), 2)
        c = rng.randrange(1, 10) * (orders[i] // math.gcd(orders[i], orders[j]))
        U = matmul(U, elementary(k, i, j, c))
        Uinv = matmul(elementary(k, i, j, -c), Uinv)
    action = {t: [[c % orders[i] for c in row] for i, row in enumerate(matmul(matmul(U, A), Uinv))]
              for t, A in action.items()}
    return ClassModuleData(tuple(orders), tuple(group_orders), action, "random")


def identity(k):
    return [[int(i == j) for j in range(k)] for i in range(k)]


def elementary(k, i, j, c):
    E = identity(k)
    E[i][j] = c
    return E


def matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def test_the_routes_agree_on_random_class_modules_with_orders_above_p_to_the_n():
    rng = random.Random(32)
    cases = [(AbelianFieldSpec.cyclotomic(m), p) for m, p in
             ((3, 3), (4, 3), (5, 3), (5, 5), (7, 3), (12, 3), (12, 5))]
    above = 0
    for trial in range(70):
        spec, p = cases[trial % len(cases)]
        N = rng.randint(1, 2)
        M = random_class_module(rng, galois_group(spec).group.orders, p, N)
        above += any(valuation(d, p) > N for d in M.orders)
        assert_same_dual(spec, M, p, N)
    assert above >= 20
