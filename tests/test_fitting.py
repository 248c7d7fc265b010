"""Tests for finite commutative algebras, ideal handles, finitely presented
modules, Fitting ideals, duals, and the executable lemmas."""

import functools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from algebra_helpers import algebra_json, contragredient_presentation, nilpotent_extension

from iwasawa_kit import campaigns, groupring
from iwasawa_kit.abelian import FiniteAbelianGroup
from iwasawa_kit.fitting import (
    AlgebraMorphism,
    FiniteCommAlgebra,
    FinPresModule,
    GroupAlgebra,
    IdealHandle,
    ModuleMap,
    base_change_fitting,
    dual_presentation,
    e1_sharp_check,
    four_term_check,
    group_algebra_morphism,
    identity_map,
    lockfree_cached_property,
    minus_quotient,
    multiplication_map,
    pontryagin_dual,
    principal_module,
    subquotient_presentation,
    tower_fitting_check,
    unit_ideal,
    zero_ideal,
    zmod_algebra,
)
from iwasawa_kit.oracles import enumerate_ideal, enumerate_span, ideal_equal_oracle, ideal_member_oracle

C2 = FiniteAbelianGroup((2,))
C3 = FiniteAbelianGroup((3,))
C2C2 = FiniteAbelianGroup((2, 2))


def A_z8c2():
    return GroupAlgebra(2, 3, C2)


def A_z9c3():
    return GroupAlgebra(3, 2, C3)


def A_z9c2():
    return GroupAlgebra(3, 2, C2)


def test_algebra_validation():
    for alg in (A_z8c2(), A_z9c3(), zmod_algebra(5, 2), nilpotent_extension(zmod_algebra(3, 2), 3)):
        alg.validate()


def test_minus_quotient_structure():
    alg = A_z9c2()
    quo, proj = minus_quotient(alg, (1,))
    quo.validate()
    proj.check_homomorphism()
    assert quo.dim == 1
    # sigma maps to -1
    sig = alg.group_element_vector((1,))
    assert proj.apply(sig) == ((-1) % 9,)
    # 1 + j dies
    onej = alg.add(alg.one, sig)
    assert proj.apply(onej) == (0,)


def test_a_cached_value_is_computed_once_per_instance_and_kept_in_its_dict():
    """The lock-free descriptor of the cached spans is a cached_property (the
    benchmark tracer and the reachability guard read that type), computes
    its value on the first read of each instance and stores it in the
    instance __dict__, where later reads find it."""
    calls = []

    class Probe:
        @lockfree_cached_property
        def value(self):
            calls.append(self)
            return [len(calls)]

    a, b = Probe(), Probe()
    assert isinstance(Probe.value, functools.cached_property) and Probe.value.attrname == "value"
    first = a.value
    assert first == [1] and a.value is first and vars(a) == {"value": first}
    assert b.value == [2] and a.value is first and calls == [a, b]
    cached = [(cls, name)
              for cls in (FiniteCommAlgebra, GroupAlgebra, IdealHandle, FinPresModule, ModuleMap)
              for name, attr in vars(cls).items() if isinstance(attr, functools.cached_property)]
    assert len(cached) == 9
    assert all(type(vars(cls)[name]) is lockfree_cached_property for cls, name in cached)


def test_ideal_membership_examples():
    alg = A_z9c2()
    three = alg.scalar(3, alg.one)
    I3 = IdealHandle(alg, [three])
    assert not any(I3.residual(three))
    assert I3.residual(alg.one) == alg.one
    assert not any(IdealHandle(alg, [alg.zero()]).residual(alg.zero()))
    # over (Z/8)[C_2]: (1+sigma) not in (1-sigma)
    alg8 = A_z8c2()
    sig = alg8.group_element_vector((1,))
    plus = alg8.add(alg8.one, sig)
    minus = alg8.sub(alg8.one, sig)
    Iminus = IdealHandle(alg8, [minus])
    assert any(Iminus.residual(plus))
    assert ideal_member_oracle(plus, Iminus) is False
    assert (not any(Iminus.residual(alg8.scalar(2, alg8.one)))) == ideal_member_oracle(
        alg8.scalar(2, alg8.one), Iminus
    )


def test_ideal_product_examples():
    alg = zmod_algebra(2, 3)  # Z/8
    two = alg.scalar(2, alg.one)
    four = alg.scalar(4, alg.one)
    I2 = IdealHandle(alg, [two])
    assert I2.product(unit_ideal(alg)) == I2
    assert I2.product(I2) == IdealHandle(alg, [four])
    assert ideal_equal_oracle(I2.product(I2), IdealHandle(alg, [four]))
    # (p, T)(p, T) = (p^2, pT, T^2) over (Z/p^N)[T]/(T^M)
    ext = nilpotent_extension(zmod_algebra(3, 2), 3)
    p_vec = ext.scalar(3, ext.one)
    t_vec = ext.basis_element(1)  # T
    I = IdealHandle(ext, [p_vec, t_vec])
    sq = I.product(I)
    expect = IdealHandle(
        ext,
        [ext.scalar(9, ext.one), ext.mul(p_vec, t_vec), ext.mul(t_vec, t_vec)],
    )
    assert sq == expect


def test_fitting_ideal_examples():
    alg = A_z9c3()
    a = alg.add(alg.one, alg.scalar(3, alg.group_element_vector((1,))))
    # R/(a) -> (a)
    assert principal_module(alg, a).fitting_ideal == IdealHandle(alg, [a])
    # diag(a, b) -> (ab)
    b = alg.group_element_vector((2,))
    M = FinPresModule(alg, 2, [[a, alg.zero()], [alg.zero(), b]])
    assert M.fitting_ideal == IdealHandle(alg, [alg.mul(a, b)])
    # 2 generators, 1 relation -> zero ideal
    M0 = FinPresModule(alg, 2, [[a, b]])
    assert M0.fitting_ideal == zero_ideal(alg)
    # 0 generators -> unit ideal
    assert FinPresModule(alg, 0, []).fitting_ideal == unit_ideal(alg)


@pytest.mark.parametrize("p,N,group", [(2, 3, C2), (3, 2, C3), (3, 2, C2C2)])
def test_fewer_relations_than_generators_give_the_zero_ideal_on_the_workload_algebras(p, N, group):
    """Over each algebra of the `fitting` workload, a module on n generators
    with k < n random relations has no n x n minor: its Fitting ideal is
    zero_ideal, and the enumeration oracle finds only 0 in it."""
    alg = GroupAlgebra(p, N, group)
    rng = random.Random(p * N * alg.dim)
    for n in (1, 2, 3):
        for k in range(n):
            rels = [[tuple(rng.randrange(alg.q) for _ in range(alg.dim)) for _ in range(n)]
                    for _ in range(k)]
            fitt = FinPresModule(alg, n, rels).fitting_ideal
            assert fitt == zero_ideal(alg)
            assert enumerate_ideal(alg, fitt.generators) == {0}


def test_fitting_contained_in_annihilator():
    rng = random.Random(17)
    for alg in (A_z8c2(), A_z9c3()):
        for _ in range(25):
            n = rng.randint(1, 2)
            k = rng.randint(n, n + 1)
            rels = [
                [tuple(rng.randrange(alg.q) for _ in range(alg.dim)) for _ in range(n)]
                for _ in range(k)
            ]
            M = FinPresModule(alg, n, rels)
            for gen in M.fitting_ideal.generators:
                assert M.annihilator_check(gen)


def module_size(M: FinPresModule) -> int:
    """|M| by exhaustive span enumeration of the relation realization."""
    alg = M.algebra
    rows = []
    for row in M.relations:
        for i in range(alg.dim):
            rows.append([c for entry in row for c in alg.mul(alg.basis_element(i), entry)])
    span = enumerate_span(rows, M.rwidth, alg.q)
    return M.algebra.q**M.rwidth // len(span)


def test_module_size_and_realization():
    alg = A_z9c2()
    three = alg.scalar(3, alg.one)
    M = principal_module(alg, three)  # R/(3): size 3^2 over two basis coords
    assert M.size() == 9
    assert module_size(M) == 9


def test_dual_presentation_examples():
    alg = A_z9c2()
    sig = alg.group_element_vector((1,))
    a = alg.add(alg.one, alg.scalar(2, sig))  # 1 + 2 sigma, regular
    M = principal_module(alg, a)
    D = dual_presentation(M)
    assert D.relations == [[alg.sharp_of(a)]]
    # diag
    b = alg.add(alg.scalar(2, alg.one), sig)
    M2 = FinPresModule(alg, 2, [[a, alg.zero()], [alg.zero(), b]])
    D2 = dual_presentation(M2)
    assert D2.relations == [
        [alg.sharp_of(a), alg.zero()],
        [alg.zero(), alg.sharp_of(b)],
    ]
    # the worked example: [[1+sigma, 3], [0, 3]] -> [[1+sigma, 0], [3, 3]]
    three = alg.scalar(3, alg.one)
    h = [[alg.add(alg.one, sig), three], [alg.zero(), three]]
    D3 = dual_presentation(FinPresModule(alg, 2, h))
    assert D3.relations == [
        [alg.add(alg.one, sig), alg.zero()],
        [three, three],
    ]


def test_e1_sharp_examples_and_random():
    rng = random.Random(23)
    alg = A_z9c3()
    for _ in range(40):
        n = rng.randint(1, 3)
        while True:
            h = [
                [tuple(rng.randrange(alg.q) for _ in range(alg.dim)) for _ in range(n)]
                for _ in range(n)
            ]
            M = FinPresModule(alg, n, h)
            if M.has_square_regular_presentation():
                break
        assert e1_sharp_check(M)


def test_pontryagin_dual_basics():
    alg = A_z9c2()
    sig = alg.group_element_vector((1,))
    # M = R/(1+sigma, 3): the minus line Z/3 with sigma = -1 ... over the full
    # algebra. |M| = 3; the dual must also have 3 elements and sharp-dual Fitt.
    M = FinPresModule(alg, 1, [[alg.add(alg.one, sig)], [alg.scalar(3, alg.one)]])
    assert M.size() == 3
    D = pontryagin_dual(M)
    assert D.size() == 3
    assert D.fitting_ideal == M.fitting_ideal.sharp()
    # Ann-dual relation: Ann(M) = Ann(M^dual)^# tested by exhaustive annihilators
    annM = {x for x in alg.elements() if M.annihilator_check(x)}
    annD = {x for x in alg.elements() if D.annihilator_check(x)}
    assert annM == {alg.sharp_of(x) for x in annD}


def test_a_well_defined_action_has_an_integral_dual():
    """The lemma the closed-form dual rests on (contragredient_presentation
    here, lvalues.minus_dual_presentation on class data). A is well defined mod
    the orders when orders[i] divides orders[j] A[i][j]; so is every power B
    of A (a product of well-defined maps), and then p^v_a divides
    orders[t] B[a][t], hence p^v_t B[a][t]: the dual action X = B^T is
    integral. Over random well-defined actions (p = 3, 5, 7, up to 4
    coordinates, powers up to 6) the presentation's action entries are the
    exact quotients -X[t][a] p^v_t / p^v_a."""
    rng = random.Random(29)
    integral = 0
    for _ in range(300):
        p, N = rng.choice([3, 5, 7]), rng.randint(1, 3)
        k = rng.randint(1, 4)
        orders = [p ** rng.randint(0, 3) * rng.choice([1, 2, 4]) for _ in range(k)]
        A = [[rng.randrange(-9, 10) * (orders[i] // math.gcd(orders[i], orders[j])) for j in range(k)]
             for i in range(k)]
        B = [[int(i == j) for j in range(k)] for i in range(k)]
        vals = [next(v for v in range(4) if d % p ** (v + 1)) for d in orders]
        keep = [a for a in range(k) if vals[a]]
        alg = zmod_algebra(p, N)
        for _ in range(rng.randint(1, 6)):
            B = [[sum(B[i][s] * A[s][j] for s in range(k)) % orders[i] for j in range(k)] for i in range(k)]
            assert all(orders[j] * B[i][j] % orders[i] == 0 for i in range(k) for j in range(k))
            X = [list(col) for col in zip(*B)]
            D = contragredient_presentation(alg, vals, [(alg.one, X)])
            for idx, a in enumerate(keep):
                row = D.relations[len(keep) + idx]
                for jdx, t in enumerate(keep):
                    exact = Fraction(X[t][a] * p ** vals[t], p ** vals[a])
                    assert exact.denominator == 1
                    assert row[jdx] == ((int(idx == jdx) - exact.numerator) % alg.q,)
                    integral += 1
    assert integral > 1000
    # sigma swaps e_0 and e_1 on Z/9 + Z/9 over (Z/9)[C2]: a well-defined action
    alg = A_z9c2()
    sigma = alg.group_element_vector((1,))
    D = contragredient_presentation(alg, [2, 2], [(sigma, [[0, 1], [1, 0]])])
    assert D.size() == 81


def test_pontryagin_dual_matches_dual_presentation_fitting():
    rng = random.Random(31)
    alg = A_z9c2()
    for _ in range(20):
        n = rng.randint(1, 2)
        while True:
            h = [
                [tuple(rng.randrange(alg.q) for _ in range(alg.dim)) for _ in range(n)]
                for _ in range(n)
            ]
            M = FinPresModule(alg, n, h)
            if M.has_square_regular_presentation():
                break
        # transpose-sharp route and generic-dual route agree on Fitting ideals
        assert pontryagin_dual(M).fitting_ideal == dual_presentation(M).fitting_ideal
        assert pontryagin_dual(M).size() == M.size()


def test_pontryagin_double_dual_recovers_fitting_ideal():
    # one generator and 0-2 relations, so most presentations are not square
    rng = random.Random(37)
    for alg in (A_z8c2(), A_z9c3()):
        for _ in range(20):
            rels = [
                [tuple(rng.randrange(alg.q) for _ in range(alg.dim))]
                for _ in range(rng.randint(0, 2))
            ]
            M = FinPresModule(alg, 1, rels)
            DD = pontryagin_dual(pontryagin_dual(M))
            assert pontryagin_dual(M).size() == DD.size() == M.size()
            assert DD.fitting_ideal == M.fitting_ideal
            assert ideal_equal_oracle(DD.fitting_ideal, M.fitting_ideal)


@pytest.mark.parametrize("orders", [(2, 2, 2), (2, 9)], ids=str)
def test_certified_e1_sharp_with_its_dual_reaches_dim_8_and_18(orders):
    """Six certified E^1-sharp ops with their Pontryagin dual comparison
    (Fitt(M^dual) = Fitt(E^1(M)) and |M^dual| = |M|) over (Z/9)[C2 x C2 x C2]
    and (Z/9)[C2 x C9], on nonzero modules, each set of ops in under 1 s:
    the dual's Fitting ideal takes the minors of its Nakayama presentation.
    The draws are not timed; over (Z/9)[C2 x C9] most certified squares
    present the zero module."""
    group = FiniteAbelianGroup(orders)
    alg, lifted = GroupAlgebra(3, 2, group), GroupAlgebra(3, 3, group)
    rng = random.Random(1)
    modules = [
        campaigns._draw_until(lambda: campaigns._random_certified_square(alg, lifted, rng),
                              lambda M: M.size() > 1)
        for _ in range(6)
    ]
    t0 = time.perf_counter()
    for M in modules:
        D = pontryagin_dual(M)
        assert e1_sharp_check(M)
        assert D.fitting_ideal == dual_presentation(M).fitting_ideal
        assert D.size() == M.size()
    assert time.perf_counter() - t0 < 1.0


def test_base_change_examples():
    alg = A_z9c2()
    sig = alg.group_element_vector((1,))
    quo, proj = minus_quotient(alg, (1,))
    M = principal_module(alg, alg.add(alg.one, sig))
    assert base_change_fitting(M, proj)
    # aug map (Z/9)[C_3] -> Z/9 on R/(gamma - 1): both routes give (0)
    alg3 = A_z9c3()
    target = zmod_algebra(3, 2)
    aug = AlgebraMorphism(alg3, target, [target.one] * 3)
    gamma = alg3.group_element_vector((1,))
    M2 = principal_module(alg3, alg3.sub(gamma, alg3.one))
    assert base_change_fitting(M2, aug)
    pushed = FinPresModule(target, 1, [[aug.apply(alg3.sub(gamma, alg3.one))]])
    assert pushed.fitting_ideal == zero_ideal(target)


def test_base_change_rejects_non_homomorphism():
    alg3 = A_z9c3()
    target = zmod_algebra(3, 2)
    bad = AlgebraMorphism(alg3, target, [target.one, target.one, target.zero()])
    M = principal_module(alg3, alg3.one)
    with pytest.raises(ValueError):
        base_change_fitting(M, bad)


def _kernel_module_of_multiplication(C, z):
    """Kernel of z: C -> C as a subquotient presentation."""
    f = multiplication_map(C, z)
    ker = f.kernel_span
    return subquotient_presentation(C.algebra, C.ngens, ker, C.relation_span)


def test_four_term_exactness_and_lemma():
    # 0 -> ker(z) -> C -z-> C -> cok(z) -> 0 over (Z/9)[C_2]
    rng = random.Random(41)
    alg = A_z9c2()
    sig = alg.group_element_vector((1,))
    trials = 0
    while trials < 15:
        h = [
            [tuple(rng.randrange(alg.q) for _ in range(alg.dim)) for _ in range(2)]
            for _ in range(2)
        ]
        C = FinPresModule(alg, 2, h)
        if not C.has_square_regular_presentation():
            continue
        z = tuple(rng.randrange(alg.q) for _ in range(alg.dim))
        trials += 1
        sub = _kernel_module_of_multiplication(C, z)
        Mker = sub.module
        # build the four maps
        alpha = ModuleMap(Mker, C, sub.gens_ambient)
        beta = multiplication_map(C, z)
        Mcok = FinPresModule(alg, C.ngens, C.relations + beta.matrix)
        gamma = ModuleMap(C, Mcok, identity_map(C).matrix)
        assert four_term_check(Mker, C, C, Mcok, alpha, beta, gamma)


def test_four_term_spec_example():
    # C = C' = (Z/9)[C_2]/(3), M = M' = ker/cok of a sigma-twisted unit times 3-divisor
    alg = A_z9c2()
    sig = alg.group_element_vector((1,))
    three = alg.scalar(3, alg.one)
    C = principal_module(alg, three)
    z = alg.mul(alg.add(alg.one, alg.scalar(2, sig)), alg.scalar(1, alg.one))  # unit
    z3 = alg.scalar(3, z)
    sub = _kernel_module_of_multiplication(C, z3)
    alpha = ModuleMap(sub.module, C, sub.gens_ambient)
    beta = multiplication_map(C, z3)
    Mcok = FinPresModule(alg, 1, C.relations + beta.matrix)
    gamma = ModuleMap(C, Mcok, identity_map(C).matrix)
    assert four_term_check(sub.module, C, C, Mcok, alpha, beta, gamma)


def test_four_term_trivial_ends():
    # M = M' = 0 and C = C' via a unit multiplication: both sides Fitt(C)^2
    alg = A_z9c2()
    sig = alg.group_element_vector((1,))
    C = principal_module(alg, alg.add(alg.scalar(3, alg.one), sig))
    unit = alg.add(alg.one, alg.scalar(3, sig))
    beta = multiplication_map(C, unit)
    sub = _kernel_module_of_multiplication(C, unit)
    assert sub.module.size() == 1
    Mcok = FinPresModule(alg, 1, C.relations + beta.matrix)
    alpha = ModuleMap(sub.module, C, sub.gens_ambient)
    gamma = ModuleMap(C, Mcok, identity_map(C).matrix)
    assert four_term_check(sub.module, C, C, Mcok, alpha, beta, gamma)


def test_base_change_identity_is_trivial():
    alg = A_z9c3()
    ident = AlgebraMorphism(alg, alg, [alg.basis_element(i) for i in range(alg.dim)])
    M = principal_module(alg, alg.scalar(3, alg.one))
    assert base_change_fitting(M, ident)


def test_a_dim_486_group_algebra_build_allocates_under_8_mb():
    """(Z/9)[C2 x C243], built first over its group: the group's product
    table, inversion, basis index and Kronecker layout included, the build
    allocates less than 8 MB (a dim x dim table of one-term lists took
    36 MB), and it builds no structure-constant table. Memory, not time: the
    bound holds on any machine."""
    for cached in (groupring.mul_table, groupring.inversion, groupring.basis_index,
                   groupring.kronecker_layout):
        cached.cache_clear()
    tracemalloc.start()
    try:
        alg = GroupAlgebra(3, 2, FiniteAbelianGroup((2, 243)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert alg.dim == 486 and peak < 8_000_000
    assert not hasattr(alg, "terms") and not hasattr(alg, "sharp_images")


def test_tower_fitting_check_principal():
    # A_n = Lambda_n/(theta_n) for a coherent Stickelberger tower: equality.
    from iwasawa_kit.abelian import AbelianFieldSpec
    from iwasawa_kit.tower import theta_tower

    Z5 = AbelianFieldSpec.cyclotomic(5)
    t = theta_tower(Z5, [5, "oo"], [2], 5, 2, 1, 0)
    algs = [GroupAlgebra(5, 2, lvl.group) for lvl in t.levels]
    mods = [principal_module(algs[n], t.entries[n]) for n in range(2)]
    proj = group_algebra_morphism(
        algs[1], algs[0], lambda g: t.levels[1].project(g, 0)
    )
    report = tower_fitting_check(mods, [proj])
    assert report["ok"] and all(report["equal"])


def test_tower_fitting_check_constant_system():
    alg0 = A_z9c3()
    # constant system: same algebra at both levels, identity projection
    ident = AlgebraMorphism(alg0, alg0, [alg0.basis_element(i) for i in range(alg0.dim)])
    a = alg0.scalar(3, alg0.one)
    M = principal_module(alg0, a)
    report = tower_fitting_check([M, M], [ident])
    assert report["ok"] and all(report["equal"])


def test_ideals_over_different_algebras_differ_and_a_copy_compares():
    """Ideals over different algebras are unequal, whatever the widths: Z/9
    against (Z/9)[C3], and (Z/9)[C3] against (Z/27)[C3]; a structural copy
    of the algebra still compares."""
    c3 = A_z9c3()
    cases = [
        (IdealHandle(zmod_algebra(3, 2), [(1,)]), IdealHandle(c3, [(0, 1, 2)])),
        (unit_ideal(c3), unit_ideal(GroupAlgebra(3, 3, C3))),
    ]
    for I, J in cases:
        assert I != J and J != I
    copy = FiniteCommAlgebra.from_json(algebra_json(c3))
    assert unit_ideal(c3).contains(IdealHandle(copy, [(0, 1, 2)]))
    assert not IdealHandle(copy, [(0, 1, 2)]).contains(unit_ideal(c3))


def _two_levels():
    """(Z/9)[C3] below (Z/9)[C9], the projection reducing mod 3, and the
    principal modules of 3 and of 3 + (g - 1)."""
    low, high = A_z9c3(), GroupAlgebra(3, 2, FiniteAbelianGroup((9,)))
    proj = group_algebra_morphism(high, low, lambda g: g)
    g = high.basis_element(1)
    x = high.add(high.scalar(3, high.one), high.sub(g, high.one))
    return principal_module(low, proj.apply(x)), principal_module(high, x), proj


def test_tower_fitting_check_over_two_levels():
    low, high, proj = _two_levels()
    report = tower_fitting_check([low, high], [proj])
    assert report["ok"] and all(report["equal"])


def test_lemma_6_4_integral_extension_cancellation():
    # Ra <= Rb, b regular, equal component valuations => Ra = Rb, tested over
    # (Z/9)[C_2] against the character-component algebra Z/9 x Z/9.
    rng = random.Random(53)
    alg = A_z9c2()
    sig = alg.group_element_vector((1,))

    def components(x):
        # chi(x) for the two characters of C_2
        a, b = x[0], x[1]
        return ((a + b) % 9, (a - b) % 9)

    found = 0
    while found < 30:
        b = tuple(rng.randrange(9) for _ in range(2))
        if not all(c % 3 for c in components(b)):
            continue  # need b regular: both components units
        r = tuple(rng.randrange(9) for _ in range(2))
        a = alg.mul(r, b)
        # hypothesis: Sa = Sb iff components of a are unit multiples of b's
        if not all(c % 3 for c in components(r)):
            continue
        found += 1
        Ia, Ib = IdealHandle(alg, [a]), IdealHandle(alg, [b])
        assert Ib.contains(Ia)  # Ra <= Rb by construction
        assert Ia == Ib  # the cancellation conclusion


def test_subquotient_presentation_roundtrip():
    # H = ker/im machinery: present (3)/(1+sigma)(3)-ish subquotients and
    # verify sizes by enumeration.
    alg = A_z9c2()
    sig = alg.group_element_vector((1,))
    C = principal_module(alg, alg.scalar(9, alg.one))  # free of rank 1
    f = multiplication_map(C, alg.scalar(3, alg.one))
    ker = f.kernel_span
    sub = subquotient_presentation(alg, 1, ker, C.relation_span)
    # kernel of multiplication by 3 on (Z/9)[C_2] is (3), of size 9
    assert sub.module.size() == 9

