"""Tests for partial zeta vectors, Stickelberger elements, L-values, and the
annihilation / Fitting-membership checks. Expected values follow independent
oracles: sympy's Hurwitz zeta, the Bernoulli recurrence, exhaustive action."""

import math
import random
import time
from fractions import Fraction

import pytest
import sympy
from algebra_helpers import Cyclotomic, character_log
from fraction_route import as_fractions, as_pair, cyclotomic_from_powers, rational_value

from iwasawa_kit.abelian import (
    AbelianFieldSpec,
    CharacterTable,
    FiniteAbelianGroup,
    check_hyp,
    dirichlet_character,
    galois_group,
    normalize_places,
    ramified_primes,
)
from iwasawa_kit.campaigns import corpus_cm_specs, corpus_st_choices
from iwasawa_kit.exact import (
    CyclotomicInt,
    bernoulli_polynomial,
    padic_from_rational,
    poly_eval,
)
from iwasawa_kit.groupring import basis_index, from_json, mul, push, sharp, translate
from iwasawa_kit.lvalues import (
    ClassModuleData,
    StickelbergerElement,
    _bernoulli_vector,
    _mat_power,
    annihilation_check,
    fitting_membership_check,
    is_p_integral,
    minus_dual_presentation,
    theta,
    theta_character_side,
    theta_places,
    theta_value,
    verify_case,
    verify_integrality,
)
from iwasawa_kit.oracles import annihilation_oracle, ideal_member_oracle

Q = Fraction
OO = "oo"

Z3 = AbelianFieldSpec.cyclotomic(3)
Z5 = AbelianFieldSpec.cyclotomic(5)


def sigma(spec, a):
    return galois_group(spec).element_of(a)


def element(group, coeffs):
    """The group-ring tuple of {g: c}, zero elsewhere."""
    return tuple(Q(coeffs.get(g, 0)) for g in group.elements())


def pair(group, coeffs):
    """The (nums, den) pair of {g: c}, zero elsewhere."""
    return as_pair(element(group, coeffs))


def coeff(x, group, g):
    return x[basis_index(group)[g]]


def zeta_vector(spec, S, r):
    """sigma -> zeta_S(r, sigma) on the spec's presentation: theta_value with
    T empty, S admitted by theta's check, read back through #."""
    s_fin, _ = theta_places(spec, S, [], r)
    pres = galois_group(spec)
    nums, den = theta_value(pres, s_fin, set(), r)
    return sharp(nums, pres.group), den


def test_partial_zeta_z3_at_zero():
    grp = galois_group(Z3).group
    vec = as_fractions(zeta_vector(Z3, [3, OO], 0))
    assert coeff(vec, grp, sigma(Z3, 1)) == Q(1, 6)
    assert coeff(vec, grp, sigma(Z3, 2)) == Q(-1, 6)


def test_partial_zeta_z3_at_minus_one():
    assert zeta_vector(Z3, [3, OO], -1) == ((1, 1), 12)


def test_partial_zeta_rationals():
    specq = AbelianFieldSpec.rationals()
    assert zeta_vector(specq, [OO], 0) == ((-1,), 2)


def test_partial_zeta_against_sympy_hurwitz():
    # zeta_S(r, sigma_a) = sum over b = a mod f of f^(-r) zeta(r, b/f)
    for spec, f in ((Z3, 3), (Z5, 5)):
        for r in (0, -1, -2):
            vec = as_fractions(zeta_vector(spec, [f, OO], r))
            for a in range(1, f):
                expect = sympy.zeta(r, sympy.Rational(a, f)) * f ** (-r)
                got = coeff(vec, galois_group(spec).group, sigma(spec, a))
                assert sympy.Rational(got.numerator, got.denominator) == expect


def test_theta_preconditions():
    # missing ramified 3, r > 0, missing infinite place: refused by theta's
    # one check, on theta and on the character route alike
    for S, r in (([OO], 0), ([3, OO], 1), ([3], 0)):
        for run in (theta, theta_character_side):
            with pytest.raises(ValueError):
                run(Z3, S, [], r)


def euler_enlarge(x, spec, v, r):
    """Multiply by the removed Euler factor (1 - Nv^(-r) sigma_v^(-1))."""
    pres = galois_group(spec)
    shifted = translate(x, pres.group, pres.group.inv(pres.frobenius(v)))
    return tuple(a - Fraction(v) ** (-r) * b for a, b in zip(x, shifted))


def test_euler_enlarge_examples():
    base = as_fractions(theta(Z3, [3, OO], [], 0).value)
    # sigma_7 = identity: factor (1 - 1) = 0
    enlarged = euler_enlarge(base, Z3, 7, 0)
    assert not any(enlarged)
    # v = 2 at r = -1: factor 1 - 2 sigma_2
    grp = galois_group(Z3).group
    got = euler_enlarge(base, Z3, 2, -1)
    factor = element(grp, {grp.identity: 1, sigma(Z3, 2): -2})
    assert got == mul(factor, base, grp)


def test_euler_enlarge_matches_extended_s():
    for r in (0, -1, -2):
        via_factor = euler_enlarge(as_fractions(theta(Z3, [3, OO], [], r).value), Z3, 5, r)
        direct = as_fractions(theta(Z3, [3, 5, OO], [], r).value)
        assert via_factor == direct


def test_theta_z3_examples():
    grp = galois_group(Z3).group
    t0 = theta(Z3, [3, OO], [], 0).value
    assert t0 == pair(grp, {sigma(Z3, 1): Q(1, 6), sigma(Z3, 2): Q(-1, 6)})
    t7 = theta(Z3, [3, OO], [7], 0).value
    assert t7 == pair(grp, {sigma(Z3, 2): Q(1), sigma(Z3, 1): Q(-1)})
    t2 = theta(Z3, [3, OO], [2], 0).value
    assert t2 == pair(grp, {sigma(Z3, 1): Q(1, 2), sigma(Z3, 2): Q(-1, 2)})


def test_theta_integrality_tracks_hyp():
    assert verify_integrality(theta(Z3, [3, OO], [7], 0))
    assert not verify_integrality(theta(Z3, [3, OO], [2], 0))
    assert check_hyp(Z3, [3, OO], [7])[0]
    assert not check_hyp(Z3, [3, OO], [2])[0]
    assert theta(Z3, [3, OO], [], 0).value == theta(Z3, [3, OO], [], 0).value
    with pytest.raises(ValueError):
        theta(Z3, [3, OO], [3], 0)  # S and T meet


def test_theta_integrality_at_deep_twists_sees_higher_torsion():
    # At twist r the relevant torsion is the (1-r)-th one: over Q(zeta_3) the
    # prime 7 enters exactly when 6 = [Q(zeta_3, mu_7):Q(zeta_3)] divides 1-r,
    # and T = {7} cannot smooth its own residue characteristic. So T = {7} is
    # integral for r = 0..-4 and -6 but NOT at r = -5 (a genuine denominator
    # 7, von Staudt-Clausen through B_6); adding a prime of another residue
    # characteristic restores integrality.
    for r in (0, -1, -2, -3, -4, -6):
        assert verify_integrality(theta(Z3, [3, OO], [7], r)), r
    deep = theta(Z3, [3, OO], [7], -5)
    assert not verify_integrality(deep)
    assert deep.value[1] == 7 and {c.denominator for c in as_fractions(deep.value) if c} == {7}
    assert verify_integrality(theta(Z3, [3, OO], [5, 7], -5))
    # two residue characteristics in T: integral through r = -6 over Q(zeta_5)
    for r in range(0, -7, -1):
        assert verify_integrality(theta(Z5, [5, OO], [3, 7], r)), r


def test_integrality_of_zero():
    grp = galois_group(Z3).group
    zero = StickelbergerElement(pair(grp, {}), grp, Z3, (3, OO), (), 0)
    assert verify_integrality(zero)


def test_p_integrality():
    t2 = theta(Z5, [5, OO], [2], 0)
    assert not verify_integrality(t2)
    assert is_p_integral(t2.value, 5)
    assert not is_p_integral(t2.value, 2)


def test_dirichlet_l_examples():
    # with T empty the chi-component of theta is L_S(r, contragredient chi);
    # both characters of Q(zeta_3) are their own contragredients. Over Q,
    # where S = {oo} holds every ramified prime, it is zeta(0).
    components = theta_character_side(AbelianFieldSpec.rationals(), [OO], [], 0)
    assert {label: rational_value(c) for label, c in components.items()} == {(): Q(-1, 2)}
    triv, nontriv = CharacterTable(galois_group(Z3).group).labels
    assert rational_value(theta_character_side(Z3, [3, OO], [], 0)[nontriv]) == Q(1, 3)
    assert rational_value(theta_character_side(Z3, [3, OO], [], 0)[triv]) == 0


def test_l_values_reproduce_imaginary_quadratic_class_numbers():
    # L(0, chi_d) = (2/w) h(Q(sqrt(-d))) for the odd quadratic character of
    # conductor d: published class numbers are the oracle. S holds oo and the
    # primes of d, whose Euler factors are 1 as chi_d vanishes there.
    from iwasawa_kit.abelian import dirichlet_character

    table = {
        3: (Q(1, 3), frozenset({1})),            # h = 1, w = 6
        4: (Q(1, 2), frozenset({1})),            # h = 1, w = 4
        7: (Q(1), frozenset({1, 2, 4})),         # h = 1
        11: (Q(1), frozenset({1, 3, 4, 5, 9})),  # h = 1
        23: (Q(3), frozenset({pow(a, 2, 23) for a in range(1, 23)})),  # h = 3
    }
    for f, (expected, fixing) in table.items():
        spec = AbelianFieldSpec(f, fixing)
        gal = galois_group(spec)
        tab = CharacterTable(gal.group)
        chi = dirichlet_character(gal, tab.labels[1])
        assert chi.conductor == f and chi.log_of(-1) != 0  # odd
        # chi is quadratic, its own contragredient
        S = [*sorted(ramified_primes(spec)), OO]
        assert rational_value(theta_character_side(spec, S, [], 0)[tab.labels[1]]) == expected


def test_character_cross_validation_small():
    # component_chi(theta_{S,T}(r)) computed through the group ring equals the
    # independent generalized-Bernoulli route, exactly.
    cases = [
        (Z3, [3, OO], []),
        (Z3, [3, OO], [7]),
        (Z5, [5, OO], [2]),
        (Z5, [5, OO], [3, 7]),
        (AbelianFieldSpec.cyclotomic(12), [2, 3, OO], [5]),
    ]
    for spec, S, T in cases:
        gal = galois_group(spec)
        tab = CharacterTable(gal.group)
        for r in (0, -1, -2):
            th = theta(spec, S, T, r).value
            lhs = tab.decompose(th)
            rhs = theta_character_side(spec, S, T, r)
            assert lhs == rhs, (spec.label, S, T, r)


# The Cyclotomic form of the character route, kept as the test oracle of
# the integer-vector form in lvalues: every value is a Cyclotomic and
# every product is reduced mod Phi_e again.

def oracle_generalized_bernoulli(chi, n):
    f = chi.conductor
    coeffs = bernoulli_polynomial(n)
    powers = {}
    for a in range(1, f + 1):
        t = chi.log_of(a)
        if t is not None:
            powers[t] = powers.get(t, Q(0)) + poly_eval(coeffs, Q(a, f))
    return cyclotomic_from_powers(chi.order, powers) * Q(f) ** (n - 1)


def oracle_dirichlet_l_nonpos(chi, S, r):
    n = 1 - r
    value = oracle_generalized_bernoulli(chi, n) * Q(-1, n)
    s_fin, _ = normalize_places(S)
    for v in sorted(s_fin):
        if chi.conductor % v != 0 or chi.conductor == 1:
            one = Cyclotomic.from_rational(chi.order, Q(1))
            value = value * (one - Cyclotomic.zeta(chi.order, chi.log_of(v)) * Q(v) ** (-r))
    return value


def oracle_theta_character_side(spec, S, T, r):
    gal = galois_group(spec)
    table = CharacterTable(gal.group)
    t_fin, _ = normalize_places(T)
    out = {}
    for label in table.labels:
        chi = dirichlet_character(gal, label)
        lval = oracle_dirichlet_l_nonpos(chi.contragredient(), S, r)
        for v in sorted(t_fin):
            one = Cyclotomic.from_rational(chi.order, Q(1))
            lval = lval * (one - Cyclotomic.zeta(chi.order, -chi.log_of(v)) * Q(v) ** (1 - r))
        out[label] = lval
    return out


def corpus_characters():
    """(spec, {label: character}, (S, T)) per CM spec of conductor <= 24;
    (S, T) is the corpus choice with the most places, so Euler and T-factors
    both act."""
    for spec in corpus_cm_specs(24):
        gal = galois_group(spec)
        table = CharacterTable(gal.group)
        chars = {label: dirichlet_character(gal, label) for label in table.labels}
        S, T = max(corpus_st_choices(spec), key=lambda st: len(st[0]) + len(st[1]))
        yield spec, chars, (S, T)


def test_character_route_matches_cyclotomic_oracle():
    # r = -3 is outside the acceptance campaign. With T empty the components
    # are the L-values L_S(r, contragredient chi), checked with S = S_ram + oo
    # at r = 1 - n for n = 1..4, and B_{n,chi} itself is checked at each n.
    for spec, chars, (S, T) in corpus_characters():
        for r in (0, -3):
            got = theta_character_side(spec, S, T, r)
            assert got == oracle_theta_character_side(spec, S, T, r), (spec.label, S, T, r)
            assert theta_character_side(spec, S, [], r) == oracle_theta_character_side(spec, S, [], r)
        s_ram = [*sorted(ramified_primes(spec)), OO]
        for n in (1, 2, 3, 4):
            got = theta_character_side(spec, s_ram, [], 1 - n)
            assert got == oracle_theta_character_side(spec, s_ram, [], 1 - n), (spec.label, n)
            for chi in chars.values():
                b = CyclotomicInt(chi.order, *_bernoulli_vector(chi, n))
                assert b == oracle_generalized_bernoulli(chi, n), (spec.label, chi.logs, n)


def test_generalized_bernoulli_parity_vanishing():
    # B_{n,chi} = 0 whenever chi(-1) != (-1)^n and chi is nontrivial.
    seen = 0
    for _, chars, _ in corpus_characters():
        for chi in chars.values():
            if chi.conductor == 1:
                continue
            for n in range(1, 7):
                b = CyclotomicInt(chi.order, *_bernoulli_vector(chi, n))
                if (chi.log_of(-1) != 0) == (n % 2 == 0):  # chi odd and n even
                    assert rational_value(b) == 0, (chi, n)
                    seen += 1
                else:
                    assert any(b.nums), (chi, n)
    assert seen > 100


def test_inflation_coherence():
    # L = Q(zeta_12) over L' = Q(zeta_3) inside modulus 12: projecting theta
    # coefficientwise along Gal(L/Q) ->> Gal(L'/Q) gives theta of L'.
    big = AbelianFieldSpec.cyclotomic(12)
    small = AbelianFieldSpec(12, frozenset({1, 7}), "zeta3-in-12")
    gb, gs = galois_group(big), galois_group(small)
    def proj(g):  # Gal(L/Q) ->> Gal(L'/Q) on representatives
        return gs.element_of(gb.representatives[g])

    for r in (0, -1, -2):
        th_big = as_fractions(theta(big, [2, 3, OO], [], r).value)
        index = basis_index(gs.group)
        pushed = push(th_big, [index[proj(g)] for g in gb.group.elements()], gs.group.size)
        th_small = as_fractions(theta(small, [2, 3, OO], [], r).value)
        assert pushed == th_small


def test_parity_vanishing_via_characters():
    # (1 + (-1)^r j) theta = 0 whenever every component of the complementary
    # parity vanishes; the vanishing itself is established by the independent
    # character route rather than assumed.
    from iwasawa_kit.abelian import cm_data

    for spec in (Z3, Z5, AbelianFieldSpec.cyclotomic(12)):
        cm = cm_data(spec)
        gal = galois_group(spec)
        grp = gal.group
        tab = CharacterTable(grp)
        S = {3: [3, OO], 5: [5, OO], 12: [2, 3, OO]}[spec.modulus]
        for r in (0, -1, -2):
            comps = theta_character_side(spec, S, [], r)
            # complementary parity: chi with chi(j) = (-1)^r
            want = 0 if r % 2 == 0 else tab.e // 2
            complementary = [c for c in tab.labels if character_log(tab, c, cm.j) == want]
            assert all(rational_value(comps[c]) == 0 for c in complementary)
            th, _ = theta(spec, S, [], r).value
            projector = element(grp, {grp.identity: 1, cm.j: 1 if r % 2 == 0 else -1})
            assert not any(mul(projector, th, grp))


def test_annihilation_check_examples():
    grp = galois_group(Z3).group
    # M = Z/3 with sigma acting as -1
    M = ClassModuleData((3,), grp.orders, {0: [[-1]]}, "synthetic")
    s2 = sigma(Z3, 2)
    th1 = StickelbergerElement(
        pair(grp, {s2: Q(1), grp.identity: Q(-1)}), grp, Z3, (3, OO), (7,), 0
    )
    ok, witness = annihilation_check(th1, M)
    assert not ok
    assert witness == [[1]]  # acts as -2 = 1 mod 3
    th3 = StickelbergerElement(pair(grp, {s2: 3, grp.identity: -3}), grp, Z3, (3, OO), (7,), 0)
    ok3, _ = annihilation_check(th3, M)
    assert ok3
    # trivial module
    Mtriv = ClassModuleData((1,), grp.orders, {0: [[1]]}, "trivial")
    assert annihilation_check(th1, Mtriv)[0]


def test_annihilation_matches_exhaustive_oracle():
    grp = galois_group(Z3).group
    M = ClassModuleData((3, 9), grp.orders, {0: [[-1, 3], [0, -1]]}, "synthetic")
    s2 = sigma(Z3, 2)
    for coeffs in (
        {s2: Q(1), grp.identity: Q(-1)},
        {s2: Q(3), grp.identity: Q(-3)},
        {s2: Q(9), grp.identity: Q(-9)},
        {grp.identity: Q(9)},
    ):
        th = StickelbergerElement(pair(grp, coeffs), grp, Z3, (3, OO), (7,), 0)
        ok, _ = annihilation_check(th, M)
        assert ok == annihilation_oracle(th.value[0], grp.orders, M.action, M.orders)


def test_annihilation_oracle_reads_the_coefficients_in_the_basis_order():
    """Over C2 x C2 with g0 acting as -1 and g1 trivially on Z/3, g1 - 1 kills
    the module and g0 - 1 does not: the oracle and the checker agree on
    which coefficient belongs to which element."""
    group = FiniteAbelianGroup((2, 2))
    M = ClassModuleData((3,), group.orders, {0: [[-1]], 1: [[1]]})
    index = basis_index(group)
    for g, kills in (((0, 1), True), ((1, 0), False)):
        nums = [0] * group.size
        nums[index[g]], nums[index[(0, 0)]] = 1, -1
        th = StickelbergerElement((tuple(nums), 1), group, None, (), (), 0)
        assert annihilation_check(th, M)[0] == kills
        assert annihilation_oracle(nums, group.orders, M.action, M.orders) == kills


def sharp_target(th, M, p, N):
    """The minus dual of M over Z3 and theta^# reduced mod p^N and projected
    to its algebra: what verify_case returns for an admitted theta."""
    dual_mod, proj = minus_dual_presentation(Z3, M, p, N)
    return dual_mod, proj.apply(sharp(padic_from_rational(th.value, p, N), th.group))


def test_fitting_membership_examples():
    grp = galois_group(Z3).group
    M = ClassModuleData((3,), grp.orders, {0: [[-1]]}, "synthetic")
    s2 = sigma(Z3, 2)
    th1 = StickelbergerElement(
        pair(grp, {s2: Q(1), grp.identity: Q(-1)}), grp, Z3, (3, OO), (7,), 0
    )
    ok, residual = fitting_membership_check(*sharp_target(th1, M, 3, 2))
    assert not ok and any(residual)
    th3 = StickelbergerElement(pair(grp, {s2: 3, grp.identity: -3}), grp, Z3, (3, OO), (7,), 0)
    ok3, res3 = fitting_membership_check(*sharp_target(th3, M, 3, 2))
    assert ok3 and not any(res3)
    Mtriv = ClassModuleData((1,), grp.orders, {0: [[1]]}, "trivial")
    assert fitting_membership_check(*sharp_target(th1, Mtriv, 3, 2))[0]


def test_fitting_membership_matches_enumeration_oracle():
    grp = galois_group(Z3).group
    M = ClassModuleData((3,), grp.orders, {0: [[-1]]}, "synthetic")
    dual_mod, proj = minus_dual_presentation(Z3, M, 3, 2)
    fitt = dual_mod.fitting_ideal
    s2 = sigma(Z3, 2)
    for coeffs, expected in (
        ({s2: Q(1), grp.identity: Q(-1)}, False),
        ({s2: Q(3), grp.identity: Q(-3)}, True),
    ):
        th = StickelbergerElement(pair(grp, coeffs), grp, Z3, (3, OO), (7,), 0)
        target = proj.apply(sharp(padic_from_rational(th.value, 3, 2), grp))
        assert ideal_member_oracle(target, fitt) == expected
        assert fitting_membership_check(dual_mod, target)[0] == expected
    # the admitted case of a true theta: verify_case builds the same dual and target
    th, dual, target = verify_case(Z3, [3, OO], [7], 0, M, 3, 2)
    assert th.value == theta(Z3, [3, OO], [7], 0).value
    assert (dual.relations, target) == (dual_mod.relations,
                                         sharp_target(th, M, 3, 2)[1])
    assert fitting_membership_check(dual, target)[0] == ideal_member_oracle(target, fitt)


def test_class_module_data_validation():
    grp = galois_group(Z3).group
    with pytest.raises(ValueError):
        ClassModuleData((3,), grp.orders, {0: [[0]]}, "bad")  # 0^2 != 1 mod 3
    with pytest.raises(ValueError):
        ClassModuleData((3,), grp.orders, {}, "bad")  # missing generator
    # well-definedness: order 3 coordinate mapping into order 9 coordinate
    with pytest.raises(ValueError):
        ClassModuleData((9, 3), grp.orders, {0: [[-1, 1], [0, -1]]}, "bad")


def test_class_data_with_huge_generator_orders_is_checked_at_once():
    """A^o = 1 is checked by squaring: o = 10^18 takes some 60 products, not
    10^18, and a violated relation is still refused."""
    start = time.perf_counter()
    ClassModuleData((3,), (10**18,), {0: [[-1]]})
    with pytest.raises(ValueError, match="generator order"):
        ClassModuleData((3,), (10**18 + 1,), {0: [[-1]]})
    for bad in (0, -1):
        with pytest.raises(ValueError, match="group orders must be positive"):
            ClassModuleData((3,), (bad,), {0: [[-1]]})
    assert time.perf_counter() - start < 1


def test_matrix_powers_by_squaring_match_repeated_products():
    """Reducing row i mod orders[i] after each squaring is exact for a
    well-defined matrix (orders[i] | orders[j] A[i][j])."""
    rng = random.Random(30)
    for _ in range(200):
        orders = tuple(rng.choice((3, 5, 9, 27)) for _ in range(rng.randint(1, 3)))
        k = len(orders)
        A = [[rng.randrange(-30, 30) * (orders[i] // math.gcd(orders[i], orders[j]))
              for j in range(k)] for i in range(k)]
        e = rng.randrange(40)
        power = [[int(i == j) for j in range(k)] for i in range(k)]
        for _ in range(e):
            power = [[sum(power[i][t] * A[t][j] for t in range(k)) for j in range(k)] for i in range(k)]
        assert _mat_power(A, e, orders) == [[power[i][j] % orders[i] for j in range(k)] for i in range(k)]


def test_theta_json_roundtrip():
    th = theta(Z5, [5, OO], [2], -1)
    payload = th.to_json()
    grp = galois_group(Z5).group
    back = from_json(payload["coefficients"], grp, Fraction)
    assert as_pair(back) == th.value
    assert payload["S"] == ["5", "oo"] and payload["T"] == ["2"] and payload["r"] == -1


def test_class_module_json_roundtrip():
    grp = galois_group(Z3).group
    M = ClassModuleData((3, 9), grp.orders, {0: [[-1, 3], [0, -1]]}, "synthetic")
    payload = {"orders": [3, 9], "group_orders": list(grp.orders),
               "action": {"g0": [[-1, 3], [0, -1]]}, "provenance": "synthetic"}
    assert vars(ClassModuleData.from_json(payload)) == vars(M)
