"""Tests for abelian field specs, Galois groups, CM data, layers, Hyp, characters."""

import math
import random
import re
from fractions import Fraction

import pytest
import sympy
from algebra_helpers import Cyclotomic, character_key, character_log, contragredient
from fraction_route import as_fractions, as_pair, rational_value

from iwasawa_kit.abelian import (
    INFINITE_PLACE as OO,
    AbelianFieldSpec,
    CharacterTable,
    DirichletCharacter,
    FiniteAbelianGroup,
    TowerLevelData,
    admissible_places,
    check_hyp,
    cm_data,
    conductor,
    dirichlet_characters,
    galois_group,
    layer,
    ramified_primes,
    roots_of_unity_order,
)
from iwasawa_kit.exact import CyclotomicInt
from iwasawa_kit.groupring import linear_form, mul, mul_table, translate
from iwasawa_kit.linalg import smith_normal_form
from iwasawa_kit.lvalues import theta, theta_character_side
from iwasawa_kit.tower import theta_tower

Q = Fraction


def element(group, coeffs):
    """The group-ring tuple of {g: c}, zero elsewhere."""
    return tuple(Q(coeffs.get(g, 0)) for g in group.elements())


def scaled(x, c):
    return tuple(c * a for a in x)


def added(x, y):
    return tuple(a + b for a, b in zip(x, y))


def element_order(group, g):
    return math.lcm(*(d // math.gcd(a, d) for a, d in zip(g, group.orders)))


def idempotent(tab, label):
    """e(chi) = (1/|G|) sum_g chi(g^(-1)) g, Cyclotomic coefficients."""
    inv_size = Q(1, tab.group.size)
    return tuple(
        Cyclotomic.zeta(tab.e, -character_log(tab, label, g)) * inv_size
        for g in tab.group.elements()
    )


def test_smith_normal_form_matches_sympy_invariants():
    import random

    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(7)
    for _ in range(40):
        # of full column rank, as galois_group builds them: positive orders on
        # the diagonal, then relation rows
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rng.randint(1, 6) * (i == j) for j in range(nc)] for i in range(nc)]
        rows += [[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)]
        diag, V = smith_normal_form(rows, nc)
        # V unimodular
        det = int(sympy.Matrix(V).det())
        assert det in (1, -1)
        theirs = sympy_snf(sympy.Matrix(rows), domain=sympy.ZZ)
        tdiag = [abs(int(theirs[i, i])) for i in range(min(theirs.rows, theirs.cols))]
        assert diag == tdiag and all(diag)


def test_galois_group_examples():
    g5 = galois_group(AbelianFieldSpec.cyclotomic(5))
    assert g5.group.orders == (4,)
    frob2 = g5.frobenius(2)
    assert element_order(g5.group, frob2) == 4  # 2 generates (Z/5)^x

    g3 = galois_group(AbelianFieldSpec.cyclotomic(3))
    assert g3.group.orders == (2,)
    assert g3.frobenius(7) == g3.group.identity  # 7 = 1 mod 3

    gq = galois_group(AbelianFieldSpec.rationals())
    assert gq.group.orders == ()
    assert gq.group.size == 1


def test_galois_group_quotient_and_invariant_factors():
    # Q(zeta_24) has group C2 x C2 x C2; a quadratic subfield has group C2.
    spec = AbelianFieldSpec.cyclotomic(24)
    g = galois_group(spec)
    assert sorted(g.group.orders) == [2, 2, 2]
    orders = g.group.orders
    assert all(b % a == 0 for a, b in zip(orders, orders[1:]))  # invariant-factor form
    sub = AbelianFieldSpec(24, frozenset({1, 5, 7, 11}))  # index-2 subgroup
    gs = galois_group(sub)
    assert gs.group.orders == (2,)


def test_frobenius_is_multiplicative():
    spec = AbelianFieldSpec.cyclotomic(15)
    g = galois_group(spec)
    for l1 in (2, 7, 13):
        for l2 in (2, 11):
            prod = (l1 * l2) % 15
            assert g.group.mul(g.frobenius(l1), g.frobenius(l2)) == g.element_of(prod)


def test_element_of_handles_nonminimal_modulus():
    # Q(zeta_3) presented inside Q(zeta_15): conductor 3, so 5 is unramified.
    spec = AbelianFieldSpec(15, frozenset({1, 4, 7, 13}), "zeta3-in-15")
    assert conductor(spec)[0] == 3
    g = galois_group(spec)
    assert g.group.orders == (2,)
    # 5 = 2 mod 3 is the nontrivial class
    assert g.frobenius(5) == g.element_of(2)
    assert g.frobenius(5) != g.group.identity


def test_a_spec_checks_its_fixing_set_without_listing_the_units(monkeypatch):
    """H lies in (Z/m)^x iff gcd(a, m) = 1 for each a in H, m = 1 included
    (gcd(0, 1) = 1): the spec refuses exactly the sets off the unit list,
    and builds a spec over the prime modulus 1,000,003 listing no unit."""
    from iwasawa_kit import abelian, numutil

    def listed(m):
        raise AssertionError("the spec listed the units")

    monkeypatch.setattr(abelian, "unit_residues", listed)
    assert AbelianFieldSpec(1_000_003, frozenset({1})).fixing == {1}
    assert AbelianFieldSpec.rationals().fixing == {0}
    for m in range(1, 31):
        units = set(numutil.unit_residues(m))
        for a in range(-m, 2 * m):
            if a % m in units:  # the cyclic subgroup that a generates
                powers = frozenset(pow(a, k, m) for k in range(1, len(units) + 1))
                assert AbelianFieldSpec(m, powers).fixing == powers
            else:
                with pytest.raises(ValueError, match="not inside"):
                    AbelianFieldSpec(m, frozenset({1, a}))


def spec_verdict_reference(m, fixing):
    """The message AbelianFieldSpec(m, fixing) refuses with, or None, by the
    definition of a subgroup: every product of two elements, O(|H|^2)."""
    fix = frozenset(a % m for a in fixing)
    if any(math.gcd(a, m) != 1 for a in fix):
        return f"fixing subgroup {sorted(fix)} not inside (Z/{m})^x"
    if (1 % m) not in fix:
        return "fixing subgroup must contain 1"
    if any(a * b % m not in fix for a in fix for b in fix):
        return "fixing set is not closed under multiplication"
    return None


def spec_verdict(m, fixing):
    try:
        AbelianFieldSpec(m, frozenset(fixing))
    except ValueError as exc:
        return str(exc)
    return None


def test_the_subgroup_check_matches_the_pairwise_definition():
    """Every subgroup of (Z/f)^x for f <= 60, each with its largest element
    dropped, with the least unit outside it added, and seeded sets of units
    holding 1; then sets off each rule, in the order the rules are read."""
    from iwasawa_kit.campaigns import unit_subgroups
    from iwasawa_kit.numutil import unit_residues

    rng = random.Random(41)
    cases = [(7, {1, 2}), (7, {2, 4}), (7, {1, 2, 4}), (7, {1, 6}), (9, {1, 3}), (9, {3}),
             (1, {0}), (10_007, {x * x % 10_007 for x in range(1, 10_007)} - {4})]
    for f in range(3, 61):
        units = unit_residues(f)
        for H in unit_subgroups(f):
            cases += [(f, H), (f, H - {max(H)})]
            cases += [(f, H | {u}) for u in units if u not in H][:1]
        cases += [(f, {1, *rng.sample(units, rng.randint(1, len(units)))}) for _ in range(5)]
    verdicts = [spec_verdict(m, H) for m, H in cases]
    assert verdicts == [spec_verdict_reference(m, H) for m, H in cases]
    assert set(verdicts) == {None, "fixing set is not closed under multiplication",
                             "fixing subgroup must contain 1",
                             "fixing subgroup [3] not inside (Z/9)^x",
                             "fixing subgroup [1, 3] not inside (Z/9)^x"}


def test_conductor_reduction():
    # the subgroup fixing Q(sqrt 5) inside Q(zeta_20)
    spec = AbelianFieldSpec(20, frozenset({1, 9, 11, 19}))
    f, fix = conductor(spec)
    assert f == 5
    assert fix == frozenset({1, 4})
    assert ramified_primes(spec) == {5}


def test_cm_data_examples():
    assert cm_data(AbelianFieldSpec.rationals()) is None
    assert cm_data(AbelianFieldSpec(5, frozenset({1, 4}))) is None  # Q(sqrt 5)
    cm = cm_data(AbelianFieldSpec.cyclotomic(5))
    assert cm is not None
    g = galois_group(AbelianFieldSpec.cyclotomic(5))
    assert cm.j == g.element_of(4)
    # idempotents: e_r^2 = e_r, e_+ + e_- = 1, e_r (1 - (-1)^r j) = 2 e_r
    grp = cm.group
    assert cm.e_minus == as_pair(element(grp, {grp.identity: Q(1, 2), cm.j: Q(-1, 2)}))
    for r in (0, 1):
        er = as_fractions(cm.e_r(r))
        assert mul(er, er, grp) == er
    one = element(grp, {grp.identity: 1})
    assert added(as_fractions(cm.e_plus), as_fractions(cm.e_minus)) == one
    jj = translate(one, grp, cm.j)
    assert jj == element(grp, {cm.j: 1})
    for r in (0, 1, 2, -1):
        er = as_fractions(cm.e_r(r))
        sign = 1 if r % 2 == 0 else -1  # (-1)^r
        assert mul(er, added(one, scaled(jj, -sign)), grp) == scaled(er, 2)
        assert not any(mul(er, added(one, scaled(jj, sign)), grp))


def test_roots_of_unity_order():
    assert roots_of_unity_order(AbelianFieldSpec.rationals()) == 2
    assert roots_of_unity_order(AbelianFieldSpec.cyclotomic(3)) == 6
    assert roots_of_unity_order(AbelianFieldSpec.cyclotomic(5)) == 10
    assert roots_of_unity_order(AbelianFieldSpec.cyclotomic(12)) == 12
    assert roots_of_unity_order(AbelianFieldSpec(5, frozenset({1, 4}))) == 2
    assert roots_of_unity_order(AbelianFieldSpec.cyclotomic(8)) == 8
    assert roots_of_unity_order(AbelianFieldSpec.cyclotomic(9)) == 18


def test_layer_examples():
    l1 = layer(AbelianFieldSpec.cyclotomic(5), 5, 1)
    assert l1.modulus == 25
    assert galois_group(l1).group.size == 20

    l0 = layer(AbelianFieldSpec.cyclotomic(3), 3, 0)
    assert conductor(l0)[0] == 3
    assert galois_group(l0).group.size == 2

    lq = layer(AbelianFieldSpec.rationals(), 3, 1)
    assert lq.modulus == 9
    assert sorted(lq.fixing) == [1, 8]
    assert galois_group(lq).group.size == 3


def test_layer_projection_compatibility():
    # fixing subgroup at level n+1 maps into the one at level n
    for spec in (AbelianFieldSpec.cyclotomic(5), AbelianFieldSpec.cyclotomic(12)):
        p = 5 if spec.modulus == 5 else 3
        for n in (0, 1):
            lo, hi = layer(spec, p, n), layer(spec, p, n + 1)
            assert {x % lo.modulus for x in hi.fixing} <= set(lo.fixing)


def test_check_hyp_examples():
    z3 = AbelianFieldSpec.cyclotomic(3)
    ok, _ = check_hyp(z3, [3, OO], [7])
    assert ok
    bad2, why2 = check_hyp(z3, [3, OO], [2])
    assert not bad2 and "2" in why2
    # empty T always fails (2 | w_L needs a prime of other characteristic)
    badempty, _ = check_hyp(z3, [3, OO], [])
    assert not badempty
    # S meeting T, or missing a ramified prime, breaks a rule of the places
    for S, T in (([3, OO], [3]), ([OO], [7])):
        with pytest.raises(ValueError):
            check_hyp(z3, S, T)
    # T of two residue characteristics works
    ok2, _ = check_hyp(z3, [3, OO], [5, 7])
    assert ok2


def test_theta_and_theta_tower_refuse_each_place_rule_in_admissible_places_words():
    """One statement of the (S, T) rules: for each rule broken, theta,
    theta_character_side and theta_tower raise the ValueError of
    admissible_places."""
    z3 = AbelianFieldSpec.cyclotomic(3)
    reasons = set()
    for S, T in (([3, OO], [7, OO]), ([3], [7]), ([OO], [7]), ([3, 7, OO], [7])):
        with pytest.raises(ValueError) as broken:
            admissible_places(z3, S, T)
        reason = str(broken.value)
        reasons.add(reason)
        for run in (lambda: theta(z3, S, T, 0), lambda: theta_character_side(z3, S, T, 0),
                    lambda: theta_tower(z3, S, T, 3, 2, 1, 0)):
            with pytest.raises(ValueError) as refused:
                run()
            assert str(refused.value) == reason, (S, T)
    assert len(reasons) == 4


def test_character_table_orthogonality():
    grp = FiniteAbelianGroup((2, 4))
    tab = CharacterTable(grp)
    def value(label, g):
        return Cyclotomic.zeta(tab.e, character_log(tab, label, g))

    for c1 in tab.labels:
        for c2 in tab.labels:
            total = sum(
                (value(c1, g) * value(c2, grp.inv(g)) for g in grp.elements()),
                start=value(c1, grp.identity) * 0,
            )
            expected = grp.size if c1 == c2 else 0
            assert total == expected


def test_character_idempotents_sum_to_one():
    grp = FiniteAbelianGroup((2, 3))
    tab = CharacterTable(grp)
    total = element(grp, {})
    for label in tab.labels:
        e = idempotent(tab, label)
        assert mul(e, e, grp) == e
        total = added(total, e)
    assert total == element(grp, {grp.identity: 1})


def test_decompose_reconstruct_roundtrip():
    import random

    rng = random.Random(11)
    for orders in [(2,), (4,), (2, 2), (6,), (2, 4), (12,), (2, 12)]:
        grp = FiniteAbelianGroup(orders)
        tab = CharacterTable(grp)
        x = as_pair(Q(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(grp.size))
        comps = tab.decompose(x)
        assert tab.reconstruct(comps) == x
        # components that no element of Q[G] has are refused
        if tab.e > 2:
            triv = tab.labels[0]
            with pytest.raises(ValueError):
                tab.reconstruct({**comps, triv: comps[triv] + Cyclotomic.zeta(tab.e)})


def test_reconstruct_names_the_coefficient_that_is_not_rational():
    # over C3 the components (zeta_3 / 2, 0, 0) give the coefficient zeta_3 / 6 at
    # the identity; the refusal spells it out in the power basis of zeta_3
    tab = CharacterTable(FiniteAbelianGroup((3,)))
    comps = {label: CyclotomicInt(3, [0, 0, 0]) for label in tab.labels}
    comps[tab.labels[0]] = CyclotomicInt(3, [0, 1, 0], 2)
    message = "coefficient 0 is not rational: numerators [0, 1] over 6 in powers of zeta_3"
    with pytest.raises(ValueError, match=re.escape(message)):
        tab.reconstruct(comps)


def test_basis_order_of_logs_and_products():
    # linear_form (the character logs) and mul_table (the group algebras)
    # spell the mixed-radix basis order out; both must follow group.elements()
    for orders in [(2, 4, 3), (3, 2), (4, 2, 2), (5,)]:
        grp = FiniteAbelianGroup(orders)
        elems = list(grp.elements())
        weights = [2 * i + 1 for i in range(len(orders))]
        assert linear_form(grp, weights, 7) == [
            sum(w * x for w, x in zip(weights, g)) % 7 for g in elems
        ]
        tab = CharacterTable(grp)
        for label in tab.labels:
            assert tab._logs[label] == tuple(
                sum(c * x * (tab.e // d) for c, x, d in zip(label, g, orders)) % tab.e
                for g in elems
            )
        index = {g: i for i, g in enumerate(elems)}
        assert mul_table(grp) == tuple(
            tuple(index[grp.mul(g, h)] for h in elems) for g in elems
        )


def test_c2_decompose_examples():
    grp = FiniteAbelianGroup((2,))
    tab = CharacterTable(grp)
    a, b = 3, 5
    comps = tab.decompose(((a, b), 1))
    assert rational_value(comps[(0,)]) == a + b
    assert rational_value(comps[(1,)]) == a - b
    theta = ((1, -1), 6)
    comps = tab.decompose(theta)
    assert rational_value(comps[(0,)]) == 0
    assert rational_value(comps[(1,)]) == Q(1, 3)


def test_trivial_idempotent_components():
    grp = FiniteAbelianGroup((2, 2))
    tab = CharacterTable(grp)
    triv = tab.labels[0]
    e0 = ((1,) * grp.size, grp.size)  # (1/|G|) sum_g g
    assert e0 == as_pair(rational_value(c) for c in idempotent(tab, triv))
    comps = tab.decompose(e0)
    for label, val in comps.items():
        assert rational_value(val) == (1 if label == triv else 0)


def test_dirichlet_character_primitivization():
    # Q(zeta_3) inside modulus 15: the odd quadratic character has conductor 3.
    spec = AbelianFieldSpec(15, frozenset({1, 4, 7, 13}))
    gal = galois_group(spec)
    trivial, chi = dirichlet_characters(gal)
    assert character_key(trivial) == (1, 2, (0,))
    assert chi.conductor == 3 and chi.logs == [None, 0, 1]
    assert chi.log_of(-1) != 0  # odd
    assert chi.order == 2 and chi.log_of(2) == 1  # chi(2) = -1
    assert chi.log_of(3) is None  # chi(3) = 0


def test_dirichlet_character_equality_sees_every_value():
    # the two odd characters of conductor 5 differ at 2: chi(2) = i or -i
    chi = DirichletCharacter(5, 4, [None, 0, 1, 3, 2])
    conj = DirichletCharacter(5, 4, [None, 0, 3, 1, 2])
    key = character_key
    assert key(chi) != key(conj) and chi.log_of(2) != conj.log_of(2)
    assert key(contragredient(chi)) == key(conj) and key(contragredient(conj)) == key(chi)
    assert chi.log_of(7) == chi.log_of(2) and chi.log_of(-1) == 2 and chi.log_of(10) is None
    assert key(chi) != key(DirichletCharacter(5, 8, [None, 0, 1, 3, 2]))
    # the quadratic character of conductor 5 is its own contragredient
    quadratic = DirichletCharacter(5, 4, [None, 0, 2, 2, 0])
    assert key(contragredient(quadratic)) == key(quadratic)


def test_tower_level_data_structure():
    lvl = TowerLevelData(AbelianFieldSpec.cyclotomic(5), 5, 1)
    assert lvl.group.orders == (4, 5)
    assert lvl.has_chi_cyc
    # chi_cyc is a homomorphism to (Z/25)^x
    for g in lvl.group.elements():
        for h in lvl.group.elements():
            gh = lvl.group.mul(g, h)
            assert lvl.chi_cyc[gh] == (lvl.chi_cyc[g] * lvl.chi_cyc[h]) % 25
    # gamma = (identity of H, 1) has chi_cyc = 1 + p
    gamma = (0, 1)
    assert lvl.chi_cyc[gamma] == 6
    # H-part elements have Teichmuller chi_cyc values
    for g in lvl.group.elements():
        if g[-1] == 0:
            v = lvl.chi_cyc[g]
            assert pow(v, 4, 25) == 1


def test_tower_level_without_zeta_p():
    lvl = TowerLevelData(AbelianFieldSpec.cyclotomic(3), 5, 1)
    assert not lvl.has_chi_cyc and lvl.chi_cyc is None


def test_tower_frobenius_consistency():
    # Frobenius in product coordinates projects to base Frobenius.
    lvl = TowerLevelData(AbelianFieldSpec.cyclotomic(3), 3, 2)
    base = galois_group(AbelianFieldSpec.cyclotomic(3))
    for ell in (2, 5, 7, 11, 13):
        fr = lvl.frobenius(ell)
        assert fr[:-1] == base.frobenius(ell)
        # gamma-coordinate is the 1-unit discrete log of ell mod 27
        assert lvl.chi_cyc[fr] == ell % 27


@pytest.mark.parametrize(
    "m, p, n", [(3, 3, 0), (3, 3, 1), (3, 3, 2), (5, 5, 0), (5, 5, 1), (12, 3, 0), (12, 3, 1)]
)
def test_product_and_invariant_factor_coordinates_present_one_group(m, p, n):
    # g -> the invariant-factor class of a representative of g is an
    # isomorphism from the product coordinates of the level onto
    # galois_group(layer), and it carries Frobenius to Frobenius.
    lvl = TowerLevelData(AbelianFieldSpec.cyclotomic(m), p, n)
    gal = galois_group(layer(AbelianFieldSpec.cyclotomic(m), p, n))
    phi = {g: gal.element_of(lvl.representatives[g]) for g in lvl.group.elements()}
    assert sorted(phi.values()) == sorted(gal.group.elements())
    for g in lvl.group.elements():
        for h in lvl.group.elements():
            assert phi[lvl.group.mul(g, h)] == gal.group.mul(phi[g], phi[h])
    f = lvl.conductor
    assert f == gal.conductor
    for ell in sympy.primerange(2, 14):
        if f % ell:
            assert phi[lvl.frobenius(ell)] == gal.frobenius(ell)
