"""Tests for abelian field specs, Galois groups, CM data, layers, Hyp, characters."""

import math
from fractions import Fraction

import pytest
import sympy
from fraction_route import as_fractions, as_pair

from iwasawa_kit.abelian import (
    INFINITE_PLACE as OO,
    AbelianFieldSpec,
    CharacterTable,
    DirichletCharacter,
    FiniteAbelianGroup,
    TowerLevelData,
    check_hyp,
    cm_data,
    conductor,
    dirichlet_character,
    galois_group,
    layer,
    ramified_primes,
    roots_of_unity_order,
)
from iwasawa_kit.exact import CyclotomicInt
from iwasawa_kit.groupring import linear_form, mul, mul_table, translate
from iwasawa_kit.linalg import smith_normal_form

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
    """e(chi) = (1/|G|) sum_g chi(g^(-1)) g, CyclotomicInt coefficients."""
    inv_size = Q(1, tab.group.size)
    return tuple(
        CyclotomicInt.zeta(tab.e, -tab.log(label, g)) * inv_size for g in tab.group.elements()
    )


def test_smith_normal_form_matches_sympy_invariants():
    import random

    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(7)
    for _ in range(40):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)]
        diag, V = smith_normal_form(rows, nc)
        # V unimodular
        det = int(sympy.Matrix(V).det())
        assert det in (1, -1)
        theirs = sympy_snf(sympy.Matrix(rows), domain=sympy.ZZ)
        tdiag = [abs(int(theirs[i, i])) for i in range(min(theirs.rows, theirs.cols))]
        ours = [d for d in diag[: min(nr, nc)]]
        # sympy pads differently; compare nonzero invariant factors
        assert [d for d in ours if d] == [d for d in tdiag if d]


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


def test_frobenius_rejects_ramified():
    g = galois_group(AbelianFieldSpec.cyclotomic(15))
    with pytest.raises(ValueError):
        g.frobenius(3)
    with pytest.raises(ValueError):
        g.frobenius(4)  # not prime


def test_element_of_handles_nonminimal_modulus():
    # Q(zeta_3) presented inside Q(zeta_15): conductor 3, so 5 is unramified.
    spec = AbelianFieldSpec(15, frozenset({1, 4, 7, 13}), "zeta3-in-15")
    assert conductor(spec)[0] == 3
    g = galois_group(spec)
    assert g.group.orders == (2,)
    # 5 = 2 mod 3 is the nontrivial class
    assert g.frobenius(5) == g.element_of(2)
    assert g.frobenius(5) != g.group.identity


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

    with pytest.raises(ValueError):
        layer(AbelianFieldSpec.cyclotomic(9), 3, 1)  # v_3(9) = 2
    with pytest.raises(ValueError):
        layer(AbelianFieldSpec.cyclotomic(5), 2, 1)


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
    bad3, _ = check_hyp(z3, [3, OO], [3])
    assert not bad3
    # empty T always fails (2 | w_L needs a prime of other characteristic)
    badempty, _ = check_hyp(z3, [3, OO], [])
    assert not badempty
    # missing ramified prime
    badram, _ = check_hyp(z3, [OO], [7])
    assert not badram
    # T of two residue characteristics works
    ok2, _ = check_hyp(z3, [3, OO], [5, 7])
    assert ok2


def test_character_table_orthogonality():
    grp = FiniteAbelianGroup((2, 4))
    tab = CharacterTable(grp)
    for c1 in tab.labels:
        for c2 in tab.labels:
            total = sum(
                (tab.value(c1, g) * tab.value(c2, grp.inv(g)) for g in grp.elements()),
                start=tab.value(c1, grp.identity) * 0,
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
                tab.reconstruct({**comps, triv: comps[triv] + CyclotomicInt.zeta(tab.e)})
        # so are components of another cyclotomic order, even when their
        # numerators read as powers of zeta_e would give back x
        if tab.e == 6:
            label = next(c for c in tab.labels if not comps[c].is_rational())
            misread = CyclotomicInt(3, comps[label].nums, comps[label].den)
            with pytest.raises(ValueError):
                tab.reconstruct({**comps, label: misread})


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
            assert tab._logs[label] == [
                sum(c * x * (tab.e // d) for c, x, d in zip(label, g, orders)) % tab.e
                for g in elems
            ]
        index = {g: i for i, g in enumerate(elems)}
        assert mul_table(grp) == [[index[grp.mul(g, h)] for h in elems] for g in elems]


def test_c2_decompose_examples():
    grp = FiniteAbelianGroup((2,))
    tab = CharacterTable(grp)
    a, b = 3, 5
    comps = tab.decompose(((a, b), 1))
    assert comps[(0,)] == a + b
    assert comps[(1,)] == a - b
    theta = ((1, -1), 6)
    comps = tab.decompose(theta)
    assert comps[(0,)] == 0
    assert comps[(1,)] == Q(1, 3)


def test_trivial_idempotent_components():
    grp = FiniteAbelianGroup((2, 2))
    tab = CharacterTable(grp)
    triv = tab.labels[0]
    e0 = ((1,) * grp.size, grp.size)  # (1/|G|) sum_g g
    assert e0 == as_pair(c.as_rational() for c in idempotent(tab, triv))
    comps = tab.decompose(e0)
    for label, val in comps.items():
        assert val == (1 if label == triv else 0)


def test_dirichlet_character_primitivization():
    # Q(zeta_3) inside modulus 15: the odd quadratic character has conductor 3.
    spec = AbelianFieldSpec(15, frozenset({1, 4, 7, 13}))
    gal = galois_group(spec)
    tab = CharacterTable(gal.group)
    nontriv = [c for c in tab.labels if c != tab.labels[0]]
    chi = dirichlet_character(gal, tab, nontriv[0])
    assert chi.conductor == 3
    assert chi.log_of(-1) != 0  # odd
    assert chi.value(2) == -1
    assert chi.value(3).is_zero()


def test_dirichlet_character_equality_sees_every_value():
    # the two odd characters of conductor 5 differ at 2: chi(2) = i or -i
    chi = DirichletCharacter(5, 4, {1: 0, 2: 1, 3: 3, 4: 2})
    conj = DirichletCharacter(5, 4, {1: 0, 2: 3, 3: 1, 4: 2})
    assert chi != conj and chi.value(2) != conj.value(2)
    assert len({chi, conj}) == 2
    assert chi.contragredient() == conj
    same = DirichletCharacter(5, 4, {4: 2, 3: 3, 2: 1, 1: 0})  # insertion order
    assert same == chi and hash(same) == hash(chi)
    assert chi != DirichletCharacter(5, 8, {1: 0, 2: 1, 3: 3, 4: 2})


def test_tower_level_data_structure():
    lvl = TowerLevelData(AbelianFieldSpec.cyclotomic(5), 5, 1)
    assert lvl.group.orders == (4, 5)
    assert lvl.has_chi_cyc
    # chi_cyc is a homomorphism to (Z/25)^x
    for g in lvl.group.elements():
        for h in lvl.group.elements():
            gh = lvl.group.mul(g, h)
            assert lvl.chi_cyc_of(gh) == (lvl.chi_cyc_of(g) * lvl.chi_cyc_of(h)) % 25
    # gamma = (identity of H, 1) has chi_cyc = 1 + p
    gamma = (0, 1)
    assert lvl.chi_cyc_of(gamma) == 6
    # H-part elements have Teichmuller chi_cyc values
    for g in lvl.group.elements():
        if g[-1] == 0:
            v = lvl.chi_cyc_of(g)
            assert pow(v, 4, 25) == 1


def test_tower_level_without_zeta_p():
    lvl = TowerLevelData(AbelianFieldSpec.cyclotomic(3), 5, 1)
    assert not lvl.has_chi_cyc
    with pytest.raises(ValueError):
        lvl.chi_cyc_of(lvl.group.identity)


def test_tower_frobenius_consistency():
    # Frobenius in product coordinates projects to base Frobenius.
    lvl = TowerLevelData(AbelianFieldSpec.cyclotomic(3), 3, 2)
    base = galois_group(AbelianFieldSpec.cyclotomic(3))
    for ell in (2, 5, 7, 11, 13):
        fr = lvl.frobenius(ell)
        assert fr[:-1] == base.frobenius(ell)
        # gamma-coordinate is the 1-unit discrete log of ell mod 27
        assert lvl.chi_cyc_of(fr) == ell % 27


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
    # both refuse a ramified prime and a non-prime, each in its own words
    with pytest.raises(ValueError, match=f"^{p} ramifies in layer {n}$"):
        lvl.frobenius(p)
    with pytest.raises(ValueError, match=f"^{p} ramifies in the field of conductor {f}$"):
        gal.frobenius(p)
    for pres in (lvl, gal):
        with pytest.raises(ValueError, match="^frobenius expects a prime, got 9$"):
            pres.frobenius(9)
    with pytest.raises(ValueError, match=f"^{p} is not coprime to the layer conductor {f}$"):
        lvl.element_of(p)
    with pytest.raises(ValueError, match=f"^{p} is not coprime to the conductor {f}$"):
        gal.element_of(p)
