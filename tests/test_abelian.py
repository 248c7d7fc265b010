"""Tests for abelian field specs, Galois groups, CM data, layers, Hyp, characters."""

from fractions import Fraction

import pytest
import sympy

from iwasawa_kit.abelian import (
    INFINITE_PLACE as OO,
    AbelianFieldSpec,
    CharacterTable,
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
from iwasawa_kit.groupring import mul, translate
from iwasawa_kit.linalg import smith_normal_form

Q = Fraction


def element(group, coeffs):
    """The group-ring tuple of {g: c}, zero elsewhere."""
    return tuple(Q(coeffs.get(g, 0)) for g in group.elements())


def scaled(x, c):
    return tuple(c * a for a in x)


def added(x, y):
    return tuple(a + b for a, b in zip(x, y))


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
    assert g5.group.element_order(frob2) == 4  # 2 generates (Z/5)^x

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
    assert g.group.is_invariant_factor_form()
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
    for r in (0, 1):
        er = cm.e_r(r)
        assert mul(er, er, grp) == er
    one = element(grp, {grp.identity: 1})
    assert added(cm.e_plus, cm.e_minus) == one
    jj = translate(one, grp, cm.j)
    assert jj == element(grp, {cm.j: 1})
    for r in (0, 1, 2, -1):
        er = cm.e_r(r)
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
        e = tab.idempotent(label)
        assert mul(e, e, grp) == e
        total = added(total, e)
    demoted = tab.demote_rational(total)
    assert demoted == element(grp, {grp.identity: 1})


def test_decompose_reconstruct_roundtrip():
    import random

    rng = random.Random(11)
    for orders in [(2,), (4,), (2, 2), (6,), (2, 4), (12,), (2, 12)]:
        grp = FiniteAbelianGroup(orders)
        tab = CharacterTable(grp)
        x = tuple(Q(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(grp.size))
        comps = tab.decompose(x)
        back = tab.demote_rational(tab.reconstruct(comps))
        assert back == x
        # and the other composition on a cyclotomic-coefficient element
        y = tab.reconstruct(comps)
        assert tab.decompose(y) == comps


def test_c2_decompose_examples():
    grp = FiniteAbelianGroup((2,))
    tab = CharacterTable(grp)
    a, b = Q(3), Q(5)
    x = (a, b)
    comps = tab.decompose(x)
    assert comps[(0,)] == a + b
    assert comps[(1,)] == a - b
    theta = (Q(1, 6), Q(-1, 6))
    comps = tab.decompose(theta)
    assert comps[(0,)] == 0
    assert comps[(1,)] == Q(1, 3)


def test_trivial_idempotent_components():
    grp = FiniteAbelianGroup((2, 2))
    tab = CharacterTable(grp)
    triv = tab.labels[0]
    e0 = tab.idempotent(triv)
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
    assert chi.is_odd()
    assert chi.value(2) == -1
    assert chi.value(3).is_zero()


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
