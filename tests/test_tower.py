"""Tests for the finite-level Iwasawa machinery: aug projections, sharp,
twists, Stickelberger towers, coherence and the Kummer congruence."""

from fractions import Fraction

import pytest
import sympy
import fraction_route
from algebra_helpers import twist
from fraction_route import as_fractions, reduce_mod

from iwasawa_kit.abelian import AbelianFieldSpec, galois_group
from iwasawa_kit.campaigns import corpus_cm_specs
from iwasawa_kit.fitting import (
    GroupAlgebra,
    group_algebra_morphism,
    principal_module,
    tower_fitting_check,
)
from iwasawa_kit.groupring import sharp
from iwasawa_kit.tower import (
    TowerElement,
    TowerIntegralityError,
    aug_project,
    chi_cyc_descends,
    coherence_check,
    parity_projector_annihilates,
    theta_tower,
    tower_level,
    tower_preconditions,
    twist_congruence_check,
)

Q = Fraction
OO = "oo"

Z3 = AbelianFieldSpec.cyclotomic(3)
Z5 = AbelianFieldSpec.cyclotomic(5)
Z7 = AbelianFieldSpec.cyclotomic(7)
Z12 = AbelianFieldSpec.cyclotomic(12)


def vec(group, coeffs, q):
    """The int vector mod q of {g: c} in the basis order group.elements()."""
    return tuple(coeffs.get(g, 0) % q for g in group.elements())


def reduce_exact(x, q):
    """Independent reduction of an element (nums, den) of Q[G] mod q, one
    Fraction coefficient at a time."""
    return tuple(c.numerator * pow(c.denominator, -1, q) % q for c in as_fractions(x))


def random_vec(rng, group, q):
    return tuple(rng.randrange(q) for _ in range(group.size))


def test_aug_project_examples():
    lvl1 = tower_level(Z3, 3, 1)
    lvl0 = tower_level(Z3, 3, 0)
    g1, g0 = lvl1.group, lvl0.group
    one = vec(g1, {g1.identity: 1}, 9)
    assert aug_project(one, lvl1, lvl0, 2) == vec(g0, {g0.identity: 1}, 9)
    # gamma at level 1 maps to the identity of level 0
    gamma = vec(g1, {(0, 1): 1}, 9)
    assert aug_project(gamma, lvl1, lvl0, 2) == vec(g0, {g0.identity: 1}, 9)
    # sigma + gamma.sigma -> 2 sigma
    x = vec(g1, {(1, 0): 1, (1, 1): 1}, 9)
    assert aug_project(x, lvl1, lvl0, 2) == vec(g0, {(1, 0): 2}, 9)
    # the pushforward reduces mod p^N: 3 gamma^k over k = 0..2 -> 9 = 0
    y = vec(g1, {(0, 0): 3, (0, 1): 3, (0, 2): 3}, 9)
    assert aug_project(y, lvl1, lvl0, 2) == vec(g0, {}, 9)


def test_aug_project_is_ring_homomorphism():
    import random

    rng = random.Random(5)
    lvl1, lvl0 = tower_level(Z5, 5, 1), tower_level(Z5, 5, 0)
    A1, A0 = GroupAlgebra(5, 2, lvl1.group), GroupAlgebra(5, 2, lvl0.group)
    for _ in range(10):
        x = random_vec(rng, lvl1.group, 25)
        y = random_vec(rng, lvl1.group, 25)
        lhs = aug_project(A1.mul(x, y), lvl1, lvl0, 2)
        rhs = A0.mul(aug_project(x, lvl1, lvl0, 2), aug_project(y, lvl1, lvl0, 2))
        assert lhs == rhs
        assert aug_project(sharp(x, lvl1.group), lvl1, lvl0, 2) == sharp(
            aug_project(x, lvl1, lvl0, 2), lvl0.group
        )
        # the index map agrees with the structure-constant involution
        assert sharp(x, lvl1.group) == A1.sharp_of(x)


def test_sharp_examples():
    lvl = tower_level(Z3, 3, 1)
    grp = lvl.group
    x = vec(grp, {grp.identity: 1, (0, 1): 2}, 9)
    xs = sharp(x, grp)
    assert xs == vec(grp, {grp.identity: 1, (0, 2): 2}, 9)
    assert sharp(xs, grp) == x


def test_twist_gamma_and_identity():
    lvl = tower_level(Z3, 3, 1)
    assert lvl.chi_cyc[(0, 1)] == 4  # u = chi_cyc(gamma) = 1 + p
    gamma = vec(lvl.group, {(0, 1): 1}, 9)
    assert twist(gamma, 0, lvl, 2) == gamma
    twisted = twist(gamma, 1, lvl, 2)
    assert twisted == vec(lvl.group, {(0, 1): 4}, 9)
    # twist is inverted by the opposite exponent
    assert twist(twisted, -1, lvl, 2) == gamma


def test_twist_is_ring_automorphism():
    import random

    rng = random.Random(9)
    lvl = tower_level(Z5, 5, 1)
    A = GroupAlgebra(5, 2, lvl.group)
    for r in (1, -1, 2, -3):
        for _ in range(8):
            x = random_vec(rng, lvl.group, 25)
            y = random_vec(rng, lvl.group, 25)
            assert twist(A.mul(x, y), r, lvl, 2) == A.mul(twist(x, r, lvl, 2), twist(y, r, lvl, 2))
            assert twist(twist(x, r, lvl, 2), -r, lvl, 2) == x


def test_twist_xi_v_closed_form():
    # twist(sharp(xi_v), r) = 1 - chi_cyc(sigma_v)^(1-r) sigma_v^(-1)
    lvl = tower_level(Z5, 5, 1)
    grp = lvl.group
    A = GroupAlgebra(5, 2, grp)
    for v in (2, 3, 7, 11):
        frob = lvl.frobenius(v)
        chi = lvl.chi_cyc[frob]
        xi = A.sub(A.one, A.scalar(chi, A.group_element_vector(frob)))
        for r in (0, -1, -2):
            got = twist(sharp(xi, grp), r, lvl, 2)
            unit = pow(chi, 1 - r, 25)
            expect = A.sub(A.one, A.scalar(unit, A.group_element_vector(grp.inv(frob))))
            assert got == expect


def test_the_twist_rule_is_the_levels_chi_cyc():
    """chi_cyc_descends, read off the spec before any level is built, is
    has_chi_cyc of levels 0..2, over the CM corpus to conductor 24 and
    Q(zeta_m) for m < 30, at p = 3, 5, 7 (v_p(modulus) <= 1, as
    tower_preconditions admits)."""
    specs = {*corpus_cm_specs(24), *(AbelianFieldSpec.cyclotomic(m) for m in range(1, 30))}
    seen = []
    for spec in specs:
        for p in (3, 5, 7):
            if spec.modulus % p**2:
                rule = chi_cyc_descends(spec, p)
                assert all(tower_level(spec, p, n).has_chi_cyc == rule for n in range(3)), (spec, p)
                seen.append(rule)
    assert len(seen) > 100 and 0 < seen.count(True) < len(seen)


def _hand_theta_z5_t2(r):
    """Independent computation of Theta_{S,T}(Q(zeta_5), r), S={5,oo}, T={2},
    via sympy's Hurwitz zeta."""
    gal = galois_group(Z5)
    grp = gal.group
    vec = {}
    for a in range(1, 5):
        val = sympy.nsimplify(sympy.zeta(r, sympy.Rational(a, 5))) * 5 ** (-r)
        vec[gal.element_of(a)] = Q(int(sympy.numer(val)), int(sympy.denom(val)))
    base = {grp.inv(g): c for g, c in vec.items()}
    # delta_{2}(r) = 1 - 2^(1-r) sigma_2^(-1), sigma_2^(-1) = sigma_3: the
    # coefficient of the product at g is base_g - 2^(1-r) base_{g sigma_2}
    s2 = gal.element_of(2)
    c = Q(2) ** (1 - r)
    return {g: base[g] - c * base[grp.mul(g, s2)] for g in grp.elements()}


def test_theta_tower_level_zero_entry_z5():
    t = theta_tower(Z5, [5, OO], [2], 5, 2, 1, 0)
    assert len(t.entries) == 2
    lvl0 = t.levels[0]
    expect_exact = _hand_theta_z5_t2(0)
    expect = vec(
        lvl0.group,
        {
            g + (0,): c.numerator * pow(c.denominator, -1, 25)
            for g, c in expect_exact.items()
        },
        25,
    )
    assert t.entries[0] == expect
    # the worked value: theta = (sigma_1 + sigma_2 - sigma_3 - sigma_4)/2
    gal = galois_group(Z5)
    half = pow(2, -1, 25)
    manual = {}
    for a, s in ((1, 1), (2, 1), (3, -1), (4, -1)):
        manual[gal.element_of(a) + (0,)] = s * half
    assert t.entries[0] == vec(lvl0.group, manual, 25)


def test_theta_tower_coherence_examples():
    cases = [
        (Z3, [3, OO], [7], 3, 3, 2),
        (Z5, [5, OO], [2], 5, 2, 2),
        (Z7, [7, OO], [2], 7, 2, 1),
        (Z12, [2, 3, OO], [7], 3, 3, 2),
    ]
    for spec, S, T, p, N, nmax in cases:
        for r in (0, -1):
            t = theta_tower(spec, S, T, p, N, nmax, r)
            ok, where = coherence_check(t)
            assert ok, (spec.label, r, where)


def test_theta_tower_degenerate_p_coprime():
    t = theta_tower(Z3, [3, 5, OO], [7], 5, 2, 0, 0)
    assert t.n_max == 0
    ok, _ = coherence_check(t)
    assert ok
    # single level equals the plain theta reduced mod 25
    from iwasawa_kit.lvalues import apply_plan, theta_plan

    exact = apply_plan(t.levels[0], theta_plan({3, 5}, {7}, 0))
    assert t.entries[0] == reduce_exact(exact, 25)


def test_theta_tower_records_hyp_and_aborts_on_nonintegral():
    t = theta_tower(Z5, [5, OO], [2], 5, 2, 1, 0)
    assert t.hyp_verdicts == [False, False]  # T = {2} fails Hyp (2 | w_L)
    with pytest.raises(TowerIntegralityError) as err:
        theta_tower(Z5, [5, OO], [], 5, 2, 1, 0)  # T empty: denominators at 5? no: at 2,10
    # T empty makes theta non 5-integral? denominators are 10 -> not 5-integral
    assert err.value.layer == 0
    with pytest.raises(TowerIntegralityError):
        theta_tower(Z5, [5, OO], [2], 5, 2, 1, 0, strict_hyp=True)


def test_theta_tower_preconditions():
    with pytest.raises(ValueError):
        theta_tower(Z5, [5, OO], [2], 2, 2, 1, 0)  # p = 2
    with pytest.raises(ValueError):
        theta_tower(Z5, [OO], [2], 5, 2, 1, 0)  # S misses p
    with pytest.raises(ValueError):
        theta_tower(Z12, [3, OO], [7], 3, 2, 1, 0)  # S misses ramified 2
    with pytest.raises(ValueError):
        theta_tower(Z5, [5, 2, OO], [2], 5, 2, 1, 0)  # S and T meet
    with pytest.raises(ValueError):
        theta_tower(AbelianFieldSpec.cyclotomic(9), [3, OO], [7], 3, 2, 1, 0)


def test_corrupted_tower_detected():
    t = theta_tower(Z3, [3, OO], [7], 3, 2, 1, 0)
    ok, _ = coherence_check(t)
    assert ok
    grp0 = t.levels[0].group
    bad = tuple((c + e) % 9 for c, e in zip(t.entries[0], vec(grp0, {grp0.identity: 1}, 9)))
    corrupted = TowerElement(
        t.p, t.N, t.spec, t.S, t.T, t.r, [bad, t.entries[1]], t.levels, t.hyp_verdicts
    )
    ok2, where = coherence_check(corrupted)
    assert not ok2 and where == 0


def test_twist_congruence_z5():
    t0 = theta_tower(Z5, [5, OO], [2], 5, 2, 1, 0)
    for r in (-1, -2):
        tr = theta_tower(Z5, [5, OO], [2], 5, 2, 1, r)
        ok, where = twist_congruence_check(tr, t0)
        assert ok, (r, where)
    # r = 0 against itself reduces to triviality
    ok0, _ = twist_congruence_check(t0, t0)
    assert ok0


def test_twist_congruence_all_corpus():
    cases = [
        (Z3, [3, OO], [7], 3, 3, 2),
        (Z7, [7, OO], [2], 7, 2, 1),
        (Z12, [2, 3, OO], [7], 3, 2, 2),
    ]
    for spec, S, T, p, N, nmax in cases:
        t0 = theta_tower(spec, S, T, p, N, nmax, 0)
        for r in (-1, -2, -3):
            tr = theta_tower(spec, S, T, p, N, nmax, r)
            ok, where = twist_congruence_check(tr, t0)
            assert ok, (spec.label, r, where)


def test_aug_commutes_with_twist_at_effective_precision():
    # aug(twist(x, r)) = twist(aug(x), r) mod p^min(N, n+1) at the target
    import random

    rng = random.Random(21)
    lvl1, lvl0 = tower_level(Z5, 5, 1), tower_level(Z5, 5, 0)
    for r in (1, -1, -2):
        for _ in range(6):
            x = random_vec(rng, lvl1.group, 25)
            lhs = aug_project(twist(x, r, lvl1, 2), lvl1, lvl0, 1)
            rhs = twist(aug_project(x, lvl1, lvl0, 1), r, lvl0, 1)  # effective precision
            assert lhs == rhs


def test_delta_distributivity_levelwise():
    # entries of the T-tower equal delta_T (reduced) times the T=empty entries
    t_plain = theta_tower(Z3, [3, 5, OO], [], 5, 2, 1, 0)
    t_with = theta_tower(Z3, [3, 5, OO], [7], 5, 2, 1, 0)
    for n in (0, 1):
        lvl = t_plain.levels[n]
        d = reduce_mod(fraction_route.delta_t(lvl, [7], 0), 5, 2)
        assert GroupAlgebra(5, 2, lvl.group).mul(d, t_plain.entries[n]) == t_with.entries[n]


def test_parity_projector_annihilates_entries():
    for spec, S, T, p in ((Z3, [3, OO], [7], 3), (Z5, [5, OO], [2], 5)):
        for r in (0, -1, -2):
            t = theta_tower(spec, S, T, p, 2, 1, r)
            for n in range(t.n_max + 1):
                assert parity_projector_annihilates(t, n)
    # a unit added at the identity breaks the parity of the level-0 entry
    bumped = (t.entries[0][0] + 1,) + t.entries[0][1:]
    broken = TowerElement(
        t.p, t.N, t.spec, t.S, t.T, t.r, [bumped, *t.entries[1:]], t.levels, t.hyp_verdicts
    )
    assert not parity_projector_annihilates(broken, 0)


def test_tower_level_theta_cross_validated_by_characters():
    # The layer-1 field of the zeta_5 tower is Q(zeta_25): validate its theta
    # through the independent generalized-Bernoulli route on the canonical
    # presentation (conductor 25, exponent 20).
    from iwasawa_kit.abelian import CharacterTable, layer
    from iwasawa_kit.lvalues import theta as plain_theta, theta_character_side

    spec25 = layer(Z5, 5, 1)
    gal = galois_group(spec25)
    tab = CharacterTable(gal.group)
    for r in (0, -1):
        th = plain_theta(spec25, [5, OO], [2], r).value
        assert tab.decompose(th) == theta_character_side(spec25, [5, OO], [2], r)


def test_tower_json_roundtrip():
    t = theta_tower(Z5, [5, OO], [2], 5, 2, 1, -1)
    header = TowerElement.header(t.to_json())
    again = TowerElement.from_json(t.to_json(), (header, tower_preconditions(*header)[1]))
    assert again.entries == t.entries
    assert again.spec == t.spec
    assert again.r == t.r
    ok, _ = coherence_check(again)
    assert ok


@pytest.mark.parametrize("r", [0, -1])
def test_fitting_ideals_at_the_widest_tower_level(r):
    """Over Q(zeta3) at p = 3, N = 2, n_max = 3 the top level is
    (Z/9)[C2 x C27], dim 54. The Fitting ideals of the principal Stickelberger
    modules descend the tower (contained, and equal: the entries are coherent),
    and at the top Fitt(L/theta + L/theta#) = Fitt(L/theta) Fitt(L/theta#)."""
    t = theta_tower(Z3, [3, OO], [7], 3, 2, 3, r)
    algs = [GroupAlgebra(3, 2, level.group) for level in t.levels]
    assert [alg.dim for alg in algs] == [2, 6, 18, 54]
    mods = [principal_module(alg, entry) for alg, entry in zip(algs, t.entries)]
    projections = [
        group_algebra_morphism(algs[n + 1], algs[n], lambda g, n=n: t.levels[n + 1].project(g, n))
        for n in range(3)
    ]
    report = tower_fitting_check(mods, projections)
    assert report["ok"] and all(report["equal"])
    top, x = algs[-1], t.entries[-1]
    M1, M2 = principal_module(top, x), principal_module(top, top.sharp_of(x))
    assert M1.direct_sum(M2).fitting_ideal == M1.fitting_ideal.product(M2.fitting_ideal)


@pytest.mark.parametrize("r", [0, -1])
def test_fitting_ideals_descend_the_tower_to_dim_486(r):
    """Over Q(zeta3) at p = 3, N = 2 up to n = 5 the top level is
    (Z/9)[C2 x C243], dim 486: every level's Fitting ideal contains the
    projection of the next level's and equals it."""
    t = theta_tower(Z3, [3, OO], [7], 3, 2, 5, r)
    algs = [GroupAlgebra(3, 2, level.group) for level in t.levels]
    assert [alg.dim for alg in algs] == [2, 6, 18, 54, 162, 486]
    mods = [principal_module(alg, entry) for alg, entry in zip(algs, t.entries)]
    projections = [
        group_algebra_morphism(algs[n + 1], algs[n], lambda g, n=n: t.levels[n + 1].project(g, n))
        for n in range(5)
    ]
    report = tower_fitting_check(mods, projections)
    assert report["ok"] and report["equal"] == [True] * 5
