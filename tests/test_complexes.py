"""Tests for bounded complexes: cohomology, shift parity, Euler-Fitting
invariants, quasi-isomorphisms, cones, and additivity over exact sequences."""

import random
import time

import pytest

from iwasawa_kit.abelian import FiniteAbelianGroup
from iwasawa_kit.campaigns import _random_element, _random_three_term, _two_term
from iwasawa_kit.complexes import (
    BoundedComplex,
    ChainMap,
    ComplexSES,
    EulerFittingInvariant,
    cone,
    euler_fitting_additivity_check,
    extension,
    quasi_iso_check,
)
from iwasawa_kit.fitting import (
    FinPresModule,
    GroupAlgebra,
    IdealHandle,
    ModuleMap,
    identity_map,
    multiplication_map,
    principal_module,
    unit_ideal,
    zero_map,
    zmod_algebra,
)

C2 = FiniteAbelianGroup((2,))


def free_module(alg, n):
    return FinPresModule(alg, n, [])


def two_term(alg, a):
    """0 -> A -(a)-> A -> 0 in degrees 0, 1."""
    F0, F1 = free_module(alg, 1), free_module(alg, 1)
    d = ModuleMap(F0, F1, [[a]])
    return BoundedComplex(alg, 0, [F0, F1], [d])


def test_cohomology_two_term_multiplication_by_p():
    alg = zmod_algebra(3, 2)  # Z/9
    C = two_term(alg, alg.scalar(3, alg.one))
    # H^1 = R/(3), H^0 = ker(3) = (3), both of size 3
    assert C.cohomology_size(1) == 3
    assert C.cohomology_size(0) == 3
    H1 = C.cohomology(1)
    assert H1.fitting_ideal == IdealHandle(alg, [alg.scalar(3, alg.one)])
    H0 = C.cohomology(0)
    assert H0.size() == 3
    assert H0.fitting_ideal == IdealHandle(alg, [alg.scalar(3, alg.one)])


def test_cohomology_identity_complex_acyclic():
    alg = GroupAlgebra(3, 2, C2)
    C = two_term(alg, alg.one)
    assert C.is_acyclic()
    assert all(C.cohomology(i).size() == 1 for i in (0, 1))


def test_single_module_concentration():
    alg = GroupAlgebra(3, 2, C2)
    a = alg.add(alg.one, alg.scalar(2, alg.group_element_vector((1,))))
    M = principal_module(alg, a)
    for k in (-1, 0, 1, 2):
        C = BoundedComplex(M.algebra, k, [M], [])
        for i in (k - 1, k, k + 1):
            expect = M.size() if i == k else 1
            assert C.cohomology_size(i) == expect
        inv = C.euler_fitting()
        fitt = M.fitting_ideal
        if k % 2 == 0:
            assert inv == EulerFittingInvariant(fitt, unit_ideal(alg))
        else:
            assert inv == EulerFittingInvariant(unit_ideal(alg), fitt)


def test_euler_fitting_examples():
    alg = GroupAlgebra(3, 2, C2)
    # acyclic complex -> ((1), (1))
    acyclic = two_term(alg, alg.one)
    triv = EulerFittingInvariant(unit_ideal(alg), unit_ideal(alg))
    assert acyclic.euler_fitting() == triv
    # concentrated module with Fitt (a)
    a = alg.scalar(3, alg.one)
    M = principal_module(alg, a)
    inv0 = BoundedComplex(M.algebra, 0, [M], []).euler_fitting()
    assert inv0 == EulerFittingInvariant(IdealHandle(alg, [a]), unit_ideal(alg))
    inv1 = BoundedComplex(M.algebra, 1, [M], []).euler_fitting()
    assert inv1 == inv0.inverse()


def test_shift_parity_law():
    alg = GroupAlgebra(3, 2, C2)
    sig = alg.group_element_vector((1,))
    C = two_term(alg, alg.add(alg.scalar(3, alg.one), sig))
    inv = C.euler_fitting()
    assert C.shift(0).euler_fitting() == inv
    s1 = C.shift(1)
    assert s1.lo == -1
    assert s1.euler_fitting() == inv.inverse()
    assert s1.shift(1).euler_fitting() == inv
    assert C.shift(2).euler_fitting() == inv


def test_shift_validates_signs():
    # the shifted differential still squares to zero in a 3-term complex
    alg = zmod_algebra(3, 2)
    F = [free_module(alg, 1) for _ in range(3)]
    three = alg.scalar(3, alg.one)
    d0 = ModuleMap(F[0], F[1], [[three]])
    d1 = ModuleMap(F[1], F[2], [[three]])
    C = BoundedComplex(alg, 0, F, [d0, d1])
    assert C.shift(1).lo == -1
    assert C.shift(-3).hi == 5


def test_quasi_iso_examples():
    alg = GroupAlgebra(3, 2, C2)
    C = two_term(alg, alg.scalar(3, alg.one))
    ident = ChainMap(C, C, {0: identity_map(C.modules[0]), 1: identity_map(C.modules[1])})
    assert quasi_iso_check(ident)
    # identity two-term complex is quasi-isomorphic to the zero complex
    acyclic = two_term(alg, alg.one)
    zero_cx = BoundedComplex(alg, 0, [FinPresModule(alg, 0, [])], [])
    to_zero = ChainMap(
        acyclic,
        zero_cx,
        {
            0: ModuleMap(acyclic.modules[0], zero_cx.modules[0], [[]]),
            1: ModuleMap(acyclic.modules[1], FinPresModule(alg, 0, []), [[]]),
        },
    )
    # level 1 of the target is missing: use a 2-term zero complex instead
    zero2 = BoundedComplex(
        alg,
        0,
        [FinPresModule(alg, 0, []), FinPresModule(alg, 0, [])],
        [ModuleMap(FinPresModule(alg, 0, []), FinPresModule(alg, 0, []), [])],
    )
    to_zero = ChainMap(
        acyclic,
        zero2,
        {0: ModuleMap(acyclic.modules[0], zero2.modules[0], [[]]),
         1: ModuleMap(acyclic.modules[1], zero2.modules[1], [[]])},
    )
    assert quasi_iso_check(to_zero)


def test_quasi_iso_detects_difference():
    # inclusion (p) -> R over Z/p^2 in degree 0: H^0 differs
    alg = zmod_algebra(3, 2)
    R_mod = free_module(alg, 1)
    sub = FinPresModule(alg, 1, [[alg.scalar(3, alg.one)]])  # R/(3) = image of (3)
    CR = BoundedComplex(alg, 0, [R_mod], [])
    Csub = BoundedComplex(alg, 0, [sub], [])
    f = ChainMap(Csub, CR, {0: ModuleMap(sub, R_mod, [[alg.scalar(3, alg.one)]])})
    assert not quasi_iso_check(f)


def test_quasi_iso_invariance_of_euler_fitting():
    # C sim C + (acyclic): inclusion is a quasi-iso and invariants agree
    alg = GroupAlgebra(3, 2, C2)
    sig = alg.group_element_vector((1,))
    C = two_term(alg, alg.add(alg.scalar(3, alg.one), sig))
    seq = extension(two_term(alg, alg.one), C)
    assert quasi_iso_check(seq.inc)
    assert C.euler_fitting() == seq.c2.euler_fitting()


def test_quasi_iso_projection_direction():
    # levelwise surjective, non-injective projection off an acyclic summand
    # is still a quasi-isomorphism; scaling 3-torsion cohomology by 3 is not
    alg = GroupAlgebra(3, 2, C2)
    sig = alg.group_element_vector((1,))
    a = alg.add(alg.one, alg.scalar(2, sig))
    C = two_term(alg, a)
    assert quasi_iso_check(extension(C, two_term(alg, alg.one)).quo)
    times3 = ChainMap(
        C, C,
        {0: ModuleMap(C.modules[0], C.modules[0], [[alg.scalar(3, alg.one)]]),
         1: ModuleMap(C.modules[1], C.modules[1], [[alg.scalar(3, alg.one)]])},
    )
    assert not quasi_iso_check(times3)
    non_chain = ChainMap(
        C, C,
        {0: ModuleMap(C.modules[0], C.modules[0], [[alg.one]]),
         1: ModuleMap(C.modules[1], C.modules[1], [[alg.scalar(3, alg.one)]])},
    )
    with pytest.raises(ValueError):
        quasi_iso_check(non_chain)


def test_cone_of_identity_is_acyclic():
    alg = GroupAlgebra(3, 2, C2)
    sig = alg.group_element_vector((1,))
    for a in (alg.one, alg.scalar(3, alg.one), alg.add(alg.scalar(3, alg.one), sig)):
        C = two_term(alg, a)
        ident = ChainMap(
            C, C, {0: identity_map(C.modules[0]), 1: identity_map(C.modules[1])}
        )
        K = cone(ident)
        assert K.is_acyclic()


def test_cone_is_valid_complex():
    alg = zmod_algebra(3, 2)
    C = two_term(alg, alg.scalar(3, alg.one))
    D = two_term(alg, alg.scalar(3, alg.one))
    f = ChainMap(
        C,
        D,
        {
            0: ModuleMap(C.modules[0], D.modules[0], [[alg.scalar(2, alg.one)]]),
            1: ModuleMap(C.modules[1], D.modules[1], [[alg.scalar(2, alg.one)]]),
        },
    )
    K = cone(f)  # construction validates d o d = 0
    assert K.lo == -1 and K.hi == 1
    # multiplication by a unit is a quasi-isomorphism, so the cone is acyclic
    assert K.is_acyclic()


def test_cone_triangle_identity():
    # [cone(f)] = [D] - [C]: the Euler-Fitting invariant of the cone equals
    # invariant(D) . invariant(C)^(-1) for any chain map (from the split
    # sequence 0 -> D -> cone(f) -> C[1] -> 0)
    import random

    alg = GroupAlgebra(3, 2, C2)
    rng = random.Random(17)
    for _ in range(12):
        a = tuple(rng.randrange(9) for _ in range(2))
        z = tuple(rng.randrange(9) for _ in range(2))
        C = two_term(alg, a)
        D = two_term(alg, a)
        f = ChainMap(
            C, D,
            {0: ModuleMap(C.modules[0], D.modules[0], [[z]]),
             1: ModuleMap(C.modules[1], D.modules[1], [[z]])},
        )
        K = cone(f)
        assert K.euler_fitting() == D.euler_fitting().product(C.euler_fitting().inverse())


def _split_ses(alg, C1, C3, rng):
    """Degreewise split SES with twisted middle differential: d2 =
    [[d1, h], [0, d3]] where h = d1 phi - phi d3 for random degree-0 phi."""
    assert C1.lo == C3.lo and C1.hi == C3.hi
    lo = C1.lo
    phis = []
    for i in range(lo, C1.hi + 1):
        M1, M3 = C1.module_at(i), C3.module_at(i)
        phis.append(
            [
                [tuple(rng.randrange(alg.q) for _ in range(alg.dim)) for _ in range(M1.ngens)]
                for _ in range(M3.ngens)
            ]
        )
    mids = []
    for i in range(lo, C1.hi + 1):
        mids.append(C1.module_at(i).direct_sum(C3.module_at(i)))
    diffs = []
    for i in range(lo, C1.hi):
        M1, M3 = C1.module_at(i), C3.module_at(i)
        N1, N3 = C1.module_at(i + 1), C3.module_at(i + 1)
        d1 = C1.differential_at(i).matrix
        d3 = C3.differential_at(i).matrix
        phi_i, phi_next = phis[i - lo], phis[i - lo + 1]
        # h = phi_i . d1  -  d3 . phi_next  as maps M3 -> N1
        h = []
        for c in range(M3.ngens):
            row = [alg.zero()] * N1.ngens
            for t in range(M1.ngens):
                for d in range(N1.ngens):
                    row[d] = alg.add(row[d], alg.mul(phi_i[c][t], d1[t][d]))
            for t in range(N3.ngens):
                for d in range(N1.ngens):
                    row[d] = alg.sub(row[d], alg.mul(d3[c][t], phi_next[t][d]))
            h.append(row)
        mat = []
        for a in range(M1.ngens):
            mat.append(list(d1[a]) + [alg.zero()] * N3.ngens)
        for c in range(M3.ngens):
            mat.append(list(h[c]) + list(d3[c]))
        diffs.append(ModuleMap(mids[i - lo], mids[i - lo + 1], mat))
    C2x = BoundedComplex(alg, lo, mids, diffs)
    inc_maps, quo_maps = {}, {}
    for i in range(lo, C1.hi + 1):
        M1, M3 = C1.module_at(i), C3.module_at(i)
        mid = C2x.module_at(i)
        inc_maps[i] = ModuleMap(
            M1,
            mid,
            [
                [alg.one if d == c else alg.zero() for d in range(mid.ngens)]
                for c in range(M1.ngens)
            ],
        )
        quo_maps[i] = ModuleMap(
            mid,
            M3,
            [[alg.zero()] * M3.ngens for _ in range(M1.ngens)]
            + [
                [alg.one if d == c else alg.zero() for d in range(M3.ngens)]
                for c in range(M3.ngens)
            ],
        )
    return ComplexSES(C1, C2x, C3, ChainMap(C1, C2x, inc_maps), ChainMap(C2x, C3, quo_maps))


def test_cone_of_quasi_iso_is_acyclic():
    # the mapping cone of a quasi-isomorphism has no cohomology; C itself must
    # carry cohomology (1 + 2 sigma has the zero divisor component 3)
    alg = GroupAlgebra(3, 2, C2)
    sig = alg.group_element_vector((1,))
    C = two_term(alg, alg.add(alg.one, alg.scalar(2, sig)))
    assert not C.is_acyclic()
    inc = extension(two_term(alg, alg.one), C).inc
    assert quasi_iso_check(inc)
    assert cone(inc).is_acyclic()
    # and a non-quasi-iso has a non-acyclic cone
    D = inc.dst
    zero = ChainMap(C, D, {i: zero_map(C.module_at(i), D.module_at(i)) for i in C.degrees()})
    assert not quasi_iso_check(zero)
    assert not cone(zero).is_acyclic()


def test_additivity_split_and_twisted():
    rng = random.Random(77)
    alg = GroupAlgebra(3, 2, C2)
    sig = alg.group_element_vector((1,))
    for _ in range(10):
        a = tuple(rng.randrange(9) for _ in range(2))
        b = tuple(rng.randrange(9) for _ in range(2))
        C1 = two_term(alg, a)
        C3 = two_term(alg, b)
        ses = _split_ses(alg, C1, C3, rng)
        assert euler_fitting_additivity_check(ses)


def test_additivity_with_zero_first_term():
    alg = GroupAlgebra(3, 2, C2)
    zero2 = BoundedComplex(
        alg,
        0,
        [FinPresModule(alg, 0, []), FinPresModule(alg, 0, [])],
        [ModuleMap(FinPresModule(alg, 0, []), FinPresModule(alg, 0, []), [])],
    )
    C = two_term(alg, alg.scalar(3, alg.one))
    rng = random.Random(3)
    ses = _split_ses(alg, zero2, C, rng)
    assert euler_fitting_additivity_check(ses)


def test_additivity_rejects_non_exact():
    alg = GroupAlgebra(3, 2, C2)
    C = two_term(alg, alg.scalar(3, alg.one))
    D = two_term(alg, alg.one)
    ident_like = ChainMap(
        C, C, {0: identity_map(C.modules[0]), 1: identity_map(C.modules[1])}
    )
    bogus = ComplexSES(C, C, D, ident_like, ChainMap(C, D, {
        0: ModuleMap(C.modules[0], D.modules[0], [[alg.one]]),
        1: ModuleMap(C.modules[1], D.modules[1], [[alg.one]]),
    }))
    with pytest.raises(ValueError, match="chain map does not commute with d at degree 0"):
        euler_fitting_additivity_check(bogus)


def test_d_squared_enforced():
    alg = zmod_algebra(3, 2)
    F = [free_module(alg, 1) for _ in range(3)]
    one = alg.one
    with pytest.raises(ValueError):
        BoundedComplex(
            alg,
            0,
            F,
            [ModuleMap(F[0], F[1], [[one]]), ModuleMap(F[1], F[2], [[one]])],
        )


def test_complex_is_zero_outside_its_degrees():
    alg = GroupAlgebra(3, 2, C2)
    C = two_term(alg, alg.scalar(3, alg.one))
    for i in (-2, -1, 2, 3):
        assert C.module_at(i).ngens == 0
        assert C.cohomology_size(i) == 1
        assert C.cohomology(i).ngens == 0
    for i in (-2, -1, 1, 2):
        d = C.differential_at(i)
        assert (d.src.ngens, d.dst.ngens) == (C.module_at(i).ngens, C.module_at(i + 1).ngens)
        assert not any(any(e) for row in d.matrix for e in row)


def test_boundary_zero_maps_are_built_once():
    alg = zmod_algebra(3, 2)  # Z/9
    C = two_term(alg, alg.scalar(3, alg.one))
    before = [C.cohomology_size(i) for i in C.degrees()]
    for i in (C.lo - 1, C.hi):
        d = C.differential_at(i)
        assert C.differential_at(i) is d
        assert d.kernel_span is C.differential_at(i).kernel_span
        assert d.image_span is C.differential_at(i).image_span
    assert [C.cohomology_size(i) for i in C.degrees()] == before == [3, 3]
    assert C.cohomology(1).fitting_ideal == IdealHandle(alg, [alg.scalar(3, alg.one)])
    assert not C.is_acyclic()


def test_a_chain_map_level_not_given_is_the_zero_map():
    alg = GroupAlgebra(3, 2, C2)
    C = two_term(alg, alg.scalar(3, alg.one))
    f = ChainMap(C, C, {0: identity_map(C.modules[0])})
    # the identity at 0 and zero at 1 do not commute with d = 3
    for check in (ChainMap.validate, quasi_iso_check, cone):
        with pytest.raises(ValueError, match="chain map does not commute with d at degree 0"):
            check(f)
    # a level whose source or target has no generators is the zero map
    zero_cx = BoundedComplex(alg, 0, [FinPresModule(alg, 0, [])], [])
    to_zero = ChainMap(two_term(alg, alg.one), zero_cx, {})
    assert to_zero.at(0).matrix == [[]] and to_zero.at(1).matrix == [[]]
    assert quasi_iso_check(to_zero)
    assert not quasi_iso_check(ChainMap(C, zero_cx, {}))


def cone_reference(f):
    """The mapping cone by index bookkeeping over lookups that are None
    outside lo..hi: the construction cone replaced, kept as its oracle."""

    def module_at(C, i):
        return C.modules[i - C.lo] if C.lo <= i <= C.hi else None

    def differential_at(C, i):
        return C.differentials[i - C.lo] if C.lo <= i < C.hi else None

    src, dst = f.src, f.dst
    alg = src.algebra
    lo = min(src.lo - 1, dst.lo)
    hi = max(src.hi - 1, dst.hi)
    modules = []
    for i in range(lo, hi + 1):
        Ms = module_at(src, i + 1)
        Md = module_at(dst, i)
        parts = []
        if Ms is not None:
            parts.append(Ms)
        if Md is not None:
            parts.append(Md)
        if not parts:
            modules.append(FinPresModule(alg, 0, []))
        elif len(parts) == 1:
            modules.append(parts[0])
        else:
            modules.append(parts[0].direct_sum(parts[1]))
    diffs = []
    for i in range(lo, hi):
        M_here, M_next = modules[i - lo], modules[i - lo + 1]
        ns = module_at(src, i + 1).ngens if module_at(src, i + 1) else 0
        nd = module_at(dst, i).ngens if module_at(dst, i) else 0
        ns2 = module_at(src, i + 2).ngens if module_at(src, i + 2) else 0
        nd2 = module_at(dst, i + 1).ngens if module_at(dst, i + 1) else 0
        mat = [[alg.zero()] * (ns2 + nd2) for _ in range(ns + nd)]
        d_src = differential_at(src, i + 1)
        if d_src is not None:
            for a in range(ns):
                for b in range(ns2):
                    mat[a][b] = alg.neg(d_src.matrix[a][b])
        level = f.maps.get(i + 1)
        if level is not None and ns and nd2:
            for a in range(ns):
                for b in range(nd2):
                    mat[a][ns2 + b] = level.matrix[a][b]
        d_dst = differential_at(dst, i)
        if d_dst is not None:
            for a in range(nd):
                for b in range(nd2):
                    mat[ns + a][ns2 + b] = d_dst.matrix[a][b]
        diffs.append(ModuleMap(M_here, M_next, mat))
    return BoundedComplex(alg, lo, modules, diffs)


def _campaign_complex(alg, rng):
    """A two-term complex shifted to lo in {-1, 0, 1}, or a three-term one."""
    if rng.random() < 0.5:
        return _random_three_term(alg, rng)
    return _two_term(alg, _random_element(alg, rng)).shift(rng.choice((-1, 0, 1)))


def _random_chain_maps(alg, rng):
    """Zero maps between complexes of any ranges, multiplications, and maps
    into and out of a one-term complex in the top degree of C."""
    C, D = _campaign_complex(alg, rng), _campaign_complex(alg, rng)
    yield ChainMap(C, D, {i: zero_map(C.module_at(i), D.module_at(i)) for i in C.degrees()})
    z = _random_element(alg, rng)
    yield ChainMap(C, C, {i: multiplication_map(C.module_at(i), z) for i in C.degrees()})
    top = C.module_at(C.hi)
    E = BoundedComplex(alg, C.hi, [free_module(alg, 1)], [])
    yield ChainMap(E, C, {C.hi: ModuleMap(E.modules[0], top, [[z]])})
    Q = BoundedComplex(alg, C.hi, [principal_module(alg, C.differentials[-1].matrix[0][0])], [])
    yield ChainMap(C, Q, {C.hi: ModuleMap(top, Q.modules[0], [[alg.one]])})


def test_cone_matches_reference():
    rng = random.Random(2024)
    for alg in (GroupAlgebra(3, 2, C2), GroupAlgebra(2, 3, C2)):
        for _ in range(6):
            for f in _random_chain_maps(alg, rng):
                K, L = cone(f), cone_reference(f)
                assert (K.lo, K.hi) == (L.lo, L.hi)
                assert [M.ngens for M in K.modules] == [M.ngens for M in L.modules]
                assert [M.relations for M in K.modules] == [M.relations for M in L.modules]
                assert [d.matrix for d in K.differentials] == [d.matrix for d in L.differentials]


def test_extension_terms_exactness_and_invariant():
    # direct sums, and the twisted extensions that cones of chain maps are,
    # over complexes with different degree ranges
    rng = random.Random(31)
    for alg in (GroupAlgebra(3, 2, C2), GroupAlgebra(2, 3, C2)):
        for _ in range(4):
            pairs = [(_campaign_complex(alg, rng), _campaign_complex(alg, rng), None)]
            pairs += [(f.src.shift(1), f.dst, lambda i, f=f: f.at(i + 1).matrix)
                      for f in _random_chain_maps(alg, rng)]
            for quo, sub, twist in pairs:
                seq = extension(quo, sub, twist)
                assert (seq.c1, seq.c3) == (sub, quo)
                E = seq.c2
                assert (E.lo, E.hi) == (min(quo.lo, sub.lo), max(quo.hi, sub.hi))
                for i in E.degrees():
                    expect = quo.module_at(i).direct_sum(sub.module_at(i))
                    assert (E.module_at(i).ngens, E.module_at(i).relations) == (
                        expect.ngens, expect.relations)
                seq.verify_exact()
                assert E.euler_fitting() == sub.euler_fitting().product(quo.euler_fitting())


def test_extension_refuses_a_twist_breaking_d_squared():
    # on Z/9 --3--> Z/9 --3--> Z/9 twisted into itself, d o d = 0 holds on the
    # extension iff 3 t(1) + 3 t(0) = 0
    alg = zmod_algebra(3, 2)
    F = [free_module(alg, 1) for _ in range(3)]
    three = alg.scalar(3, alg.one)
    C = BoundedComplex(alg, 0, F, [ModuleMap(F[0], F[1], [[three]]),
                                   ModuleMap(F[1], F[2], [[three]])])
    signs = {0: alg.one, 1: alg.neg(alg.one)}
    seq = extension(C, C, lambda i: [[signs[i]]])
    seq.verify_exact()
    for twist in ({0: alg.one, 1: alg.one}, {0: alg.one, 1: alg.zero()}):
        with pytest.raises(ValueError, match="d o d != 0"):
            extension(C, C, lambda i, twist=twist: [[twist[i]]])
    # a twist with a column or a row too many
    for twist in ([[alg.one, alg.one]], [[alg.one], [alg.one]]):
        with pytest.raises(ValueError):
            extension(C, C, lambda i, twist=twist: twist)


# ---------------------------------------------------------------------------
# Reach: the complex checks over group algebras of dim 4 to 9, whose
# cohomology is presented on few generators (subquotient_presentation).

def _shift_law(C):
    inv = C.euler_fitting()
    return (C.shift(1).euler_fitting() == inv.inverse() and C.shift(2).euler_fitting() == inv
            and C.shift(-1).euler_fitting() == inv.inverse())


def _quasi_iso_law(C):
    """C -> C (+) (A -1-> A) is a quasi-isomorphism that keeps the invariant."""
    seq = extension(_two_term(C.algebra, C.algebra.one, C.lo), C)
    return quasi_iso_check(seq.inc) and C.euler_fitting() == seq.c2.euler_fitting()


def _radical_element(alg, rng, k):
    """p x, or (g - 1) x for the k-th basis element g: a non-unit, so that
    cohomology is nonzero."""
    x = _random_element(alg, rng)
    return alg.scalar(alg.p, x) if k == 0 else alg.mul(alg.sub(alg.basis_element(k), alg.one), x)


def _additivity_law(alg, rng):
    C1, C3 = (_two_term(alg, _radical_element(alg, rng, k)) for k in (0, 1))
    phi0, phi1 = _random_element(alg, rng), _random_element(alg, rng)
    d1, d3 = C1.differentials[0].matrix[0][0], C3.differentials[0].matrix[0][0]
    h = alg.sub(alg.mul(phi0, d1), alg.mul(d3, phi1))
    return euler_fitting_additivity_check(extension(C3, C1, lambda i: [[h]]))


@pytest.mark.parametrize("p, N, orders", [(3, 2, (2, 2)), (3, 2, (9,)), (2, 3, (4,))], ids=str)
def test_complex_checks_over_wider_group_algebras_take_under_a_second(p, N, orders):
    """Shift and quasi-iso on a two-term complex and additivity, over
    (Z/9)[C2 x C2], (Z/9)[C9] and (Z/8)[C4]; over (Z/9)[C2 x C2], where
    (1 + j)(1 - j) = 0, also shift and quasi-iso on a three-term complex:
    the five complex op kinds of the benchmark. All of them together in
    under a second. The differentials are non-units: over (Z/9)[C9], H^0
    and H^1 have 9 Howell rows of Z each, and presenting them on every row
    would take 81 relations and C(81, 9) minors."""
    alg = GroupAlgebra(p, N, FiniteAbelianGroup(orders))
    rng = random.Random(alg.dim)
    start = time.perf_counter()
    complexes = [_two_term(alg, _radical_element(alg, rng, 0))]
    if orders == (2, 2):
        complexes.append(_random_three_term(alg, rng))
    for C in complexes:
        assert _shift_law(C) and _quasi_iso_law(C)
    assert _additivity_law(alg, rng)
    assert time.perf_counter() - start < 1.0
