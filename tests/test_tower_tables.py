"""The former forms of the tower route's per-level work, kept as oracles of
the tables that are built once: the Fraction route of the theta plan
(fraction_route: a Hurwitz zeta value per unit residue, the Euler factors,
#, then each T-factor), the per-element power chi_cyc(g)^r mod q of the
twist, the Kummer congruence on reduced and twisted copies and the parity
projector on a translated copy (algebra_helpers), the action of each group
element as a product of generator powers, and the place checks that
check_hyp ran again on every layer's spec."""

import math
import random
from pathlib import Path

import fraction_route
import pytest
import sympy
from algebra_helpers import (
    action_of,
    parity_reference,
    twist,
    twist_congruence_reference,
)
from fraction_route import as_fractions, reduce_mod

from iwasawa_kit import tower
from iwasawa_kit.abelian import (
    AbelianFieldSpec,
    FiniteAbelianGroup,
    check_hyp,
    layer,
    roots_of_unity_order,
    roots_of_unity_rule,
)
from iwasawa_kit.campaigns import TOWER_CORPUS, corpus_cm_specs, load_manifest
from iwasawa_kit.lvalues import (
    ClassModuleData,
    _mat_reduce,
    apply_plan,
    theta_places,
    theta_plan,
)
from iwasawa_kit.numutil import factorize
from iwasawa_kit.tower import (
    TowerElement,
    TowerIntegralityError,
    parity_projector_annihilates,
    theta_tower,
    tower_level,
    twist_congruence_check,
)

OO = "oo"
DATA = Path(__file__).resolve().parent.parent / "data"
Z3, Z5, Z7 = (AbelianFieldSpec.cyclotomic(m) for m in (3, 5, 7))
# (spec, S, T, p, n_max): the towers over Q(zeta3) to level 3 and over
# Q(zeta5), Q(zeta7) to level 1; T = {2} over Q(zeta3) fails the
# roots-of-unity rule at every level
TOWERS = [
    (Z3, [3, OO], [5, 7], 3, 3),
    (Z3, [3, OO], [2], 3, 3),
    (Z5, [5, OO], [2], 5, 1),
    (Z7, [7, OO], [3], 7, 1),
]
RS = (0, -1, -2, -3, -4)


def twist_reference(x, r, level, N):
    """chi_cyc(g)^r g, one power per group element (N <= n + 1)."""
    if r == 0:
        return x
    q = level.p**N
    return tuple(c * pow(level.chi_cyc[g], r, q) % q
                 for g, c in zip(level.group.elements(), x))


def theta_matrix_reference(M, x, group):
    """sum_g x_g . action_of(g), each action a product of generator powers."""
    nums, _ = x
    k = len(M.orders)
    out = [[0] * k for _ in range(k)]
    for g, c in zip(group.elements(), nums):
        A = action_of(M, g)
        for i in range(k):
            for j in range(k):
                out[i][j] += c * A[i][j]
    return out


def run_tower(spec, S, T, p, N, n_max, r, congruence_check=twist_congruence_check):
    """(entries, hyp verdicts, Kummer congruence) of the tower, or the
    message of the error that stopped it."""
    try:
        t = theta_tower(spec, S, T, p, N, n_max, r)
        congruence = None
        if r != 0:
            congruence = congruence_check(t, theta_tower(spec, S, T, p, N, n_max, 0))
        return t.entries, t.hyp_verdicts, congruence
    except TowerIntegralityError as exc:
        return type(exc).__name__, str(exc)


def tower_runs():
    return [(spec, S, T, p, N, n_max, r)
            for spec, S, T, p, n_max in TOWERS for r in RS for N in (1, 2, 3)]


# (spec, S, T, p, n_max, whether theta_tower's entries are compared too)
LEVEL_TOWERS = [(spec, S, T, p, 2, True) for spec, p, S, T in TOWER_CORPUS] + [
    (*t, False) for t in TOWERS]


@pytest.mark.parametrize("spec, S, T, p, n_max, entries", LEVEL_TOWERS,
                         ids=[f"{t[0].label}-p{t[3]}-T{t[2]}-n{t[4]}" for t in LEVEL_TOWERS])
def test_theta_value_matches_the_fraction_route_on_tower_levels(spec, S, T, p, n_max, entries):
    """Every level n <= 2 of TOWER_CORPUS and every level of TOWERS, with S
    as given and with the unramified prime 13 added, so the Euler pass acts
    (the benchmark's towers have no such prime). Over TOWER_CORPUS with S as
    given, each theta_tower entry mod p^3 (the precision and depth of the
    AC3/AC4 campaigns) is the Fraction theta reduced one coefficient at a
    time."""
    checked = 0
    levels = [tower_level(spec, p, n) for n in range(n_max + 1)]
    for extra in ([], [13]):
        s_fin, t_fin = theta_places(spec, [*S, *extra], T, 0)
        for r in RS:
            expected = [fraction_route.theta_value(lvl, s_fin, t_fin, r) for lvl in levels]
            plan = theta_plan(s_fin, t_fin, r)
            assert [apply_plan(lvl, plan) for lvl in levels] == expected, (extra, r)
            checked += len(levels)
            if entries and not extra:
                got = theta_tower(spec, S, T, p, 3, n_max, r).entries
                assert got == [reduce_mod(as_fractions(v), p, 3) for v in expected], r
    assert checked == 2 * 5 * (n_max + 1)


def test_twist_matches_the_per_element_power():
    rng = random.Random(35)
    checked = 0
    for spec, _, _, p, n_max in TOWERS:
        for n in range(n_max + 1):
            lvl = tower_level(spec, p, n)
            for N in (1, 2, 3):
                q = p**N
                for r in (*RS, 1, 2, 5):
                    x = tuple(rng.randrange(q) for _ in range(lvl.group.size))
                    if N > n + 1:  # twist is defined up to p^(n+1)
                        continue
                    assert twist(x, r, lvl, N) == twist_reference(x, r, lvl, N), (n, N, r)
                    checked += 1
    assert checked > 100


def fraction_apply_plan(pres, plan):
    """lvalues.apply_plan by the Fraction route: the plan's Euler primes and
    T-primes as the s_fin and t_fin of fraction_route.theta_value."""
    k, factors = plan
    s_fin = {v for v, _, euler in factors if euler}
    t_fin = {v for v, _, euler in factors if not euler}
    return fraction_route.theta_value(pres, s_fin, t_fin, 1 - k)


def test_towers_match_the_old_paths(monkeypatch):
    """Every tower and its Kummer congruence are the same with the tables
    and the one-pass check as with the Fraction route and the per-element
    twist of reduced copies; the hyp list has its own oracle below."""
    runs = tower_runs()
    got = [run_tower(*run) for run in runs]
    assert sum(isinstance(g[0], list) for g in got) > len(runs) // 2
    monkeypatch.setattr(tower, "apply_plan", fraction_apply_plan)

    def per_element(t_r, t_0):
        return twist_congruence_reference(t_r, t_0, twist_reference)

    for run, expected in zip(runs, got, strict=True):
        assert run_tower(*run, congruence_check=per_element) == expected, run


def campaign_towers():
    """(t_r, t_0) for the towers of tower_coherence_campaign and
    kummer_congruence_campaign (TOWER_CORPUS, levels 0..2, N = 3) at r = 0,
    -1, -2, -3, t_0 the tower of the same base at r = 0."""
    out = []
    for spec, p, S, T in TOWER_CORPUS:
        t_0 = theta_tower(spec, S, T, p, 3, 2, 0)
        out += [(theta_tower(spec, S, T, p, 3, 2, r), t_0) for r in (0, -1, -2, -3)]
    return out


def corrupted(t, n, i, delta):
    """A copy of tower t with coefficient i of level n moved by delta mod p^N."""
    entries = list(t.entries)
    x = list(entries[n])
    x[i] = (x[i] + delta) % t.p**t.N
    entries[n] = tuple(x)
    return TowerElement(t.p, t.N, t.spec, t.S, t.T, t.r, entries, t.levels, t.hyp_verdicts)


def test_one_pass_checks_match_the_copies_on_the_campaign_towers():
    """The parity projector and the Kummer congruence, one pass per level,
    give the verdicts of the translated and the reduced and twisted copies
    on every campaign tower and on 24 corruptions of each: one coefficient
    of one level of t_r or t_0 moved by 1, p or p^2, so some corruptions
    are invisible at the Kummer congruence's precision p^min(N, n+1). A
    corrupted tower fails at the same layer under both."""
    rng = random.Random(53)
    failed = {"parity": set(), "kummer": set()}
    for t_r, t_0 in campaign_towers():
        towers = [(t_r, t_0)]
        for _ in range(12):
            n = rng.randrange(3)
            i, delta = rng.randrange(len(t_r.entries[n])), rng.choice((1, t_r.p, t_r.p**2))
            towers += [(corrupted(t_r, n, i, delta), t_0), (t_r, corrupted(t_0, n, i, delta))]
        for k, (a, b) in enumerate(towers):
            parity = [parity_projector_annihilates(a, n) for n in range(3)]
            assert parity == [parity_reference(a, n) for n in range(3)]
            kummer = twist_congruence_check(a, b)
            assert kummer == twist_congruence_reference(a, b)
            if k == 0:
                assert kummer == (True, None) and all(parity)
            failed["parity"].update(n for n, ok in enumerate(parity) if not ok)
            failed["kummer"].add(kummer[1])
    assert failed == {"parity": {0, 1, 2}, "kummer": {None, 0, 1, 2}}


def test_the_hyp_list_of_a_tower_is_check_hyp_on_each_level():
    """The places are checked once, on the base, and the roots-of-unity rule
    on layer 0; each level's verdict, and the reason under strict_hyp, are
    those of check_hyp on the level's spec."""
    failing = 0
    for spec, S, T, p, n_max in TOWERS:
        t = theta_tower(spec, S, T, p, 1, n_max, 0)
        verdicts = [check_hyp(lvl.spec, S, T) for lvl in t.levels]
        assert t.hyp_verdicts == [ok for ok, _ in verdicts], spec.label
        bad = next((n for n, (ok, _) in enumerate(verdicts) if not ok), None)
        if bad is None:
            assert theta_tower(spec, S, T, p, 1, n_max, 0, strict_hyp=True).hyp_verdicts == \
                t.hyp_verdicts
            continue
        failing += 1
        with pytest.raises(TowerIntegralityError) as refused:
            theta_tower(spec, S, T, p, 1, n_max, 0, strict_hyp=True)
        assert str(refused.value) == f"layer {bad}: Hyp(S,T) fails: {verdicts[bad][1]}"
    assert failing == 2
    # T = {2} over Q(zeta3) fails at every level, in check_hyp's words
    t = theta_tower(Z3, [3, OO], [2], 3, 1, 3, 0)
    assert t.hyp_verdicts == [False] * 4
    assert [check_hyp(lvl.spec, [3, OO], [2])[1] for lvl in t.levels] == [
        f"every prime of T has residue characteristic 2 | w_L = {6 * 3**n}" for n in range(4)]


def test_every_layer_has_the_roots_of_unity_verdict_of_layer_0():
    """Why theta_tower reads Hyp on layer 0 alone: L_n/L is totally ramified
    at p and unramified elsewhere, so w_(L_n) has the prime divisors of w_L,
    and the roots-of-unity rule, which reads only those, gives each layer
    layer 0's verdict. Over corpus_cm_specs(30) and Q(zeta_m), m < 40, at
    each odd p <= 13 that the tower admits (v_p(modulus) <= 1), layers 1
    and 2 (layer 1 alone for p = 11, 13), each T a prime of w_L or {2, 3}."""
    specs = set(corpus_cm_specs(30)) | {AbelianFieldSpec.cyclotomic(m) for m in range(3, 40)}
    layers = 0
    for spec in specs:
        for p in (3, 5, 7, 11, 13):
            if spec.modulus % (p * p) == 0:
                continue
            base = layer(spec, p, 0)
            primes = set(factorize(roots_of_unity_order(base)))
            for n in (1, 2) if p <= 7 else (1,):
                top = layer(spec, p, n)
                assert set(factorize(roots_of_unity_order(top))) == primes, (spec.label, p, n)
                for t_fin in [{ell} for ell in primes] + [{2, 3}]:
                    assert roots_of_unity_rule(top, t_fin)[0] == roots_of_unity_rule(base, t_fin)[0]
                layers += 1
    assert len(specs) == 80 and layers == 624


def test_theta_matrix_matches_the_action_of_each_element_on_the_manifest():
    for e in load_manifest(DATA):
        M, th = e["module"], e["theta"]
        expected = _mat_reduce(theta_matrix_reference(M, th.value, th.group), M.orders)
        assert _mat_reduce(M.theta_matrix(th.value[0]), M.orders) == expected, e["name"]


def random_class_module(rng, ngens):
    """Commuting actions P D_t P^(-1) on blocks (Z/d)^k, d in 7, 9, 13, with
    D_t diagonal of units whose order divides the order of generator t: a
    well-defined module, in general with a different matrix for each
    element."""
    group_orders = tuple(rng.choice((2, 3, 4, 6)) for _ in range(ngens))
    blocks = [(rng.choice((7, 9, 13)), rng.choice((1, 2))) for _ in range(rng.choice((1, 2)))]
    orders = tuple(d for d, k in blocks for _ in range(k))
    size = len(orders)
    action = {t: [[0] * size for _ in range(size)] for t in range(ngens)}
    start = 0
    for d, k in blocks:
        phi = int(sympy.totient(d))
        h = int(sympy.primitive_root(d))
        while True:
            P = sympy.Matrix(k, k, lambda i, j: rng.randrange(d))
            if math.gcd(int(P.det()), d) == 1:
                break
        P_inv = P.inv_mod(d)
        for t, o in enumerate(group_orders):
            g = math.gcd(o, phi)
            D = sympy.diag(*[pow(h, phi // g * rng.randrange(g), d) for _ in range(k)])
            A = (P * D * P_inv).applyfunc(lambda c: c % d)
            for i in range(k):
                for j in range(k):
                    action[t][start + i][start + j] = int(A[i, j])
        start += k
    return ClassModuleData(orders, group_orders, action)


def test_theta_matrix_matches_the_action_of_each_element_on_random_modules():
    """Groups of 2 and 3 generators, so the order of the walk matters."""
    rng = random.Random(35)
    distinct = 0
    for ngens in (2, 3):
        for _ in range(20):
            M = random_class_module(rng, ngens)
            group = FiniteAbelianGroup(M.group_orders)
            actions = {tuple(map(tuple, _mat_reduce(action_of(M, g), M.orders)))
                       for g in group.elements()}
            distinct += len(actions) > 1
            for _ in range(3):
                x = (tuple(rng.randint(-4, 4) for _ in range(group.size)), 1)
                expected = _mat_reduce(theta_matrix_reference(M, x, group), M.orders)
                assert _mat_reduce(M.theta_matrix(x[0]), M.orders) == expected, (
                    M.orders, M.group_orders)
    assert distinct >= 30
