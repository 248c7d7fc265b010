"""The former forms of the character route's tables, kept as oracles of the
tables that are built once: the long division by Phi_n that the fold
replaced, the per-label primitivization that read chi(a) from a
CharacterTable into a dict, formed its kernels and CRT lifts again per
character and negated each log into an explicit contragredient, the CRT
lift that factors its modulus for each unit, the per-character Horner of
B_{n,chi} over every residue mod f, the per-character L-values that applied
every factor to every character (a zero one too) before the table per
(spec, n), and the conductor search that listed the units mod m once per
divisor."""

import math
import random
from functools import lru_cache

import pytest
from algebra_helpers import character_key, character_log, fold

from iwasawa_kit import abelian, lvalues
from iwasawa_kit.abelian import (
    AbelianFieldSpec,
    CharacterTable,
    conductor,
    dirichlet_characters,
    galois_group,
)
from iwasawa_kit.campaigns import corpus_cm_specs, corpus_st_choices
from iwasawa_kit.exact import CyclotomicInt, cyclotomic_polynomial, lowest_terms
from iwasawa_kit.lvalues import (
    _bernoulli_cleared,
    _bernoulli_vector,
    theta,
    theta_character_side,
    theta_places,
)
from iwasawa_kit.numutil import crt_lift, divisors, euler_phi, unit_residues

OO = "oo"


def reduce_mod_cyclotomic_reference(vec, n):
    """Long division of a low-first integer polynomial by Phi_n."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    work = list(vec)
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c:
            for j, pj in enumerate(phi):
                work[i - deg + j] -= c * pj
    return work[:deg] + [0] * (deg - len(work))


def test_the_fold_matches_the_long_division():
    """n = 105 and n = 210 are the first odd and even n whose fold table holds
    a coefficient outside +-1."""
    rng = random.Random(34)
    for n in [*range(1, 61), 105, 210]:
        for length in sorted({0, 1, n // 2, n - 1, n, n + 1, 2 * n + 3, 3 * n}):
            vec = [rng.randint(-50, 50) for _ in range(length)]
            want = tuple(reduce_mod_cyclotomic_reference(vec, n))
            assert CyclotomicInt(n, fold(vec, n)).nums == want, (n, length)
        assert CyclotomicInt(n, [0] * n).nums == (0,) * euler_phi(n), n


def dirichlet_character_reference(gal, table, label):
    """chi_label primitivized through the table, one dict per label: chi(a)
    read at element_of(a) from the CharacterTable, the kernel of each d | f
    and the CRT lifts formed again, and chi_bar with each log negated
    explicitly. Returns the character_key of chi and of chi_bar."""
    f, e = gal.conductor, table.e
    log_f = {a: character_log(table, label, gal.element_of(a)) for a in unit_residues(f)}
    fchi = f
    for d in divisors(f):
        if all(log_f[a] == 0 for a in unit_residues(f) if (a - 1) % d == 0):
            fchi = d
            break
    logs = {b % fchi: log_f[crt_lift(b, fchi, f)] for b in unit_residues(fchi)}
    bar = {b: (-t) % e for b, t in logs.items()}
    return tuple((fchi, e, tuple(x.get(b) for b in range(fchi))) for x in (logs, bar))


@lru_cache(maxsize=None)
def reference_characters(spec):
    """(label, key of chi, key of chi_bar) for each character of the spec's
    group, labels in the order of its elements."""
    gal = galois_group(spec)
    table = CharacterTable(gal.group)
    return tuple((label, *dirichlet_character_reference(gal, table, label))
                 for label in table.labels)


def non_corpus_specs():
    """Maximal real subfields, real quadratic fields, and fields whose
    modulus is a proper multiple of the conductor."""
    specs = [AbelianFieldSpec(m, frozenset({1, m - 1}), f"Q(zeta_{m})+")
             for m in (5, 7, 8, 9, 12, 13, 15, 16, 20, 21, 24)]
    specs += [AbelianFieldSpec(5, frozenset({1, 4}), "Q(sqrt5)"),
              AbelianFieldSpec(8, frozenset({1, 7}), "Q(sqrt2)"),
              AbelianFieldSpec(12, frozenset({1, 11}), "Q(sqrt3)"),
              AbelianFieldSpec(13, frozenset({1, 3, 4, 9, 10, 12}), "Q(sqrt13)")]
    specs += [AbelianFieldSpec(15, frozenset({1, 4, 7, 13}), "Q(zeta_3) in 15"),
              AbelianFieldSpec(24, frozenset({1, 5, 13, 17}), "Q(i) in 24")]
    return specs


def specs_to_check():
    return corpus_cm_specs(24) + non_corpus_specs()


def test_primitivization_matches_the_table_route():
    """Each character of the one pass has the conductor of the per-label
    primitivization and its log at every residue, None off the units."""
    conductors = set()
    for spec in specs_to_check():
        gal = galois_group(spec)
        assert gal.conductor > 1, spec.label
        chars = dirichlet_characters(gal)
        assert len(chars) == gal.group.size
        for chi, (label, key, _) in zip(chars, reference_characters(spec), strict=True):
            fchi, e, logs = key
            assert (chi.conductor, chi.order) == (fchi, e), (spec.label, label)
            for b in range(fchi):
                assert chi.log_of(b) == logs[b], (spec.label, label, b)
            assert character_key(chi) == key, (spec.label, label)
            conductors.add(chi.conductor)
    assert {1, 3, 4, 5, 8, 12} <= conductors


def test_crt_lift_tables_match_the_per_unit_lifts():
    """Every table _crt_lifts(d, f) of the corpus, f a conductor and d | f,
    equals crt_lift(b, d, f) for each unit b mod d, which factors f per
    call; each lift is a unit mod f over b."""
    tables = {(d, gal.conductor) for gal in (galois_group(s) for s in corpus_cm_specs(24))
              for d in divisors(gal.conductor)}
    assert len(tables) > 40
    for d, f in sorted(tables):
        table = abelian._crt_lifts(d, f)
        assert table == tuple((b, crt_lift(b, d, f)) for b in unit_residues(d)), (d, f)
        for b, a in table:
            assert math.gcd(a, f) == 1 and (a - b) % d == 0, (d, f, b)


@pytest.mark.parametrize("spec", [AbelianFieldSpec.rationals(),
                                  AbelianFieldSpec(4, frozenset({1, 3}))], ids=["Q", "Q in 4"])
def test_a_field_of_conductor_one_has_one_trivial_character(spec):
    gal = galois_group(spec)
    assert [character_key(chi) for chi in dirichlet_characters(gal)] == [(1, 1, (0,))]
    for r in (0, -1, -2):
        components = theta_character_side(spec, [OO], [2], r)
        assert CharacterTable(gal.group).decompose(theta(spec, [OO], [2], r).value) == components


@lru_cache(maxsize=None)
def bernoulli_vector_reference(key, n):
    """B_{n,chi} as (vec, den) by one Horner pass per character over every
    residue mod f, for the character whose character_key is key."""
    f, e, logs = key
    den, cleared = _bernoulli_cleared(n)
    f_pow = [f**j for j in range(n + 1)]
    vec = [0] * e
    for a in range(1, f + 1):
        t = logs[a % f]
        if t is None:
            continue
        acc = 0
        for j, c in enumerate(reversed(cleared)):
            acc = acc * a + c * f_pow[j]
        vec[t] += acc
    return tuple(vec), f * den


def test_bernoulli_vector_matches_the_per_character_horner():
    """B_{n,chi} of each character, and the L-value table's B_{n,chi_bar}
    (chi's vector reflected), against the Horner pass of the explicit chi and
    chi_bar of the per-label primitivization, n = 1..4."""
    keys = set()
    for spec in specs_to_check():
        for n in (1, 2, 3, 4):
            rows = lvalues._l_table(spec, n)
            for (label, chi, vec, den), (_, key, bar) in zip(rows, reference_characters(spec),
                                                             strict=True):
                assert character_key(chi) == key
                assert _bernoulli_vector(chi, n) == bernoulli_vector_reference(key, n), (key, n)
                want_vec, want_den = bernoulli_vector_reference(bar, n)
                assert (vec, den) == (want_vec, -want_den * n), (spec.label, label, n)
                keys.update((key, bar))
    assert len(keys) > 50
    trivial = dirichlet_characters(galois_group(AbelianFieldSpec.rationals()))[0]
    for n in (1, 2, 3, 4):
        assert _bernoulli_vector(trivial, n) == bernoulli_vector_reference((1, 1, (0,)), n)


def one_minus_reference(vec, s, c):
    """(1 - c zeta_e^s) . sum_t vec[t] zeta_e^t, each index taken mod e."""
    e = len(vec)
    return [vec[i] - c * vec[(i - s) % e] for i in range(e)]


def l_vector_reference(key, s_fin, r):
    """L_S(r, chi) = -B_{n,chi}/n . prod_v (1 - chi(v) v^(-r)) as (vec, den)
    for the character whose character_key is key, B_{n,chi} looked up by the
    key on every call and every Euler factor applied, to a zero vector too."""
    f, _, logs = key
    n = 1 - r
    vec, den = bernoulli_vector_reference(key, n)
    vec = [-c for c in vec]
    for v in sorted(s_fin):
        if f % v != 0 or f == 1:
            vec = one_minus_reference(vec, logs[v % f], v ** (-r))
    return vec, den * n


def character_side_reference(spec, S, T, r):
    """The chi-components one character at a time, from the explicit chi_bar
    of the per-label primitivization: every T-factor applied to every
    L-value, each value reduced by the long division."""
    s_fin, t_fin = theta_places(spec, S, T, r)
    out = {}
    for label, (f, e, logs), bar in reference_characters(spec):
        vec, den = l_vector_reference(bar, s_fin, r)
        for v in sorted(t_fin):
            vec = one_minus_reference(vec, -logs[v % f], v ** (1 - r))
        out[label] = (e, *lowest_terms(reduce_mod_cyclotomic_reference(vec, e), den))
    return out


def test_the_character_side_matches_the_per_character_route():
    """Every (spec, S, T, r) of the character workload's corpus. At r = 0 and
    r = -2 (n odd) every even character but the trivial one has B_{n,chi} = 0,
    so some component with an Euler or T-factor takes none."""
    skipped = {r: 0 for r in (0, -1, -2, -3)}
    cases = 0
    for spec in corpus_cm_specs(24):
        for S, T in corpus_st_choices(spec):
            for r in skipped:
                got = theta_character_side(spec, S, T, r)
                want = character_side_reference(spec, S, T, r)
                assert {label: (c.n, c.nums, c.den) for label, c in got.items()} == want, (
                    spec.label, S, T, r)
                if any(theta_places(spec, S, T, r)):
                    skipped[r] += sum(not any(row[2]) for row in lvalues._l_table(spec, 1 - r))
                cases += 1
    assert cases > 3000
    assert skipped[0] and skipped[-2], skipped


def test_the_character_route_reads_no_character_table(monkeypatch):
    """theta_character_side builds every character without the logs of the
    group-ring route's CharacterTable."""
    specs = corpus_cm_specs(24)
    expected = [theta_character_side(spec, [*sorted(abelian.ramified_primes(spec)), OO], [], 0)
                for spec in specs]

    def refuse(*args):
        pytest.fail("the character route read a character table")

    monkeypatch.setattr(abelian, "_character_logs", refuse)
    monkeypatch.setattr(abelian, "linear_form", refuse)
    abelian.dirichlet_characters.cache_clear()
    lvalues._l_table.cache_clear()
    got = [theta_character_side(spec, [*sorted(abelian.ramified_primes(spec)), OO], [], 0)
           for spec in specs]
    assert got == expected


def conductor_reference(spec):
    """The least f | m whose kernel (Z/m)^x -> (Z/f)^x lies in the fixing
    group, the units mod m listed again for each divisor."""
    m = spec.modulus
    for f in divisors(m):
        kernel = {a for a in unit_residues(m) if (a - 1) % f == 0}
        if kernel <= spec.fixing:
            return f, frozenset(a % f for a in spec.fixing)
    raise AssertionError("conductor search failed")


def subgroup(m, gens):
    """The subgroup of (Z/m)^x generated by gens."""
    group = {1 % m}
    frontier = list(group)
    while frontier:
        a = frontier.pop()
        for g in gens:
            b = a * g % m
            if b not in group:
                group.add(b)
                frontier.append(b)
    return frozenset(group)


def test_conductor_matches_the_per_divisor_scan():
    rng = random.Random(34)
    checked = 0
    for m in range(1, 121):
        units = unit_residues(m)
        choices = [[], [m - 1], [a * a % m for a in units]]
        choices += [rng.sample(units, min(k, len(units))) for k in (1, 1, 2)]
        for gens in choices:
            spec = AbelianFieldSpec(m, subgroup(m, gens))
            assert conductor(spec) == conductor_reference(spec), (m, sorted(spec.fixing))
            checked += 1
    assert checked == 6 * 120
