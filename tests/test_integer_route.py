"""The integer route of Q[G] in lvalues against the Fraction route of
fraction_route.py, the one oracle of theta: theta and its plan are equal
to it as rationals on the corpus and the manifest, and the integrality
verdicts agree (test_tower_tables compares its tower levels). The Fraction
route's delta_T is checked by hand on three cases."""

import functools
from pathlib import Path

import fraction_route
import pytest
from fraction_route import as_pair

from iwasawa_kit.abelian import AbelianFieldSpec, galois_group, ramified_primes
from iwasawa_kit.campaigns import corpus_cm_specs, corpus_st_choices, load_manifest
from iwasawa_kit.lvalues import (
    apply_plan,
    is_p_integral,
    theta,
    theta_places,
    theta_plan,
    verify_integrality,
)

DATA = Path(__file__).resolve().parent.parent / "data"
OO = "oo"
PRIMES = (2, 3, 5, 7, 11, 13)
RS = (0, -1, -2, -3, -4)


def test_delta_t_examples():
    """delta_T(r) = prod_{v in T} (1 - v^(1-r) sigma_v^(-1))."""
    Z3, Z5 = AbelianFieldSpec.cyclotomic(3), AbelianFieldSpec.cyclotomic(5)
    grp3 = galois_group(Z3).group
    one3 = tuple(int(g == grp3.identity) for g in grp3.elements())
    assert fraction_route.delta_t(Z3, [], 0) == one3
    assert fraction_route.delta_t(Z3, [7], 0) == tuple(-6 * c for c in one3)
    gal5 = galois_group(Z5)
    sigma3 = gal5.element_of(3)
    expect = tuple(
        int(g == gal5.group.identity) - 2 * int(g == sigma3) for g in gal5.group.elements()
    )
    assert fraction_route.delta_t(Z5, [2], 0) == expect


@functools.cache
def corpus_cases():
    """{family: [(spec, S, T, r), ...]}, one family per spec of
    corpus_cm_specs(24): each (S, T) choice with the least unramified prime
    of 11, 13, ... outside S and T added to S, so the Euler pass acts, at
    r = 0..-3; the choice with the most places, and its S with T empty
    (whose theta has denominators), at r = 0 and -3; S = S_ram + oo with T
    empty, {7} or {11, 13}, and below conductor 13 S = S_ram + 5 + oo with T
    empty, at r = 0..-4. The family "manifest" is the manifest's entries;
    4,610 instances in all."""
    families, small = {}, set(corpus_cm_specs(12))
    for spec in corpus_cm_specs(24):
        cases = families[spec.label] = []
        ram, choices = ramified_primes(spec), corpus_st_choices(spec)
        for S, T in choices:
            v = next(v for v in (11, 13, 17, 19, 23, 29, 31) if v not in {*S, *T} | ram)
            cases += [(spec, [*S, v], T, r) for r in (0, -1, -2, -3)]
        S, T = max(choices, key=lambda st: len(st[0]) + len(st[1]))
        cases += [(spec, S, t, r) for t in (T, []) for r in (0, -3)]
        cases += [(spec, [*sorted(ram), OO], t, r) for t in ([], [7], [11, 13])
                  if not set(t) & ram for r in RS]
        if spec in small and 5 not in ram:
            cases += [(spec, [*sorted(ram), 5, OO], [], r) for r in RS]
    families["manifest"] = [(e["spec"], e["S"], e["T"], e["r"]) for e in load_manifest(DATA)]
    return families


@pytest.mark.parametrize("family", [spec.label for spec in corpus_cm_specs(24)] + ["manifest"])
def test_theta_matches_the_fraction_route_on_the_corpus_and_the_manifest(family):
    """theta, and its plan applied to the presentation, equal the Fraction
    theta as rationals, and the integrality verdicts read its denominators.
    Each corpus family has integral and non-integral thetas; the manifest's
    are integral."""
    verdicts = set()
    for spec, S, T, r in corpus_cases()[family]:
        where = (spec.label, S, T, r)
        pres = galois_group(spec)
        ref = fraction_route.theta(pres, S, T, r)
        th = theta(spec, S, T, r)
        plan = theta_plan(*theta_places(spec, S, T, r), r)
        assert th.value == apply_plan(pres, plan) == as_pair(ref), where
        integral = all(c.denominator == 1 for c in ref)
        assert verify_integrality(th) == integral, where
        verdicts.add(integral)
        for p in PRIMES:
            assert is_p_integral(th.value, p) == all(c.denominator % p for c in ref), (where, p)
    assert verdicts == ({True} if family == "manifest" else {True, False})
