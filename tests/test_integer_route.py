"""The integer route of Q[G] in lvalues against the Fraction route of
fraction_route.py: partial zeta vectors, delta_T and theta are equal as
rationals, the integrality verdicts agree, and every theta_tower entry is the
Fraction theta of its level reduced one coefficient at a time. The partial
zeta values are read off theta_value with T empty, through #; delta_T on its
own is computed from the T factors of the reference route (theta_reference),
which theta_value must equal."""

import fraction_route
import pytest
from fraction_route import as_pair, reduce_mod
from theta_reference import t_factors, times_one_minus

from iwasawa_kit.abelian import AbelianFieldSpec, galois_group, normalize_places
from iwasawa_kit.campaigns import TOWER_CORPUS, corpus_cm_specs, corpus_st_choices
from iwasawa_kit.groupring import sharp
from iwasawa_kit.lvalues import (
    is_p_integral,
    theta,
    theta_places,
    theta_value,
    verify_integrality,
)
from iwasawa_kit.tower import theta_tower

PRIMES = (2, 3, 5, 7, 11, 13)


def delta_t(spec, T, r: int) -> tuple[tuple[int, ...], int]:
    """delta_T(r) = prod_{v in T} (1 - v^(1-r) sigma_v^(-1)) in Z[G], as (nums, 1),
    through the T factors and the shift-and-subtract of the reference route.
    T is only parsed: a ramified prime of T is refused by frobenius."""
    pres = galois_group(spec)
    grp = pres.group
    out = tuple(int(g == grp.identity) for g in grp.elements())
    for sigma, c in t_factors(pres, normalize_places(T)[0], r):
        out = times_one_minus(out, grp, sigma, c)
    return out, 1


def test_delta_t_examples():
    Z3, Z5 = AbelianFieldSpec.cyclotomic(3), AbelianFieldSpec.cyclotomic(5)
    grp3 = galois_group(Z3).group
    one3 = tuple(int(g == grp3.identity) for g in grp3.elements())
    assert delta_t(Z3, [], 0) == (one3, 1)
    assert delta_t(Z3, [7], 0) == (tuple(-6 * c for c in one3), 1)
    gal5 = galois_group(Z5)
    sigma3 = gal5.element_of(3)
    expect = tuple(
        int(g == gal5.group.identity) - 2 * int(g == sigma3) for g in gal5.group.elements()
    )
    assert delta_t(Z5, [2], 0) == (expect, 1)
    with pytest.raises(ValueError, match="3 ramifies"):
        delta_t(Z3, [3], 0)


def corpus_items():
    """(spec, S, T) per CM spec of conductor <= 24: the corpus choice with the
    most places, so Euler and T-factors both act, and the same S with T empty,
    whose theta has denominators."""
    for spec in corpus_cm_specs(24):
        S, T = max(corpus_st_choices(spec), key=lambda st: len(st[0]) + len(st[1]))
        yield spec, S, T
        yield spec, S, []


def test_integer_route_matches_fraction_route_on_the_corpus():
    verdicts = set()
    for spec, S, T in corpus_items():
        for r in (0, -3):
            where = (spec.label, S, T, r)
            s_fin, _ = theta_places(spec, S, T, r)
            pres = galois_group(spec)
            assert theta_value(pres, s_fin, set(), r) == as_pair(
                sharp(fraction_route.partial_zeta_vector(spec, S, r), pres.group)
            ), where
            assert delta_t(spec, T, r) == as_pair(fraction_route.delta_t(spec, T, r)), where
            th = theta(spec, S, T, r)
            ref = fraction_route.theta(spec, S, T, r)
            assert th.value == as_pair(ref), where
            integral = all(c.denominator == 1 for c in ref)
            assert verify_integrality(th) == integral, where
            verdicts.add(integral)
            for p in PRIMES:
                assert is_p_integral(th.value, p) == all(c.denominator % p for c in ref), (where, p)
    assert verdicts == {True, False}


@pytest.mark.parametrize(
    "spec, p, S, T", TOWER_CORPUS, ids=[f"{s.label}-p{p}-T{T}" for s, p, _, T in TOWER_CORPUS]
)
def test_theta_tower_matches_fraction_route(spec, p, S, T):
    N, n_max = 3, 2  # the precision and depth of the AC3/AC4 campaigns
    for r in (0, -1, -2, -3):
        t = theta_tower(spec, S, T, p, N, n_max, r)
        for lvl, entry in zip(t.levels, t.entries):
            assert entry == reduce_mod(fraction_route.theta(lvl, S, T, r), p, N), (lvl.n, r)
