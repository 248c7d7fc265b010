"""Campaign-level tests: determinism, corpus pinning, oracle usage."""

from pathlib import Path

from iwasawa_kit.campaigns import (
    annihilation_campaign,
    corpus_cm_specs,
    corpus_st_choices,
    exact_arith_campaign,
    fields_campaign,
    fitting_four_term_campaign,
    fitting_multiplicativity_campaign,
    howell_campaign,
    integrality_campaign,
    load_manifest,
)
from iwasawa_kit.abelian import AbelianFieldSpec, check_hyp

DATA = Path(__file__).resolve().parent.parent / "data"


def test_corpus_contains_the_small_cm_fields():
    specs = corpus_cm_specs(8)
    labels = {(s.modulus, frozenset(s.fixing)) for s in specs}
    assert (3, frozenset({1})) in labels  # Q(zeta_3)
    assert (4, frozenset({1})) in labels  # Q(i)
    assert (5, frozenset({1})) in labels  # Q(zeta_5)
    assert (7, frozenset({1})) in labels  # Q(zeta_7)
    assert (7, frozenset({1, 2, 4})) in labels  # Q(sqrt(-7))
    assert (8, frozenset({1})) in labels
    # no totally real spec sneaks in
    for s in specs:
        assert (-1) % s.modulus not in s.fixing


def test_st_choices_respect_hyp():
    spec = AbelianFieldSpec.cyclotomic(3)
    pairs = corpus_st_choices(spec)
    assert pairs, "corpus must be nonempty"
    for S, T in pairs:
        ok, why = check_hyp(spec, S, T)
        assert ok, why
        assert T, "empty T never satisfies Hyp"
    # both S variants appear
    assert {tuple(S) for S, _ in pairs} == {(3, "oo"), (2, 3, "oo")}


def test_campaign_determinism():
    a = fitting_multiplicativity_campaign(314, 12)
    b = fitting_multiplicativity_campaign(314, 12)
    assert (a.trials, a.failures) == (b.trials, b.failures)
    c = fitting_four_term_campaign(314, 9)
    d = fitting_four_term_campaign(314, 9)
    assert (c.trials, c.failures) == (d.trials, d.failures)
    assert c.ok and a.ok


def test_small_campaigns_pass():
    assert exact_arith_campaign(0).ok
    assert fields_campaign(0).ok
    assert howell_campaign(0, trials=40).ok
    assert integrality_campaign(8).ok
    assert annihilation_campaign(load_manifest(DATA)).ok
