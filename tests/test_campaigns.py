"""Campaign-level tests: determinism, corpus pinning, oracle usage."""

import json
from pathlib import Path

import pytest
from algebra_helpers import fresh_zeta_tables

from iwasawa_kit import cli, fitting, lvalues
from iwasawa_kit.campaigns import (
    MAX_DRAWS,
    _draw_until,
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
    run_trials,
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


def test_the_annihilation_oracle_does_not_read_the_checkers_matrix(monkeypatch):
    """With theta_matrix, the matrix the checker reduces, faulted to zero, the
    checker says "annihilates" everywhere; the oracle, which acts on each
    module element itself, disagrees on the two modules theta does not kill."""
    def zero(self, nums):
        return [[0] * len(self.orders) for _ in self.orders]

    monkeypatch.setattr(lvalues.ClassModuleData, "theta_matrix", zero)
    result = annihilation_campaign(load_manifest(DATA))
    prefix = "annihilation oracle mismatch: "
    assert {d[len(prefix):].split(" (")[0] for d in result.details if d.startswith(prefix)} == {
        "synthetic_z3_quadratic.json", "synthetic_mixed_z3.json"}
    assert result.failures == 2


# ---------------------------------------------------------------------------
# The trial loop: a trial that raises is a recorded failure, and a rejection
# draw that finds nothing fails its trial instead of hanging.

def test_a_trial_that_raises_is_one_failure_and_the_loop_goes_on():
    ran = []

    def trial(rng, t):
        ran.append(t)
        yield True, "never shown"
        if t == 1:
            raise ZeroDivisionError("boom")
        yield t != 2, "third trial fails"

    res = run_trials("raising", 2026, 3, trial)
    assert ran == [0, 1, 2]
    assert (res.trials, res.failures) == (6, 2) and not res.ok
    assert res.details == [
        "ZeroDivisionError: boom (seed 2026, trial 1)",
        "third trial fails (seed 2026, trial 2)",
    ]


def test_memory_error_is_not_a_recorded_failure():
    def trial(rng, t):
        raise MemoryError
        yield

    with pytest.raises(MemoryError):
        run_trials("out of memory", 0, 1, trial)


def test_a_rejection_draw_is_bounded():
    draws = []
    with pytest.raises(RuntimeError, match="no acceptable draw"):
        _draw_until(lambda: draws.append(0), lambda x: False)
    assert len(draws) == MAX_DRAWS


def test_selftest_records_a_sign_fault_in_the_partial_zeta_values(tmp_path, monkeypatch, capsys):
    """One flipped sign, in the partial zeta value of the residue 1, makes
    theta non-integral and the towers refuse to build: each suite records its
    failing trials, and selftest exits 3 with a certificate instead of
    refusing. The tables are built afresh from the flipped values."""
    original = lvalues._zeta_numerators

    def flipped(f, k):
        den, values = original(f, k)
        return den, (-values[0],) + values[1:]

    monkeypatch.setattr(lvalues, "_zeta_numerators", flipped)
    fresh_zeta_tables(monkeypatch)
    out = tmp_path / "selftest.json"
    code = cli.main(["selftest", "--max-conductor", "8", "--trials", "6",
                     "--complex-trials", "4", "--out", str(out)])
    capsys.readouterr()
    assert code == cli.EXIT_CHECK_FAILED
    suites = {s["name"]: s for s in json.loads(out.read_text())["result"]["suites"]}
    failing = {name for name, s in suites.items() if s["failures"]}
    assert failing == {"stickelberger integrality under Hyp", "character cross-validation",
                       "tower coherence", "equivariant Kummer congruence",
                       "tower fitting consistency"}
    assert all(s["ok"] for name, s in suites.items() if name not in failing)
    assert any("TowerIntegralityError" in d for d in suites["tower coherence"]["details"])


def test_a_howell_fault_fails_the_four_term_draws_instead_of_hanging(monkeypatch):
    """The Howell form that fitting.py sees drops the last row of every form
    of more than two rows, so most certified draws find no acceptable
    presentation (an unbounded draw would loop forever)."""
    original = fitting.howell_form

    def dropped(rows, width, q):
        H = original(rows, width, q)
        return H[:-1] if len(H) > 2 else H

    monkeypatch.setattr(fitting, "howell_form", dropped)
    res = fitting_four_term_campaign(2029, 6)
    assert res.trials == 6 and res.failures > 0
    assert all("(seed 2029, trial " in d for d in res.details)
    assert any(d.startswith("RuntimeError: no acceptable draw") for d in res.details)
