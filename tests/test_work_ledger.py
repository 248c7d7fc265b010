"""The work ledger: Howell-form calls and cells over fixed campaign slices,
compared with committed counts. A change that brings back eliminations the
kit no longer needs (the width-27 forms of the tower's level-Fitting check,
the forms of ideals a unit generator makes whole, cohomology presented on
every Howell row of Z) fails here; a change that moves a count updates the
table in the same commit and says why in CHANGES.md. Cells are rows times
width of each form's input, as the benchmark tracer counts them. The corpus
set-up slice counts the Hyp checks and subgroup products that build the CM
corpus and its (S, T) choices. The manifest slice counts the minus
quotients that reading the data and checking it build. The theta slice counts
the tables of partial zeta values, the factor plans applied and the
lowest_terms passes of the tower campaigns' thetas, and the plan slice the
factor plans those towers build. The character slice counts the Euler and
T-factor passes of the character route and the CyclotomicInt values both routes build, and
the character builds slice the character tuples and unit groups that the
route's tables build over the CM corpus. The product slice counts the group-algebra products of the complex campaigns,
and the subquotient slice the presentations those campaigns find in their
algebras' tables and the ones they present. A module with no relation rows
takes no Howell form."""

from pathlib import Path

import pytest
from functools import lru_cache

from algebra_helpers import fresh_zeta_tables, patch_every_binding

from iwasawa_kit import abelian, campaigns, exact, fitting, linalg, lvalues, tower
from iwasawa_kit.abelian import cm_data, galois_group

DATA = Path(__file__).resolve().parent.parent / "data"

# (slice, its run giving whether every suite passed, (howell_form calls, cells))
LEDGER = [
    ("tower_fitting_campaign()", lambda: campaigns.tower_fitting_campaign().ok, (0, 0)),
    ("fitting_multiplicativity_campaign(2026, 60)",
     lambda: campaigns.fitting_multiplicativity_campaign(2026, 60).ok, (70, 4049)),
    ("complex_campaigns(2026, 20)",
     lambda: all(r.ok for r in campaigns.complex_campaigns(2026, 20)), (1137, 10728)),
]


@pytest.mark.parametrize("run, expected", [pytest.param(r, e, id=name) for name, r, e in LEDGER])
def test_howell_work_matches_the_ledger(run, expected, monkeypatch):
    original, counts = linalg.howell_form, [0, 0]

    def counted(rows, width, q):
        counts[0] += 1
        counts[1] += len(rows) * width
        return original(rows, width, q)

    patch_every_binding(monkeypatch, (original,), counted)
    assert run()
    assert tuple(counts) == expected


# GroupAlgebra.mul calls over complex_campaigns(2026, 20). Nakayama's J*z
# over a group algebra takes no product (GroupAlgebra.radical_multiples);
# forming each j*z as a product made 2,800, and presenting each subquotient
# again on every call 781.
GROUP_ALGEBRA_PRODUCTS = 777


def test_group_algebra_products_match_the_ledger(monkeypatch):
    original, calls = fitting.GroupAlgebra.mul, [0]

    def counted(self, x, y):
        calls[0] += 1
        return original(self, x, y)

    monkeypatch.setattr(fitting.GroupAlgebra, "mul", counted)
    patch_every_binding(monkeypatch, (original,), counted)  # any module-level alias
    assert all(r.ok for r in campaigns.complex_campaigns(2026, 20))
    assert calls[0] == GROUP_ALGEBRA_PRODUCTS


# (subquotient_presentation calls answered by the algebra's table, calls
# presented) over complex_campaigns(2026, 20). Presenting on every call
# made (0, 370).
SUBQUOTIENT_TABLE = (290, 80)


def test_subquotient_table_hits_match_the_ledger(monkeypatch):
    table, present = fitting.subquotient_presentation, fitting.present_subquotient
    calls, misses = [0], [0]

    def counted_call(*args):
        calls[0] += 1
        return table(*args)

    def counted_miss(*args):
        misses[0] += 1
        return present(*args)

    patch_every_binding(monkeypatch, (table,), counted_call)
    monkeypatch.setattr(fitting, "present_subquotient", counted_miss)
    assert all(r.ok for r in campaigns.complex_campaigns(2026, 20))
    assert (calls[0] - misses[0], misses[0]) == SUBQUOTIENT_TABLE


# (check_hyp calls, subgroup products HC) over corpus_cm_specs(24) and the
# corpus_st_choices of each of its specs. The builders these replaced made
# 2,304 Hyp checks (every T subset, 1,232 of them meeting S) and 4,745
# subgroup closures (every set of 1 to 3 units).
CORPUS_SETUP = (1072, 296)


def test_corpus_setup_work_matches_the_ledger(monkeypatch):
    counts = [0, 0]

    def counted(i, fn):
        def wrapper(*args):
            counts[i] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(campaigns, "check_hyp", counted(0, campaigns.check_hyp))
    monkeypatch.setattr(campaigns, "_subgroup_product", counted(1, campaigns._subgroup_product))
    assert all(campaigns.corpus_st_choices(spec) for spec in campaigns.corpus_cm_specs(24))
    assert tuple(counts) == CORPUS_SETUP


# minus_quotient builds over load_manifest(data) and annihilation_campaign,
# the table of minus quotients cleared first: one per (G, j, p, N) among the
# five manifest entries, as lvalues.minus_dual_presentation reads the
# quotient from that table and the campaign reads the dual verify_case built.
# Q(zeta_3) and Q(sqrt(-23)) have one group C2 and one j, so the entries
# over Q(zeta_3) at N = 2 and over Q(sqrt(-23)) share a quotient. One build
# per entry made 5, and rebuilding each to check membership made 10.
MANIFEST_MINUS_QUOTIENTS = 3


def test_manifest_builds_one_minus_quotient_per_group_algebra(monkeypatch):
    original, builds = fitting.minus_quotient, []

    def counted(*args):
        builds.append(args)
        return original(*args)

    lvalues._minus_algebra.cache_clear()
    patch_every_binding(monkeypatch, (original,), counted)
    entries = campaigns.load_manifest(DATA)
    assert campaigns.annihilation_campaign(entries).ok
    algebras = {(galois_group(e["spec"]).group, cm_data(e["spec"]).j, e["p"], e["N"])
                for e in entries}
    assert len(entries) == 5
    assert len(builds) == len(algebras) == MANIFEST_MINUS_QUOTIENTS


# (tables of partial zeta values built, factor plans applied, lowest_terms
# calls in lvalues) over tower_coherence_campaign() and
# kummer_congruence_campaign(): one table per (level, k) of the 12 levels
# n <= 2 of TOWER_CORPUS's four base fields at k = 1..4, and one plan
# application and one lowest_terms per level a tower computes (an earlier
# route ran two lowest_terms per level).
THETA_TABLES = (48, 168, 168)


def test_theta_tables_match_the_ledger(monkeypatch):
    tables = fresh_zeta_tables(monkeypatch)
    calls = {"apply_plan": 0, "lowest_terms": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    patch_every_binding(monkeypatch, (lvalues.apply_plan,),
                        counted("apply_plan", lvalues.apply_plan))
    monkeypatch.setattr(lvalues, "lowest_terms", counted("lowest_terms", lvalues.lowest_terms))
    assert campaigns.tower_coherence_campaign().ok
    assert campaigns.kummer_congruence_campaign().ok
    builds = tables.cache_info().misses
    assert (builds, calls["apply_plan"], calls["lowest_terms"]) == THETA_TABLES


# (theta_tower calls, factor plans built) over tower_coherence_campaign() and
# kummer_congruence_campaign(): one plan per tower, read by all its levels
# (a plan per level made 168).
TOWER_PLANS = (56, 56)


def test_one_factor_plan_per_tower(monkeypatch):
    calls = {"theta_tower": 0, "theta_plan": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, name in ((tower, "theta_tower"), (lvalues, "theta_plan")):
        original = getattr(module, name)
        patch_every_binding(monkeypatch, (original,), counted(name, original))
    assert campaigns.tower_coherence_campaign().ok
    assert campaigns.kummer_congruence_campaign().ok
    assert (calls["theta_tower"], calls["theta_plan"]) == TOWER_PLANS


# (lvalues._one_minus passes, CyclotomicInt constructions) over
# character_campaign(8). An L-value that is zero takes no Euler or T-factor
# pass (applying every factor to every character made 5,046 passes).
CHARACTER_ROUTE = (3877, 3492)


def test_character_route_work_matches_the_ledger(monkeypatch):
    counts = [0, 0]
    one_minus, init = lvalues._one_minus, exact.CyclotomicInt.__init__

    def counted_one_minus(*args):
        counts[0] += 1
        return one_minus(*args)

    def counted_init(self, *args):
        counts[1] += 1
        init(self, *args)

    monkeypatch.setattr(lvalues, "_one_minus", counted_one_minus)
    monkeypatch.setattr(exact.CyclotomicInt, "__init__", counted_init)
    assert campaigns.character_campaign(8).ok
    assert tuple(counts) == CHARACTER_ROUTE


# (abelian.dirichlet_characters builds, abelian._unit_group builds) over
# character_campaign(24), every cache the count passes through fresh: one
# tuple of characters per presentation (the 36 fields of corpus_cm_specs(24))
# and one unit group with its dlog table per modulus (the 17 conductors they
# share). Primitivizing per label built 214 characters, and galois_group read
# the unit group of each of the 36 specs.
CHARACTER_BUILDS = (36, 17)


def test_character_builds_match_the_ledger(monkeypatch):
    def fresh(fn):
        cached = lru_cache(maxsize=None)(fn.__wrapped__)
        patch_every_binding(monkeypatch, (fn,), cached)
        return cached

    fresh(abelian.galois_group)
    fresh(lvalues._l_table)
    characters = fresh(abelian.dirichlet_characters)
    unit_groups = fresh(abelian._unit_group)
    assert campaigns.character_campaign(24).ok
    assert (characters.cache_info().misses, unit_groups.cache_info().misses) == CHARACTER_BUILDS
