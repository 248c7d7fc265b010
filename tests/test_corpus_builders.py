"""The former corpus builders, kept as oracles of the fast ones: the
subgroups of (Z/f)^x found by closing every set of 1 to 3 units, and the
(S, T) choices that filter every subset of the T pool through Hyp. The
corpus and its (S, T) lists agree with them wherever the closure finds
every subgroup; the labels are new and are checked on their own."""

import itertools
from collections import Counter

import pytest

from iwasawa_kit.abelian import AbelianFieldSpec, check_hyp, conductor, ramified_primes
from iwasawa_kit.campaigns import corpus_cm_specs, corpus_st_choices, unit_subgroups
from iwasawa_kit.numutil import unit_residues

OO = "oo"


def closure_subgroups(f):
    """The subgroups of (Z/f)^x generated by at most 3 units, each found by
    a breadth-first closure of its generators."""
    subgroups = set()
    for gens in itertools.chain(*(itertools.combinations(unit_residues(f), k) for k in (1, 2, 3))):
        sub, frontier = {1 % f}, [1 % f]
        for a in frontier:
            for g in gens:
                b = a * g % f
                if b not in sub:
                    sub.add(b)
                    frontier.append(b)
        subgroups.add(frozenset(sub))
    return subgroups


def closure_corpus(max_conductor):
    """(modulus, fixing) of each CM field of conductor <= bound, from the
    closure subgroups, in (f, |H|, sorted H) order."""
    out = []
    for f in range(3, max_conductor + 1):
        if f % 4 == 2:
            continue
        for H in sorted(closure_subgroups(f), key=lambda s: (len(s), sorted(s))):
            if (-1) % f not in H and conductor(AbelianFieldSpec(f, H))[0] == f:
                out.append((f, H))
    return out


def filtered_st_choices(spec, t_pool=(2, 5, 7, 11, 13)):
    """Every subset of the pool as T, for each S, kept when it misses S and
    Hyp holds."""
    ram = sorted(ramified_primes(spec))
    extra = next(p for p in (2, 3, 5, 7, 11, 13, 17) if p not in ram)
    subsets = [T for k in range(len(t_pool) + 1) for T in itertools.combinations(t_pool, k)]
    return [
        (S, list(T)) for S in ([*ram, OO], sorted([*ram, extra]) + [OO]) for T in subsets
        if not set(S) & set(T) and check_hyp(spec, S, list(T))[0]
    ]


def is_subgroup(H, f):
    return 1 in H and all(a * b % f in H for a in H for b in H)


@pytest.mark.parametrize("bound", [3, 8, 12, 24])
def test_corpus_matches_the_closure_builder(bound):
    assert [(s.modulus, s.fixing) for s in corpus_cm_specs(bound)] == closure_corpus(bound)


def test_subgroups_match_the_closure_below_41():
    """Up to 40 every subgroup of (Z/f)^x has at most 3 generators."""
    for f in range(3, 41):
        assert unit_subgroups(f) == closure_subgroups(f), f


@pytest.mark.parametrize("f, extra", [(120, 2), (168, 2)])
def test_subgroups_needing_four_generators_contain_minus_one(f, extra):
    """(Z/120)^x and (Z/168)^x have 2-rank 4: the new builder finds the
    subgroups that need 4 generators too, and each holds -1, so no CM field
    is added there."""
    subgroups, closure = unit_subgroups(f), closure_subgroups(f)
    assert all(is_subgroup(H, f) for H in subgroups)
    assert closure < subgroups and len(subgroups - closure) == extra
    assert all(f - 1 in H for H in subgroups - closure)


@pytest.mark.parametrize("pool", [(2, 5, 7, 11, 13), (2, 3, 13, 17, 29)], ids=["default", "other"])
def test_st_choices_match_the_filter_over_every_subset(pool):
    specs = corpus_cm_specs(24)
    assert len(specs) == 36
    for spec in specs:
        assert corpus_st_choices(spec, pool) == filtered_st_choices(spec, pool), spec.label


@pytest.mark.parametrize("bound", [24, 48])
def test_corpus_labels_are_unique(bound):
    specs = corpus_cm_specs(bound)
    assert len({s.label for s in specs}) == len(specs)
    sizes = Counter((s.modulus, len(s.fixing)) for s in specs)
    k = Counter()
    for s in specs:
        key = (s.modulus, len(s.fixing))
        label = f"f{s.modulus}#{len(s.fixing)}"
        if sizes[key] > 1:
            k[key] += 1
            label += f".{k[key]}"
        assert s.label == label


def test_the_conductor_24_quadratic_twins_have_their_own_labels():
    twins = {s.label: sorted(s.fixing) for s in corpus_cm_specs(24)
             if s.modulus == 24 and len(s.fixing) == 2}
    assert twins == {"f24#2.1": [1, 5], "f24#2.2": [1, 7], "f24#2.3": [1, 11], "f24#2.4": [1, 19]}
