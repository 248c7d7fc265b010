"""The work ledger: Howell-form calls and cells over fixed campaign slices,
compared with committed counts. A change that brings back eliminations the
kit no longer needs (the width-27 forms of the tower's level-Fitting check,
the forms of ideals a unit generator makes whole, cohomology presented on
every Howell row of Z) fails here; a change that moves a count updates the
table in the same commit and says why in CHANGES.md. Cells are rows times
width of each form's input, as the benchmark tracer counts them."""

import sys

import pytest

from iwasawa_kit import campaigns, linalg

# (slice, its run giving whether every suite passed, (howell_form calls, cells))
LEDGER = [
    ("tower_fitting_campaign()", lambda: campaigns.tower_fitting_campaign().ok, (0, 0)),
    ("fitting_multiplicativity_campaign(2026, 60)",
     lambda: campaigns.fitting_multiplicativity_campaign(2026, 60).ok, (70, 4049)),
    ("complex_campaigns(2026, 20)",
     lambda: all(r.ok for r in campaigns.complex_campaigns(2026, 20)), (2746, 19078)),
]


@pytest.mark.parametrize("run, expected", [pytest.param(r, e, id=name) for name, r, e in LEDGER])
def test_howell_work_matches_the_ledger(run, expected, monkeypatch):
    original, counts = linalg.howell_form, [0, 0]

    def counted(rows, width, q):
        counts[0] += 1
        counts[1] += len(rows) * width
        return original(rows, width, q)

    # every binding of the function in the package, as the tracer patches it
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("iwasawa_kit") and getattr(module, "howell_form", None) is original:
            monkeypatch.setattr(module, "howell_form", counted)
    assert run()
    assert tuple(counts) == expected
