"""Outside-in span tracer for the iwasawa_kit benchmark.

The tracer wraps public functions and methods of the package from outside:
nothing under ``src/`` knows it exists. A wrapper replaces the defining
module's binding, every ``from ... import`` binding of the same object in the
other ``iwasawa_kit`` modules, and every alias of a method inside its class
(``__radd__ = __add__``). Spans (name, start, end, parent) are kept in flat
arrays in memory and reduced to per-layer totals when the run ends. A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from array import array
from collections import defaultdict
from functools import cached_property


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# --- counters recorded at layer boundaries ----------------------------------

def _count_howell(tracer, args, kwargs, result):
    rows = _arg(args, kwargs, 0, "rows")
    width = _arg(args, kwargs, 1, "width")
    tracer.add("linalg.howell.cells", len(rows) * width)


def _count_fitting_ideal(tracer, args, kwargs, result):
    module = args[0]
    n, k = module.ngens, len(module.relations)
    tracer.add("fitting.fitting_ideal.gens", n)
    tracer.add("fitting.fitting_ideal.relations", k)
    tracer.add("fitting.fitting_ideal.minors", math.comb(k, n) if 0 < n <= k else 0)


def _count_enumerate_span(tracer, args, kwargs, result):
    tracer.add("oracles.enumerate.elements", len(result))


def _count_certificate(tracer, args, kwargs, result):
    tracer.add("fitting.qp_certificate.attempted", 1)
    tracer.add("fitting.qp_certificate.accepted", 1 if result else 0)


def _key_gen_bernoulli(tracer, args, kwargs, result):
    chi = _arg(args, kwargs, 0, "chi")
    n = _arg(args, kwargs, 1, "n")
    tracer.key(
        "lvalues.gen_bernoulli",
        (chi.conductor, chi.order, tuple(sorted(chi.logs.items())), n),
    )


def _key_algebra_build(tracer, args, kwargs, result):
    p = _arg(args, kwargs, 1, "p")
    N = _arg(args, kwargs, 2, "N")
    group = _arg(args, kwargs, 3, "group")
    tracer.key("fitting.algebra_build", (p, N, tuple(group.orders)))


# (layer, module, attribute path, hook). The attribute path names a module
# function or "Class.method"; a target missing from the program is skipped
# and reported, so the benchmark keeps running across refactors.
TARGETS = (
    ("exact.cyclotomic", "exact", "CyclotomicInt.__add__", None),
    ("exact.cyclotomic", "exact", "CyclotomicInt.__sub__", None),
    ("exact.cyclotomic", "exact", "CyclotomicInt.__mul__", None),
    ("exact.cyclotomic", "exact", "CyclotomicInt.from_powers", None),
    ("exact.cyclotomic", "exact", "CyclotomicInt.galois", None),
    ("exact.cyclotomic", "exact", "CyclotomicInt.__eq__", None),
    ("exact.bernoulli", "exact", "bernoulli_polynomial", None),
    ("exact.bernoulli", "exact", "hurwitz_zeta_nonpos", None),
    ("exact.padic", "exact", "PadicInt.__add__", None),
    ("exact.padic", "exact", "PadicInt.__neg__", None),
    ("exact.padic", "exact", "PadicInt.__sub__", None),
    ("exact.padic", "exact", "PadicInt.__mul__", None),
    ("exact.padic", "exact", "PadicInt.__pow__", None),
    ("exact.padic", "exact", "PadicInt.unit_inverse", None),
    ("exact.padic", "exact", "padic_from_rational", None),
    ("abelian.component", "abelian", "CharacterTable.decompose", None),
    ("abelian.component", "abelian", "CharacterTable.component", None),
    ("groupring.mul", "groupring", "GroupRingElement.__mul__", None),
    ("lvalues.theta", "lvalues", "theta", None),
    ("lvalues.character_side", "lvalues", "theta_character_side", None),
    ("lvalues.character_side", "lvalues", "dirichlet_l_nonpos", None),
    ("lvalues.gen_bernoulli", "lvalues", "generalized_bernoulli", _key_gen_bernoulli),
    ("linalg.howell", "linalg", "howell_form", _count_howell),
    ("fitting.alg_mul", "fitting", "FiniteCommAlgebra.mul", None),
    ("fitting.algebra_build", "fitting", "GroupAlgebra.__init__", _key_algebra_build),
    ("fitting.fitting_ideal", "fitting", "FinPresModule.fitting_ideal", _count_fitting_ideal),
    ("fitting.ideal_cmp", "fitting", "IdealHandle.__eq__", None),
    ("fitting.ideal_cmp", "fitting", "IdealHandle.contains", None),
    ("fitting.subquotient", "fitting", "subquotient_presentation", None),
    ("fitting.qp_certificate", "fitting", "quadratic_presentation_certificate", _count_certificate),
    ("oracles.enumerate", "oracles", "enumerate_span", _count_enumerate_span),
    ("oracles.enumerate", "oracles", "enumerate_ideal", None),
    ("oracles.enumerate", "oracles", "ideal_member_oracle", None),
    ("complexes.cohomology", "complexes", "BoundedComplex.cohomology", None),
    ("complexes.cohomology", "complexes", "BoundedComplex.cohomology_size", None),
    ("complexes.cohomology", "complexes", "BoundedComplex.euler_fitting", None),
    ("complexes.cohomology", "complexes", "quasi_iso_check", None),
    ("tower.theta_tower", "tower", "theta_tower", None),
    ("tower.checks", "tower", "coherence_check", None),
    ("tower.checks", "tower", "twist_congruence_check", None),
    ("tower.checks", "tower", "parity_projector_annihilates", None),
    ("cli.main", "cli", "main", None),
)

OP = "op"


class Tracer:
    """Records nested spans and boundary counters while installed."""

    def __init__(self, package: str = "iwasawa_kit"):
        self.package = package
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)
        self.keys: dict[str, set] = defaultdict(set)
        self.key_calls: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._snapshot: dict = {}

    # -- spans and counters --------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, amount: int) -> None:
        self.counts[name] += amount

    def key(self, layer: str, key) -> None:
        self.key_calls[layer] += 1
        self.keys[layer].add(key)

    # -- installing and removing wrappers -------------------------------------

    def _wrap(self, fn, layer: str, hook):
        nid = self.name_id(layer)
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(idx)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def _package_modules(self):
        return [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == self.package or name.startswith(self.package + "."))
        ]

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _bindings(self, targets) -> dict:
        """vars() of every package module and of every target class."""
        owners = self._package_modules()
        for _, modname, path, _ in targets:
            module = sys.modules.get(f"{self.package}.{modname}")
            owner = getattr(module, path.rpartition(".")[0], None) if "." in path else None
            if isinstance(owner, type):
                owners.append(owner)
        return {id(owner): (owner, dict(vars(owner))) for owner in owners}

    def install(self, targets=TARGETS) -> None:
        modules = {}
        for _, modname, _, _ in targets:
            try:
                modules[modname] = importlib.import_module(f"{self.package}.{modname}")
            except ImportError:
                pass
        self._snapshot = self._bindings(targets)
        for layer, modname, path, hook in targets:
            module = modules.get(modname)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or attr not in vars(owner):
                self.missing.append(f"{modname}.{path}")
                continue
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, layer, hook))
            elif isinstance(raw, cached_property):
                new = cached_property(self._wrap(raw.func, layer, hook))
                new.__set_name__(owner, attr)
            elif callable(raw):
                new = self._wrap(raw, layer, hook)
            else:
                self.missing.append(f"{modname}.{path}")
                continue
            if owner is module:
                # the function itself, and every module that imported it by name
                for mod in self._package_modules():
                    for name, value in list(vars(mod).items()):
                        if value is raw:
                            self._patch(mod, name, new)
            else:
                # the method, and its aliases inside the class
                for name, value in list(vars(owner).items()):
                    if value is raw:
                        self._patch(owner, name, new)

    def uninstall(self) -> dict:
        """Restore every binding and report the self-checks: each module and
        target class holds exactly the objects it held before ``install``,
        and every span was closed."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        restored = all(
            vars(owner).keys() == before.keys()
            and all(vars(owner)[k] is v for k, v in before.items())
            for owner, before in self._snapshot.values()
        )
        closed = self._stack == [-1] and all(self.span_end)
        return {"bindings_restored": restored, "spans_closed": closed}

    # -- reduction ------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += dur[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.span_name[i]]]
            row["calls"] += 1
            row["total_s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
        return out
