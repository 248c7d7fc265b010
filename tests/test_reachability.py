"""The kit is what its commands and its benchmark run, down to each `raise`.

A fresh interpreter installs `sys.setprofile` before it imports the package,
so code that runs at import time counts. It then runs a fixed corpus through
`cli.main`: the README's CLI block with small trial counts, `complex --data`
on both committed complexes, the replay of a tower from its own certificate,
`recheck` of each fresh certificate and of the committed certificates (and
of the fitting certificate with its `seconds` rewritten or a verdict
flipped, as CI runs them), the refusals that exit 2 and 4 (the table of
`tests/cli_refusals.py`, which `tests/test_cli.py` checks too), and one
round of each benchmark workload at seed 1, built by
`perfbench/workloads.py` (the benchmark is a client of the
kit).

Every top-level function and class method of `src/` whose code object was
never entered is named, as `module.Class.method`: dunders, properties,
cached properties and the functions under `lru_cache` included. There is no
allowlist. A definition that only the tests run belongs in `tests/`, and one
that only a rare input reaches gets a corpus entry that reaches it.
Definitions are matched by the identity of their code objects, read from the
live module and class objects, so an alias (`__radd__ = __add__`) is one
definition and a name that other code shares hides nothing.

Every `raise` statement of `src/` (read from the AST) that the refusals and
the workloads never raised is named too, as the definition that holds it,
unless ALLOWED lists it. They run under `sys.settrace` as well, which goes
on only in frames of `src/` files, with line events off, and records the
line of each "exception" event (a raise, or an exception passing through)
and of each frame that returns None, which is where a bare re-raise leaves
its frame without an event of its own. A `raise` counts as raised when a
recorded line falls inside it. The README block runs accepted inputs and
raises nothing, so it runs untraced: a trace function makes every frame pay
for line bookkeeping, and the block is most of the corpus's time. A raise
that only it reached would be named, not missed. A refusal that an input can
reach gets a row of the refusal table; a check that restates a rule every
caller already keeps goes; ALLOWED holds only the checks that catch a fault
of the kit's own computation, which no input can provoke.

The corpus runs in a child interpreter so that no earlier test has imported
the package or filled its caches.
"""

import ast
import collections
import contextlib
import functools
import importlib
import inspect
import io
import json
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "iwasawa_kit"
DATA = ROOT / "data"
FIXTURES = ROOT / "tests" / "fixtures"
# recheck of this certificate takes seconds and reaches nothing new
SLOW_FIXTURE = "fitting_seed3_cert.json"

# The raises of src/ that no input reaches, one line each: the definition that
# holds it and the fault of the kit's own computation that it catches.
ALLOWED = (
    ("abelian.conductor", "a kernel test that fails at f = m, where it always holds"),
    ("abelian.GaloisData.__init__", "a classification that misses a class of the group"),
    ("abelian.galois_group", "a Smith form of a finite quotient with a zero invariant factor"),
    ("abelian.CharacterTable.reconstruct", "a decompose whose components no element has"),
    ("numutil.primitive_root", "an order test that finds no generator of a cyclic group"),
    ("exact.CyclotomicInt.__eq__", "a value compared with a number, else silently False"),
    ("campaigns.run_trials", "a trial out of memory, for main to refuse, not to count"),
    ("campaigns._draw_until", "a faulty acceptance test that no draw passes, not a hang"),
    ("fitting.AlgebraMorphism.check_homomorphism", "a campaign's morphism that loses 1"),
    ("fitting.AlgebraMorphism.check_homomorphism", "a campaign's morphism that breaks products"),
    ("fitting.pontryagin_dual", "a campaign's algebra whose trace form may be degenerate"),
    ("fitting.four_term_check", "a kernel or cokernel map of a campaign, not well defined"),
    ("fitting.four_term_check", "a campaign's four-term sequence that is not exact"),
    ("complexes.ChainMap.validate", "a chain map level that is not well defined"),
    ("complexes.ChainMap.validate", "a chain map that does not commute with d"),
    ("complexes.ComplexSES.verify_exact", "an extension's sequence that is not exact"),
)


def code_objects(obj):
    """The code objects a class attribute or module global defines: a function
    (through any `functools.wraps` wrapper, such as `lru_cache`), the accessors
    of a property, the function of a cached property, classmethod or
    staticmethod."""
    if isinstance(obj, property):
        parts = (obj.fget, obj.fset, obj.fdel)
    elif isinstance(obj, functools.cached_property):
        parts = (obj.func,)
    elif isinstance(obj, (classmethod, staticmethod)):
        parts = (obj.__func__,)
    else:
        parts = (obj,)
    for part in parts:
        part = inspect.unwrap(part)
        if isinstance(part, types.FunctionType):
            yield part.__code__


def definitions(module) -> dict:
    """{code object: name} of each top-level function and class method that
    the module's own file defines; an alias keeps its first name."""
    found = {}
    for name, obj in vars(module).items():
        members = vars(obj).items() if isinstance(obj, type) else [("", obj)]
        for attr, member in members:
            for code in code_objects(member):
                if code.co_filename == module.__file__:
                    found.setdefault(code, ".".join(filter(None, (module.__name__, name, attr))))
    return found


def unentered(modules, entered) -> list:
    """The names of the definitions of modules whose code was never entered."""
    return sorted(name for module in modules
                  for code, name in definitions(module).items() if code not in entered)


def raise_sites(directory: Path) -> list[tuple[str, str, int, int]]:
    """(file, definition, first line, last line) of every raise statement of
    the .py files in directory; the definition is `module.Class.method`, or
    the module alone at its top level."""
    sites = []

    def visit(path, node, names):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise):
                sites.append((str(path), ".".join(names), child.lineno, child.end_lineno))
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(path, child, [*names, child.name] if named else names)

    for path in sorted(directory.glob("*.py")):
        visit(path, ast.parse(path.read_text()), [path.stem])
    return sites


def unraised(sites, lines) -> list[tuple[str, int]]:
    """(definition, first line) of each raise site none of whose lines is in
    the recorded (file, line) pairs."""
    return [(name, first) for path, name, first, last in sites
            if not any((path, line) in lines for line in range(first, last + 1))]


@contextlib.contextmanager
def recording():
    """The set of code objects entered while the block runs."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        yield entered
    finally:
        sys.setprofile(None)


@contextlib.contextmanager
def raising(directory: Path):
    """The set of (file, line) pairs at which, while the block runs and in a
    frame of a file under directory, an exception was raised or passed
    through, or the frame returned None. Only those frames are traced, and
    with no line events."""
    lines, prefix = set(), str(directory)

    def local(frame, event, arg):
        if event == "exception" or (event == "return" and arg is None):
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            frame.f_trace_lines = False
            return local
        return None

    sys.settrace(call)
    try:
        yield lines
    finally:
        sys.settrace(None)


# ---------------------------------------------------------------------------
# The corpus, run in the child interpreter.

def cli(*argv, want=0):
    """Run argv through cli.main, check its exit code and return what it
    printed: the certificate, or the one JSON error of a refusal."""
    from iwasawa_kit.cli import main

    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main([str(a) for a in argv])
    assert code == want, (argv, code, want, err.getvalue()[-500:])
    return json.loads(out.getvalue()) if code in (0, 3) else json.loads(err.getvalue())


def readme_block(tmp: Path):
    """The README's CLI block with small trial counts, each certificate
    rechecked, the tower replayed from its own result, and the fitting
    certificate rechecked with its timings rewritten and with a verdict
    flipped."""
    tower = ("--spec", "zeta5", "--S", "5,oo", "--T", "2", "--r", "-1", "--p", "5", "--N", "2",
             "--levels", "2")
    runs = {
        "theta": ("theta", "--spec", "zeta3", "--S", "3,oo", "--T", "7", "--r", "0"),
        "tower": ("tower", *tower),
        "verify": ("verify", "--spec", "zeta23", "--S", "23,oo", "--T", "5", "--r", "0",
                   "--p", "3", "--N", "2", "--data", DATA / "table_z23_minus.json"),
        "fitting": ("fitting", "--seed", "0", "--trials", "6"),
        "complex": ("complex", "--seed", "0", "--trials", "3"),
        "complex_z9": ("complex", "--data", FIXTURES / "complex_z9.json"),
        "complex_z9_c2xc2": ("complex", "--data", FIXTURES / "complex_z9_c2xc2.json"),
        "selftest": ("selftest", "--seed", "0", "--max-conductor", "8", "--trials", "3",
                     "--complex-trials", "2", "--data-dir", DATA),
    }
    certs = []
    for name, argv in runs.items():
        certs.append(tmp / f"{name}_cert.json")
        cli(*argv, "--out", certs[-1])
    tower_cert = json.loads((tmp / "tower_cert.json").read_text())
    replay = tmp / "tower_replay.json"
    replay.write_text(json.dumps(tower_cert["result"]["tower"]))
    cli("tower", *tower, "--data", replay)
    fixtures = sorted(p for p in FIXTURES.glob("*_cert.json") if p.name != SLOW_FIXTURE)
    for path in certs + fixtures:
        assert cli("recheck", path)["result"]["matches"] is True, path
    # as CI does: the fitting certificate with every "seconds" rewritten
    # matches (after the walk that drops them), with a verdict flipped not
    fitting = json.loads((tmp / "fitting_cert.json").read_text())
    for suite in fitting["result"]["suites"]:
        suite["seconds"] = -1.0
    edited = tmp / "fitting_seconds_cert.json"
    edited.write_text(json.dumps(fitting))
    assert cli("recheck", edited)["result"]["matches"] is True
    fitting["result"]["ok"] = not fitting["result"]["ok"]
    edited.write_text(json.dumps(fitting))
    assert cli("recheck", edited, want=3)["result"]["matches"] is False


def refusals(tmp: Path):
    """The refusals of tests/cli_refusals.py, each with its exit code."""
    from cli_refusals import refusals

    for want, phrase, argv in refusals(tmp).values():
        assert phrase in cli(*argv, want=want)["error"], argv


def workloads(tmp: Path):
    """One round of each benchmark workload at seed 1."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads as bench

    for name in ("character", "fitting", "tower"):
        workdir = tmp / name
        workdir.mkdir()
        workload = bench.make(name, 1, ROOT, workdir)
        for op in workload.round(0):
            verdict, ok = workload.run(op)
            assert ok, (name, op, verdict)


def child(tmp: Path) -> dict:
    """Run the corpus under the profiler, the refusals and the workloads also
    under the exception trace; name the definitions it never entered and
    the raises it never raised."""
    sys.path.insert(0, str(ROOT / "src"))
    with recording() as entered:
        import iwasawa_kit

        assert Path(iwasawa_kit.__file__).parent == SRC
        readme_block(tmp)
        with raising(SRC) as lines:
            refusals(tmp)
            workloads(tmp)
    modules = [importlib.import_module(f"iwasawa_kit.{m.name}")
               for m in pkgutil.iter_modules(iwasawa_kit.__path__)]
    return {"unentered": unentered([iwasawa_kit, *modules], entered),
            "unraised": unraised(raise_sites(SRC), lines)}


# ---------------------------------------------------------------------------
# The tests.

@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> dict:
    """What the child names, from one run of the corpus."""
    proc = subprocess.run([sys.executable, __file__, str(tmp_path_factory.mktemp("corpus"))],
                          capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_every_definition_is_entered_by_the_commands_or_the_benchmark(corpus):
    assert corpus["unentered"] == []


def test_every_raise_is_raised_by_the_commands_or_the_benchmark_or_allowed(corpus):
    """The raises the corpus never raised are those of ALLOWED, definition by
    definition and count by count: one named beyond ALLOWED needs an input
    that reaches it or has to go, and a line of ALLOWED that names no such
    raise is stale."""
    found = collections.Counter(name for name, _ in corpus["unraised"])
    allowed = collections.Counter(name for name, _ in ALLOWED)
    assert (found - allowed, allowed - found) == ({}, {}), corpus["unraised"]


SAMPLE = """
import functools


class A:
    def __init__(self):
        self.x = 1

    def run(self):
        return self.x

    def alone(self):
        return 0

    def __repr__(self):
        return "A()"

    def __add__(self, other):
        return self.x + other

    __radd__ = __add__

    @property
    def size(self):
        return 1

    @property
    def weight(self):
        return 2

    @functools.cached_property
    def cached(self):
        return 3

    @classmethod
    def make(cls):
        return cls()

    @classmethod
    def unused_make(cls):
        return cls()

    @staticmethod
    def helper():
        return 4

    @staticmethod
    def unused_helper():
        return 5


@functools.lru_cache(maxsize=None)
def cached_top(n):
    return n


@functools.lru_cache(maxsize=None)
def unused_cached_top(n):
    return n


def refuse(n):
    if n < 0:
        raise ValueError(n)
    return n


def passed_on():
    try:
        raise LookupError("raised")
    except LookupError:
        raise


def top():
    a = A.make()
    try:
        passed_on()
    except LookupError:
        pass
    return a.run() + a.size + A.helper() + cached_top(1) + (1 + a) + refuse(0)
"""


def test_the_guard_names_exactly_the_unentered_definitions(tmp_path, monkeypatch):
    """Methods, dunders, properties, cached properties, classmethods,
    staticmethods and lru_cache functions are each seen, and named when
    nothing entered them; an alias is one definition under its first name.
    Of the raises, the one top() never reaches is named, and neither one it
    raises nor the bare re-raise that passes that exception on."""
    (tmp_path / "sample_module.py").write_text(SAMPLE)
    monkeypatch.syspath_prepend(str(tmp_path))
    with recording() as entered, raising(tmp_path) as lines:
        sample = importlib.import_module("sample_module")
        sample.top()
    line = SAMPLE.splitlines().index("        raise ValueError(n)") + 1
    assert unraised(raise_sites(tmp_path), lines) == [("sample_module.refuse", line)]
    assert unentered([sample], entered) == [
        "sample_module.A.__repr__",
        "sample_module.A.alone",
        "sample_module.A.cached",
        "sample_module.A.unused_helper",
        "sample_module.A.unused_make",
        "sample_module.A.weight",
        "sample_module.unused_cached_top",
    ]


if __name__ == "__main__":
    print(json.dumps(child(Path(sys.argv[1]))))
