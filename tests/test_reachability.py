"""The kit is what its commands and its benchmark run, down to each statement.

A fresh interpreter installs `sys.settrace` before it imports the package,
so code that runs at import time counts. It then runs, through `cli.main`,
every step of the one command corpus (`tests/cli_corpus.py`: README's CLI
block at small trial counts, the accepted inputs that reach what the block
does not, and the follow-ups of their certificates, each rechecked), every
refusal of the refusal table (`tests/cli_refusals.py`), and one round of
each benchmark workload at seed 1, built by `perfbench/workloads.py` (the
benchmark is a client of the kit). `tests/test_cli.py` and CI run the same
corpus and table.

Every statement of `src/` (read from the AST) that the corpus never ran is
named, as the definition that holds it (`module.Class.method`, or the
module alone at its top level), unless ALLOWED lists it: each statement of
a definition never entered, of a branch no input takes, and each `raise` no
input provokes; no definition may have all its statements unrun. The
trace goes on only in the frames of code objects that hold a statement,
with line events on; a statement has run when an event fell on any line of
its span, so a multi-line statement counts whichever of its lines a Python
version gives the event to. A code object goes untraced once each of its
statements has run, which keeps the trace's cost near that of one on calls
alone. A statement that only the tests run goes, or moves to `tests/`; one
that a rare input reaches gets a step of the corpus that reaches it; a
refusal gets a row of the refusal table. ALLOWED names the statements that
no input can reach, one line each: the checks that catch a fault of the
kit's own computation, the fallbacks of the comparison and descriptor
protocols, the CLI's process-level handlers, the path of a failed campaign
check, and what a general definition does for a case the kit never builds.

The corpus runs in a child interpreter so that no earlier test has imported
the package or filled its caches.
"""

import ast
import collections
import contextlib
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "iwasawa_kit"

# The statements of src/ that no input reaches, one line each: the definition
# that holds it and what it does.
ALLOWED = (
    ("abelian.FiniteAbelianGroup.__eq__", "NotImplemented for a value that is no group"),
    ("abelian.AbelianFieldSpec.__eq__", "NotImplemented for a value that is no spec"),
    ("abelian.conductor", "a kernel test that fails at f = m, where it always holds"),
    ("abelian.GaloisData.__init__", "a classification that misses a class of the group"),
    ("abelian.galois_group", "a Smith form of a finite quotient with a zero invariant factor"),
    ("abelian.CharacterTable.reconstruct", "a decompose whose components no element has"),
    ("campaigns.CampaignResult.record", "a failed check, counted"),
    ("campaigns.CampaignResult.record", "a failed check's detail, kept"),
    ("campaigns.run_trials", "a trial out of memory, for main to refuse, not to count"),
    ("campaigns.run_trials", "a trial that raised, recorded as a failure"),
    ("campaigns._draw_until", "a faulty acceptance test that no draw passes, not a hang"),
    ("cli", "python -m iwasawa_kit.cli; the console script calls main itself"),
    ("cli.main", "an input too large to run, refused out of memory"),
    ("cli.main", "a stdout closed by its reader, pointed at devnull"),
    ("cli.main", "a stdout closed by its reader, refused"),
    ("complexes.BoundedComplex.differential_at", "the zero map two or more degrees out"),
    ("complexes.EulerFittingInvariant.__eq__", "NotImplemented for a value that is no invariant"),
    ("complexes.ChainMap.validate", "a chain map level that is not well defined"),
    ("complexes.ChainMap.validate", "a chain map that does not commute with d"),
    ("complexes.quasi_iso_check", "a campaign's map whose H^i sizes differ"),
    ("complexes.quasi_iso_check", "a campaign's map that is not onto some H^i"),
    ("complexes.ComplexSES.verify_exact", "an extension's sequence that is not exact"),
    ("exact.CyclotomicInt.__eq__", "a value compared with a number, else silently False"),
    ("exact.CyclotomicInt.__eq__", "NotImplemented for a value that is no number"),
    ("fitting.lockfree_cached_property.__get__", "the descriptor itself, read on the class"),
    ("fitting.AlgebraMorphism.check_homomorphism", "a campaign's morphism that loses 1"),
    ("fitting.AlgebraMorphism.check_homomorphism", "a campaign's morphism that breaks products"),
    ("fitting.pontryagin_dual", "a campaign's algebra whose trace form may be degenerate"),
    ("fitting.four_term_check", "a kernel or cokernel map of a campaign, not well defined"),
    ("fitting.four_term_check", "a campaign's four-term sequence that is not exact"),
    ("numutil.primitive_root", "a candidate p | g, past every primitive root below p"),
    ("numutil.primitive_root", "an order test that finds no generator of a cyclic group"),
)


def statement_sites(directory: Path) -> list[tuple[str, str, int, int, int]]:
    """(file, definition, scope line, first line, last line) of every statement
    of the .py files in directory that runs code of its own: all but function
    and class definitions, compound statements (the statements of their
    bodies stand for them), the docstrings of functions, and `global` and
    `nonlocal`. The definition is `module.Class.method`, or the module alone
    at its top level; the scope line is the first line of the code object
    that runs the statement, its first decorator's for a decorated
    definition."""
    sites = []

    def visit(path, node, names, scope):
        function = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        docstring = node.body[0] if function and ast.get_docstring(node) is not None else None
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                visit(path, child, [*names, child.name], first)
            elif hasattr(child, "body") or isinstance(child, ast.Match):  # compound
                visit(path, child, names, scope)
            elif isinstance(child, ast.stmt) and child is not docstring \
                    and not isinstance(child, (ast.Global, ast.Nonlocal)):
                sites.append((str(path), ".".join(names), scope, child.lineno, child.end_lineno))

    for path in sorted(directory.glob("*.py")):
        visit(path, ast.parse(path.read_text()), [path.stem], 1)
    return sites


@contextlib.contextmanager
def running(sites):
    """The (definition, first line) of each site of statement_sites that has
    not run when the block ends, in order. Only the frames of code objects
    that hold a site run traced, and a code object goes untraced once each
    of its sites has run: a site runs when a line event falls on any line
    of its span, whichever line a Python version gives the event to."""
    scopes = collections.defaultdict(dict)  # (file, scope line): {line: site not yet run}
    for path, name, scope, first, last in sites:
        for line in range(first, last + 1):
            scopes[path, scope][line] = (name, first, last)
    unrun = []

    def tracer(key, waiting):
        """The local trace of the code objects of one scope; once each of
        their sites has run, the scope leaves traces and its frames run
        untraced."""
        def local(frame, event, arg):
            if event == "line" and frame.f_lineno in waiting:
                _, first, last = waiting[frame.f_lineno]
                for line in range(first, last + 1):
                    waiting.pop(line, None)
                if not waiting:
                    frame.f_trace_lines = False
                    traces.pop(key, None)
            return local
        return local

    traces = {key: tracer(key, waiting) for key, waiting in scopes.items()}

    def call(frame, event, arg):
        code = frame.f_code
        return traces.get((code.co_filename, code.co_firstlineno))

    sys.settrace(call)
    try:
        yield unrun
    finally:
        sys.settrace(None)
        unrun.extend(sorted({(name, first) for waiting in scopes.values()
                             for name, first, _ in waiting.values()}))


# ---------------------------------------------------------------------------
# The corpus, run in the child interpreter.

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


def child(tmp: Path) -> list:
    """Run the corpus under the statement trace; name the statements of src/
    it never ran."""
    sys.path.insert(0, str(ROOT / "src"))
    with running(statement_sites(SRC)) as unrun:
        import cli_corpus  # tests/ is the script's directory
        import iwasawa_kit

        assert Path(iwasawa_kit.__file__).parent == SRC
        for name, step in cli_corpus.steps().items():
            (tmp / name).mkdir()
            step(cli_corpus.in_process, tmp / name)
        cli_corpus.refused(cli_corpus.exact, tmp)
        workloads(tmp)
    return unrun


# ---------------------------------------------------------------------------
# The tests.

@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> list:
    """The (definition, first line) of each statement the child names, from
    one run of the corpus."""
    proc = subprocess.run([sys.executable, __file__, str(tmp_path_factory.mktemp("corpus"))],
                          capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_every_statement_is_run_by_the_commands_or_the_benchmark_or_allowed(corpus):
    """The statements the corpus never ran are those of ALLOWED, definition
    by definition and count by count: one named beyond ALLOWED needs an
    input that reaches it or has to go, and a line of ALLOWED that names no
    such statement is stale."""
    found = collections.Counter(name for name, _ in corpus)
    allowed = collections.Counter(name for name, _ in ALLOWED)
    assert (found - allowed, allowed - found) == ({}, {}), corpus


def test_every_definition_is_entered_by_the_commands_or_the_benchmark(corpus):
    """No definition of src/ has all its statements unrun: ALLOWED names a
    branch or a raise that no input reaches, never a whole definition that
    nothing enters."""
    sites = collections.Counter(name for _, name, *_ in statement_sites(SRC))
    unrun = collections.Counter(name for name, _ in corpus)
    assert [name for name in unrun if unrun[name] == sites[name]] == [], corpus


SAMPLE = """
import functools


class A:
    def __init__(self):
        self.x = 1

    def run(self):
        return self.x

    def alone(self):
        y = 0
        return y

    def __repr__(self):
        return "A()"

    @property
    def size(self):
        return 1

    @functools.cached_property
    def cached(self):
        return 3

    @classmethod
    def make(cls):
        return cls()

    @staticmethod
    def helper():
        return 4


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


def spread(n):
    assert (
        n >= 0
    ), "no line event falls on the first line"
    return n


def either(n):
    if n:
        return 1
    return 2


def top():
    a = A.make()
    try:
        passed_on()
    except LookupError:
        pass
    return a.run() + a.size + A.helper() + cached_top(1) + refuse(0) + spread(1)
"""


def test_the_guard_names_exactly_the_statements_that_never_ran(tmp_path, monkeypatch):
    """Every statement of a definition that nothing entered is named, under
    any decorator; one that ran under a decorator is seen. In a definition
    that ran, the raise top() never reaches is named, and neither
    one it raises, nor the bare re-raise that passes that exception on, nor
    an assert whose event falls on its second line only. The two branches
    of either(), taken in two calls, are both seen."""
    (tmp_path / "sample_module.py").write_text(SAMPLE)
    monkeypatch.syspath_prepend(str(tmp_path))
    with running(statement_sites(tmp_path)) as unrun:
        sample = importlib.import_module("sample_module")
        sample.top()
        sample.either(0)
        sample.either(1)
    line = SAMPLE.splitlines().index("        raise ValueError(n)") + 1
    assert ("sample_module.refuse", line) in unrun
    assert [name for name, _ in unrun] == [
        "sample_module.A.__repr__",
        "sample_module.A.alone",
        "sample_module.A.alone",
        "sample_module.A.cached",
        "sample_module.refuse",
        "sample_module.unused_cached_top",
    ]


if __name__ == "__main__":
    print(json.dumps(child(Path(sys.argv[1]))))
