"""The three benchmark workloads.

A workload is built from its seed in set-up and then yields rounds of ops.
Every round draws one op from each stratum (an op kind crossed with the input
property that sets its cost), in an order the seed shuffles, so any whole
number of rounds has the same mix whatever the seed. An op returns
``(verdict, ok)``: the program's verdict and whether it agrees with the
independent route, the exhaustive oracle or the theorem that fixes it.

The program is reached only through module attributes looked up at call time
(``lvalues.theta``, not a local alias), so the tracer's wrappers see every
call the workload makes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import traceback
from pathlib import Path

OO = "oo"
ORACLE_RING_LIMIT = 2**10
# The Pontryagin dual of a certified square can need 10^4 to 10^6 maximal
# minors (about 1% of draws over (Z/9)[C2xC2]); such a cross-check takes
# seconds to minutes by cofactor expansion and waits for minimal
# presentations (ROADMAP item 3(d)). Larger duals skip only that cross-check.
DUAL_MINOR_LIMIT = 1000


def _rng(seed: int, *parts) -> random.Random:
    # string seeds are hashed with SHA-512, independent of PYTHONHASHSEED
    return random.Random(":".join(str(p) for p in (seed, *parts)))


class Workload:
    name = ""

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root
        self.strata: list = []

    def round(self, k: int) -> list:
        """The ops of round k: one per stratum, in a seeded order."""
        ops = [self.draw(s, stratum, k) for s, stratum in enumerate(self.strata)]
        _rng(self.seed, "order", k).shuffle(ops)
        return ops

    def draw(self, index: int, stratum, k: int):
        raise NotImplementedError

    def run(self, op) -> tuple[object, bool]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# character: two routes to the chi-components of theta over the CM corpus.

class CharacterWorkload(Workload):
    """(spec, S, T, r) over the CM corpus of conductor <= 24, r in 0..-3.

    Strata are (spec, r); within a stratum the seed permutes the (S, T)
    choices and round k takes the k-th one.
    """

    name = "character"

    def __init__(self, seed: int, root: Path):
        super().__init__(seed, root)
        from iwasawa_kit import abelian, campaigns, lvalues

        self.abelian, self.lvalues = abelian, lvalues
        for spec in campaigns.corpus_cm_specs(24):
            choices = campaigns.corpus_st_choices(spec)
            for r in (0, -1, -2, -3):
                items = [(spec, list(S), list(T), r) for S, T in choices]
                _rng(seed, "items", len(self.strata)).shuffle(items)
                self.strata.append(items)

    def draw(self, index, stratum, k):
        return stratum[k % len(stratum)]

    def run(self, op):
        spec, S, T, r = op
        lv, ab = self.lvalues, self.abelian
        th = lv.theta(spec, S, T, r)
        integral = lv.verify_integrality(th)
        table = ab.CharacterTable(ab.galois_group(spec).group)
        agree = table.decompose(th.value) == lv.theta_character_side(spec, S, T, r)
        # Every (S, T) of the corpus satisfies Hyp(S, T), so theta is integral
        # for r = 0, -1, -2 (acceptance criterion 1). At r = -3 integrality
        # needs T to kill w_4(L), which Hyp does not ensure: T = {5} over
        # Q(zeta_8) is a non-integral case, so only the verdict is recorded.
        return (integral, agree), agree and (integral or r == -3)


# ---------------------------------------------------------------------------
# fitting: the Fitting-ideal lemmas and complex invariants on small rings.

def _element(alg, rng):
    return tuple(rng.randrange(alg.q) for _ in range(alg.dim))


class FittingWorkload(Workload):
    """Random modules over (Z/8)[C2], (Z/9)[C3] and (Z/9)[C2xC2]; complexes
    over (Z/8)[C2] and (Z/9)[C2]. Strata are (op kind, algebra).

    Complexes stay on dimension-2 algebras: over (Z/9)[C2xC2] one shifted
    Euler-Fitting invariant already takes over a minute (all maximal minors
    of a large presentation)."""

    name = "fitting"

    LEMMAS = ("mult", "base_aug", "base_conj", "e1", "e1_cert", "four_term")
    COMPLEXES = ("shift2", "shift3", "qiso2", "qiso3", "additivity")

    def __init__(self, seed: int, root: Path):
        super().__init__(seed, root)
        from iwasawa_kit import abelian, complexes, fitting, oracles

        self.F, self.C, self.O = fitting, complexes, oracles

        def algebra(p, N, orders):
            return fitting.GroupAlgebra(p, N, abelian.FiniteAbelianGroup(orders))

        self.algs = [algebra(2, 3, (2,)), algebra(3, 2, (3,)), algebra(3, 2, (2, 2))]
        self.complex_algs = [self.algs[0], algebra(3, 2, (2,))]
        self.lifted = [fitting.GroupAlgebra(a.p, a.N + 1, a.group) for a in self.algs]
        self.aug, self.conj = [], []
        for alg in self.algs:
            target = fitting.zmod_algebra(alg.p, alg.N)
            self.aug.append(fitting.AlgebraMorphism(alg, target, [target.one] * alg.dim))
            j = alg.group.reduce(tuple(1 for _ in alg.group.orders))
            if alg.group.mul(j, j) == alg.group.identity:
                self.conj.append(fitting.minus_quotient(alg, j)[1])
            else:  # C3 has no conjugation: use the inversion automorphism
                images = [alg.group_element_vector(alg.group.inv(g)) for g in alg.basis]
                self.conj.append(fitting.AlgebraMorphism(alg, alg, images))
        self.strata = [(kind, a) for kind in self.LEMMAS for a in range(3)]
        self.strata += [(kind, a) for kind in self.COMPLEXES for a in range(2)]

    def draw(self, index, stratum, k):
        """The seed draws the entries; the presentation shapes (generators 1
        or 2, one extra relation or none) cycle with the round, so every seed
        runs the same shapes, which set most of an op's cost."""
        kind, a = stratum
        return kind, a, f"{self.seed}:{index}:{k}", [(k >> i) & 1 for i in range(4)]

    def run(self, op):
        kind, a, seed, shape = op
        alg = (self.algs if kind in self.LEMMAS else self.complex_algs)[a]
        return getattr(self, "_" + kind)(alg, a, random.Random(seed), iter(shape))

    # -- inputs ---------------------------------------------------------------

    def _module(self, alg, rng, shape):
        n = 1 + next(shape)
        rels = [[_element(alg, rng) for _ in range(n)] for _ in range(n + next(shape))]
        return self.F.FinPresModule(alg, n, rels)

    def _square(self, alg, rng, n):
        while True:
            M = self.F.FinPresModule(alg, n, [[_element(alg, rng) for _ in range(n)] for _ in range(n)])
            if M.has_square_regular_presentation():
                return M

    def _certified_square(self, alg, a, rng, n):
        while True:
            M = self._square(alg, rng, n)
            if self.F.quadratic_presentation_certificate(alg, self.lifted[a], M.relations):
                return M

    def _oracle_equal(self, I, J):
        alg = I.algebra
        if alg.q**alg.dim > ORACLE_RING_LIMIT:
            return None
        return self.O.enumerate_ideal(alg, I.generators) == self.O.enumerate_ideal(alg, J.generators)

    @staticmethod
    def _judge(verdict: bool, oracle):
        # the lemmas are theorems: the verdict must hold, and match the oracle
        return verdict, verdict and oracle in (None, True)

    # -- lemma ops --------------------------------------------------------------

    def _mult(self, alg, a, rng, shape):
        M1, M2 = self._module(alg, rng, shape), self._module(alg, rng, shape)
        lhs = M1.direct_sum(M2).fitting_ideal
        rhs = M1.fitting_ideal.product(M2.fitting_ideal)
        return self._judge(lhs == rhs, self._oracle_equal(lhs, rhs))

    def _base_change(self, phi, rng, shape):
        M = self._module(phi.src, rng, shape)
        verdict = self.F.base_change_fitting(M, phi)
        pushed = self.F.FinPresModule(
            phi.dst, M.ngens, [[phi.apply(e) for e in row] for row in M.relations]
        )
        return self._judge(
            verdict, self._oracle_equal(pushed.fitting_ideal, M.fitting_ideal.map_through(phi))
        )

    def _base_aug(self, alg, a, rng, shape):
        return self._base_change(self.aug[a], rng, shape)

    def _base_conj(self, alg, a, rng, shape):
        return self._base_change(self.conj[a], rng, shape)

    def _e1(self, alg, a, rng, shape):
        M = self._square(alg, rng, 1 + next(shape))
        verdict = self.F.e1_sharp_check(M)
        oracle = self._oracle_equal(
            self.F.dual_presentation(M).fitting_ideal, M.fitting_ideal.sharp()
        )
        return self._judge(verdict, oracle)

    def _e1_cert(self, alg, a, rng, shape):
        M = self._certified_square(alg, a, rng, 1 + next(shape))
        D = self.F.pontryagin_dual(M)
        dual = self.F.dual_presentation(M)
        verdict = self.F.e1_sharp_check(M) and D.size() == M.size()
        if math.comb(len(D.relations), D.ngens) <= DUAL_MINOR_LIMIT:
            verdict = verdict and D.fitting_ideal == dual.fitting_ideal
        return self._judge(verdict, self._oracle_equal(dual.fitting_ideal, M.fitting_ideal.sharp()))

    def _four_term(self, alg, a, rng, shape):
        F = self.F
        C = self._certified_square(alg, a, rng, 1 + next(shape))
        f = F.multiplication_map(C, _element(alg, rng))
        sub = F.subquotient_presentation(alg, C.ngens, f.kernel_span, C.relation_span)
        Mker = sub.module
        Mcok = F.FinPresModule(alg, C.ngens, C.relations + f.matrix)
        alpha = F.ModuleMap(Mker, C, sub.gens_ambient)
        gamma = F.ModuleMap(C, Mcok, F.identity_map(C).matrix)
        verdict = F.four_term_check(Mker, C, C, Mcok, alpha, f, gamma)
        oracle = None
        if alg.q**alg.dim <= ORACLE_RING_LIMIT:
            lhs = F.pontryagin_dual(Mker).fitting_ideal.sharp().product(C.fitting_ideal)
            rhs = C.fitting_ideal.product(Mcok.fitting_ideal)
            oracle = self._oracle_equal(lhs, rhs)
        return self._judge(verdict, oracle)

    # -- complex ops -------------------------------------------------------------

    def _two_term(self, alg, x):
        F = self.F
        F0, F1 = F.FinPresModule(alg, 1, []), F.FinPresModule(alg, 1, [])
        return self.C.BoundedComplex(alg, 0, [F0, F1], [F.ModuleMap(F0, F1, [[x]])])

    def _unit(self, alg, rng):
        while True:
            x = _element(alg, rng)
            if alg.is_unit(x):
                return x

    def _three_term(self, alg, rng, shape):
        """A -> A -> A with d^2 = 0: the (1 + j, 1 - j) pair or a p-power
        split, each twisted by units."""
        F = self.F
        mods = [F.FinPresModule(alg, 1, []) for _ in range(3)]
        u1, u2 = self._unit(alg, rng), self._unit(alg, rng)
        if next(shape):
            j = alg.group_element_vector(tuple(1 for _ in alg.group.orders))
            x, y = alg.add(alg.one, j), alg.sub(alg.one, j)
        else:
            i = rng.randint(1, alg.N - 1)
            x, y = alg.scalar(alg.p**i, alg.one), alg.scalar(alg.p ** (alg.N - i), alg.one)
        d0 = F.ModuleMap(mods[0], mods[1], [[alg.mul(u1, x)]])
        d1 = F.ModuleMap(mods[1], mods[2], [[alg.mul(u2, y)]])
        return self.C.BoundedComplex(alg, rng.randint(-1, 1), mods, [d0, d1])

    def _shift(self, C):
        inv = C.euler_fitting()
        verdict = (
            C.shift(1).euler_fitting() == inv.inverse()
            and C.shift(2).euler_fitting() == inv
            and C.shift(-1).euler_fitting() == inv.inverse()
        )
        return verdict, verdict

    def _shift2(self, alg, a, rng, shape):
        return self._shift(self._two_term(alg, _element(alg, rng)))

    def _shift3(self, alg, a, rng, shape):
        return self._shift(self._three_term(alg, rng, shape))

    def _qiso(self, C):
        """C -> C (+) (A -id-> A), the inclusion is a quasi-isomorphism and
        both complexes carry the same Euler-Fitting invariant."""
        F, alg = self.F, C.algebra
        acyclic = self._two_term(alg, alg.one)
        mods = []
        for i in C.degrees():
            extra = acyclic.module_at(i - C.lo)
            mods.append(C.module_at(i).direct_sum(extra) if extra is not None else C.module_at(i))
        diffs = []
        for i in range(C.lo, C.hi):
            dc = C.differential_at(i).matrix
            da = acyclic.differential_at(i - C.lo)
            nc, nc2 = C.module_at(i).ngens, C.module_at(i + 1).ngens
            na = mods[i - C.lo].ngens - nc
            na2 = mods[i - C.lo + 1].ngens - nc2
            mat = [[alg.zero()] * (nc2 + na2) for _ in range(nc + na)]
            for r in range(nc):
                mat[r][:nc2] = dc[r]
            if da is not None:
                for r in range(na):
                    mat[nc + r][nc2:] = da.matrix[r]
            diffs.append(F.ModuleMap(mods[i - C.lo], mods[i - C.lo + 1], mat))
        D = self.C.BoundedComplex(alg, C.lo, mods, diffs)
        maps = {}
        for i in C.degrees():
            Mc, Md = C.module_at(i), D.module_at(i)
            rows = [[alg.one if d == c else alg.zero() for d in range(Md.ngens)] for c in range(Mc.ngens)]
            maps[i] = F.ModuleMap(Mc, Md, rows)
        verdict = self.C.quasi_iso_check(self.C.ChainMap(C, D, maps))
        verdict = verdict and C.euler_fitting() == D.euler_fitting()
        return verdict, verdict

    def _qiso2(self, alg, a, rng, shape):
        return self._qiso(self._two_term(alg, _element(alg, rng)))

    def _qiso3(self, alg, a, rng, shape):
        return self._qiso(self._three_term(alg, rng, shape))

    def _additivity(self, alg, a, rng, shape):
        """Euler-Fitting additivity over a degreewise split sequence
        C1 -> C2 -> C3 whose middle differential is twisted by a homotopy."""
        F, CX = self.F, self.C
        C1 = self._two_term(alg, _element(alg, rng))
        C3 = self._two_term(alg, _element(alg, rng))
        phi0, phi1 = _element(alg, rng), _element(alg, rng)
        d1 = C1.differentials[0].matrix[0][0]
        d3 = C3.differentials[0].matrix[0][0]
        h = alg.sub(alg.mul(phi0, d1), alg.mul(d3, phi1))
        mid0 = C1.modules[0].direct_sum(C3.modules[0])
        mid1 = C1.modules[1].direct_sum(C3.modules[1])
        C2 = CX.BoundedComplex(alg, 0, [mid0, mid1], [F.ModuleMap(mid0, mid1, [[d1, alg.zero()], [h, d3]])])
        one, zero = alg.one, alg.zero()
        inc = CX.ChainMap(C1, C2, {
            0: F.ModuleMap(C1.modules[0], mid0, [[one, zero]]),
            1: F.ModuleMap(C1.modules[1], mid1, [[one, zero]]),
        })
        quo = CX.ChainMap(C2, C3, {
            0: F.ModuleMap(mid0, C3.modules[0], [[zero], [one]]),
            1: F.ModuleMap(mid1, C3.modules[1], [[zero], [one]]),
        })
        verdict = CX.euler_fitting_additivity_check(CX.ComplexSES(C1, C2, C3, inc, quo))
        return verdict, verdict


# ---------------------------------------------------------------------------
# tower: coherent Stickelberger towers, Fitting ideals along their levels, and
# the command line run in-process.

# (modulus, p, S, T choices of one prime, T choices of two primes, n_max,
# (N, |T|) of each level-Fitting op): levels reach dims 54, 20 and 42
TOWERS = (
    (3, 3, [3, OO], ([7], [2]), ([5, 7], [2, 5]), 3, ((2, 1), (2, 2))),
    (5, 5, [5, OO], ([2], [3]), ([3, 7], [2, 3]), 1, ((2, 2),)),
    (7, 7, [7, OO], ([2], [3]), ([3, 5], [2, 5]), 1, ((2, 1),)),
)
# verdict ops run on the first two bases only; Q(zeta7) adds a width-42
# level-Fitting op
VERDICT_BASES = 2


class TowerWorkload(Workload):
    """Strata are (tower base, op kind) and one per command-line kind.

    Verdict ops run at every r = -1, -2, -3, precision N = 2, 3 and
    |T| = 1, 2 over Q(zeta3) (levels to dim 54) and Q(zeta5) (to dim 20).
    Level-Fitting ops build a ``GroupAlgebra`` per level inside the op, so
    structure-constant construction and wide Howell forms (width 18 to 54)
    are timed. The seed sets where each stratum starts in its cycle of T
    choices and level-Fitting r. The command-line strata call
    ``iwasawa_kit.cli.main`` in-process (see ``CliCommands``).
    """

    name = "tower"

    def __init__(self, seed: int, root: Path, workdir: Path):
        super().__init__(seed, root)
        from iwasawa_kit import abelian, fitting, tower

        self.F, self.T = fitting, tower
        self.specs = {m: abelian.AbelianFieldSpec.cyclotomic(m) for m, *_ in TOWERS}
        self.strata = [
            ("verdicts", b, r, N, size)
            for b in range(VERDICT_BASES)
            for r in (-1, -2, -3)
            for N in (2, 3)
            for size in (1, 2)
        ]
        self.strata += [
            ("level_fitting", b, None, N, size)
            for b, tower_ in enumerate(TOWERS)
            for N, size in tower_[6]
        ]
        self.cli = CliCommands(seed, workdir)
        self.strata += [("cli", kind) for kind in CliCommands.KINDS]

    def draw(self, index, stratum, k):
        """T and the level-Fitting r cycle with the round from an offset the
        seed draws per stratum, so any run of 4 rounds holds every choice
        equally often whatever the seed (their costs differ)."""
        if stratum[0] == "cli":
            return "cli", self.cli.draw(index, stratum[1], k)
        kind, b, r, N, size = stratum
        m, p, S, singles, pairs, n_max, _ = TOWERS[b]
        turn = k + _rng(self.seed, index).randrange(4)
        if kind == "level_fitting":
            r = (0, -1, -2, -3)[turn % 4]
        choices = singles if size == 1 else pairs
        T = list(choices[turn % len(choices)])
        return kind, (self.specs[m], S, T, p, N, n_max, r)

    def run(self, op):
        kind, args = op
        if kind == "cli":
            return self.cli.run(args)
        return getattr(self, "_" + kind)(*args)

    def _verdicts(self, spec, S, T, p, N, n_max, r):
        tw = self.T
        t_r = tw.theta_tower(spec, S, T, p, N, n_max, r)
        t_0 = tw.theta_tower(spec, S, T, p, N, n_max, 0)
        verdict = (
            tw.coherence_check(t_r)[0],
            tw.coherence_check(t_0)[0],
            all(tw.parity_projector_annihilates(t_r, n) for n in range(n_max + 1)),
            tw.twist_congruence_check(t_r, t_0)[0],
        )
        # coherence, the parity projector and the Kummer congruence are
        # theorems for every tower of the corpus
        return verdict, all(verdict)

    def _vector(self, alg, entry):
        return tuple(entry) if isinstance(entry, (tuple, list)) else alg.from_group_ring(entry)

    def _level_fitting(self, spec, S, T, p, N, n_max, r):
        F = self.F
        t = self.T.theta_tower(spec, S, T, p, N, n_max, r)
        algs = [F.GroupAlgebra(p, N, level.group) for level in t.levels]
        mods = [F.principal_module(alg, self._vector(alg, e)) for alg, e in zip(algs, t.entries)]
        projections = [
            F.group_algebra_morphism(algs[n + 1], algs[n], lambda g, n=n: t.levels[n + 1].project(g, n))
            for n in range(n_max)
        ]
        report = F.tower_fitting_check(mods, projections)
        top = algs[-1]
        x = self._vector(top, t.entries[-1])
        M1, M2 = F.principal_module(top, x), F.principal_module(top, top.sharp_of(x))
        multiplicative = M1.direct_sum(M2).fitting_ideal == M1.fitting_ideal.product(M2.fitting_ideal)
        verdict = (report["ok"], all(report["equal"]), multiplicative)
        # containment (Greither-Kurihara), equality in the principal case and
        # multiplicativity over direct sums are theorems
        return verdict, all(verdict)


CLI_OK = {0, 2, 3, 4}


class Crash(Exception):
    """The command printed a traceback or exited outside {0, 2, 3, 4}."""


class CliCommands:
    """The README commands and refused malformed inputs, each a call of
    ``iwasawa_kit.cli.main(argv)`` in this interpreter with stdout and stderr
    captured; the seed draws their parameters. Set-up writes the input files
    and the certificates that ``recheck`` reads.

    Two malformed inputs crash the command line today (``theta --spec
    zeta0`` raises ZeroDivisionError, ``verify`` with a JSON list as class
    data raises TypeError). They are left out of the mix, because a
    benchmark op must not fail; ``judge`` would count them as errors."""

    THETA = (
        ("zeta3", "3,oo", "7", 0), ("zeta3", "3,oo", "5,7", -1),
        ("zeta5", "5,oo", "3", 0), ("zeta7", "7,oo", "5", -1),
        ("zeta12", "2,3,oo", "5,7", 0), ("zeta8", "2,oo", "3,5", -2),
    )
    TOWER = (
        ("zeta5", "5,oo", "2", -1, 5, 2, 2), ("zeta3", "3,oo", "7", -1, 3, 2, 2),
        ("zeta3", "3,oo", "5,7", -2, 3, 3, 2), ("zeta7", "7,oo", "2", -1, 7, 2, 1),
    )
    MALFORMED = ("bad_places", "missing_file")
    KINDS = ("theta", "tower", "verify", "complex", "recheck_theta", "recheck_tower", *MALFORMED)
    VERIFY = ["verify", "--spec", "zeta23", "--S", "23,oo", "--T", "5", "--r", "0",
              "--p", "3", "--N", "2", "--data"]

    def __init__(self, seed: int, workdir: Path):
        from iwasawa_kit import cli

        self.seed, self.workdir, self.cli = seed, workdir, cli
        for a in range(9):
            payload = {
                "algebra": {"p": 3, "N": 2, "basis": ["1"], "mult": [[[1]]], "one": [1],
                            "sharp": [[1]], "name": "Z/3^2"},
                "degrees": [0, 1],
                "modules": [{"ngens": 1, "relations": []}, {"ngens": 1, "relations": []}],
                "differentials": [[[[a]]]],
            }
            (workdir / f"complex{a}.json").write_text(json.dumps(payload))
        self.certs = {}
        for kind, argv in (("theta", self._theta_argv(self.THETA[0])),
                           ("tower", self._tower_argv(self.TOWER[0]))):
            path = workdir / f"{kind}_cert.json"
            code, _, err = self.call([*argv, "--out", str(path)])
            if code != 0:
                raise RuntimeError(f"fixture certificate {kind} failed ({code}): {err[-400:]}")
            self.certs[kind] = path

    def call(self, argv):
        """(exit code, stdout, stderr) of one command; an escaped exception
        prints its traceback to the captured stderr, as the command would."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # what the command line would show as a traceback
                traceback.print_exc()
                code = 1
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def _theta_argv(t):
        spec, S, T, r = t
        return ["theta", "--spec", spec, "--S", S, "--T", T, "--r", str(r)]

    @staticmethod
    def _tower_argv(t):
        spec, S, T, r, p, N, levels = t
        return ["tower", "--spec", spec, "--S", S, "--T", T, "--r", str(r),
                "--p", str(p), "--N", str(N), "--levels", str(levels)]

    def draw(self, index, kind, k):
        rng = _rng(self.seed, index, k)
        if kind == "theta":
            return kind, self._theta_argv(rng.choice(self.THETA))
        if kind == "tower":
            return kind, self._tower_argv(rng.choice(self.TOWER))
        if kind == "verify":
            return kind, [*self.VERIFY, "data/table_z23_minus.json"]
        if kind == "complex":
            a = rng.randrange(9)
            return kind, ["complex", "--data", str(self.workdir / f"complex{a}.json")], a
        if kind.startswith("recheck_"):
            return kind, ["recheck", str(self.certs[kind[len("recheck_"):]])]
        if kind == "bad_places":
            token = rng.choice(("x", "5.5", "ooo", "-", "2;3"))
            return kind, ["theta", "--spec", "zeta5", "--S", f"5,{token},oo", "--T", "2"]
        if kind == "missing_file":
            return kind, [*self.VERIFY, f"data/missing_{rng.randrange(10**6)}.json"]
        raise ValueError(kind)

    def run(self, op):
        kind, argv, *extra = op
        code, out, err = self.call(argv)
        return self.judge(kind, extra, code, out, err)

    @classmethod
    def judge(cls, kind, extra, code, out, err):
        """(verdict, ok) for one finished command; raises Crash on a
        traceback or an exit code outside {0, 2, 3, 4}."""
        if code not in CLI_OK or "Traceback" in err:
            lines = err.strip().splitlines()
            raise Crash(f"exit {code}: {lines[-1] if lines else ''}")
        if code != 0:
            try:
                obj = json.loads(err)
            except ValueError:
                return ("bad-error", code), False
            ok = isinstance(obj, dict) and "error" in obj
            # malformed inputs must be refused; README commands must succeed
            return ("error", code), ok and kind in cls.MALFORMED
        try:
            result = json.loads(out)["result"]
        except (ValueError, KeyError, TypeError):
            return ("bad-output", code), False
        if kind == "theta":
            verdict = (result["hyp"], result["integral"])
        elif kind == "tower":
            verdict = (result["coherent"], result.get("twist_congruent"))
        elif kind == "verify":
            verdict = (result["annihilation"], result["fitting_membership"])
        elif kind == "complex":
            # H^0 = ker(a) and H^1 = coker(a) on Z/9 both have gcd(a, 9) elements
            g = math.gcd(extra[0], 9)
            expect = {"0": g, "1": g}
            verdict = (result["cohomology_sizes"] == expect, result["acyclic"] == (g == 1))
        elif kind.startswith("recheck_"):
            verdict = (result["matches"],)
        else:
            return ("accepted", code), False
        return verdict, all(verdict)


def make(name: str, seed: int, root: Path, workdir: Path) -> Workload:
    if name == "tower":
        return TowerWorkload(seed, root, workdir)
    classes = {w.name: w for w in (CharacterWorkload, FittingWorkload)}
    return classes[name](seed, root)
