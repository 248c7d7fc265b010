"""Bounded complexes of finitely presented modules over a finite commutative
algebra: cohomology, shift, cone, quasi-isomorphism detection, and the
Euler-Fitting invariant (the alternating product of Fitting ideals of
cohomology, as an ideal pair to avoid division in non-domains).

One builder, `extension`, makes the degreewise split extension
0 -> sub -> E -> quo -> 0, E^i = quo^i (+) sub^i, with differential
[[d_quo, t], [0, d_sub]]. A direct sum is t = 0, and the cone of f is
src[1] extended by dst along t = f.

Every homology size is the one homology count, fitting.homology_sizes: |H^i|
on (d^(i-1), d^i), and the exactness of a short exact sequence at each C_k^i.

A complex is zero outside its degrees lo..hi: `module_at` is the zero module
and `differential_at` the zero map there, so cohomology, chain maps, cones and
exact sequences run one path in every degree. A chain map's level i is the
given map, else the zero map, which `ChainMap.validate` checks like any
other level.
"""

from __future__ import annotations

from .fitting import (
    FiniteCommAlgebra,
    FinPresModule,
    IdealHandle,
    ModuleMap,
    homology_sizes,
    identity_map,
    subquotient_presentation,
    unit_ideal,
    zero_map,
)
from .linalg import combine, howell_form


class BoundedComplex:
    """Cochain complex with degrees lo..hi; differentials[i]: C^(lo+i) ->
    C^(lo+i+1), one per adjacent pair of modules and built on those module
    objects (every caller passes that many such maps, and `complex --data`
    refuses another count by the wire rule), and
    zero outside lo..hi: `module_at(i)` is the zero module and
    `differential_at(i)` the zero map there.

    d(i+1) o d(i) = 0 and well-definedness of each differential are verified
    on construction.
    """

    def __init__(
        self,
        algebra: FiniteCommAlgebra,
        lo: int,
        modules: list[FinPresModule],
        differentials: list[ModuleMap],
    ):
        self.algebra = algebra
        self.lo = lo
        self.modules = modules
        self.differentials = differentials
        for i, d in enumerate(differentials):
            if not d.is_well_defined():
                raise ValueError(f"differential in degree {lo + i} is not well defined")
        for i in range(len(differentials) - 1):
            if not differentials[i].compose(differentials[i + 1]).is_zero():
                raise ValueError(f"d o d != 0 at degree {lo + i}")
        # the boundary zero maps are built once: cohomology reuses their cached spans
        below, above = (zero_map(self.module_at(i), self.module_at(i + 1)) for i in (lo - 1, self.hi))
        self._maps = [below, *differentials, above]

    @property
    def hi(self) -> int:
        return self.lo + len(self.modules) - 1

    def degrees(self) -> range:
        return range(self.lo, self.hi + 1)

    def module_at(self, i: int) -> FinPresModule:
        if self.lo <= i <= self.hi:
            return self.modules[i - self.lo]
        return FinPresModule(self.algebra, 0, [])

    def differential_at(self, i: int) -> ModuleMap:
        if self.lo - 1 <= i <= self.hi:
            return self._maps[i - self.lo + 1]
        return zero_map(self.module_at(i), self.module_at(i + 1))

    # -- cohomology --------------------------------------------------------

    def cohomology(self, i: int) -> FinPresModule:
        """H^i = ker(d^i)/im(d^(i-1)) with a derived presentation over the
        algebra (Howell kernels and spans over Z/p^N)."""
        Z = self.differential_at(i).kernel_span
        B = self.differential_at(i - 1).image_span
        return subquotient_presentation(self.algebra, self.module_at(i).ngens, Z, B).module

    def cohomology_size(self, i: int) -> int:
        """|H^i|, the middle count of homology_sizes on (d^(i-1), d^i)."""
        return homology_sizes([self.differential_at(i - 1), self.differential_at(i)])[1]

    def is_acyclic(self) -> bool:
        return all(self.cohomology_size(i) == 1 for i in self.degrees())

    # -- operations --------------------------------------------------------

    def shift(self, n: int) -> "BoundedComplex":
        """C[n]^i = C^(n+i) with differential (-1)^n d^(n+i)."""
        if n % 2 == 0:
            diffs = list(self.differentials)
        else:
            diffs = [
                ModuleMap(
                    d.src,
                    d.dst,
                    [[d.src.algebra.neg(e) for e in row] for row in d.matrix],
                )
                for d in self.differentials
            ]
        return BoundedComplex(self.algebra, self.lo - n, self.modules, diffs)

    def euler_fitting(self) -> "EulerFittingInvariant":
        num = unit_ideal(self.algebra)
        den = unit_ideal(self.algebra)
        for i in self.degrees():
            fitt = self.cohomology(i).fitting_ideal
            if i % 2 == 0:
                num = num.product(fitt)
            else:
                den = den.product(fitt)
        return EulerFittingInvariant(num, den)


class EulerFittingInvariant:
    """Ideal pair (numerator, denominator); equality by cross-multiplication."""

    def __init__(self, numerator: IdealHandle, denominator: IdealHandle) -> None:
        self.numerator, self.denominator = numerator, denominator

    def __eq__(self, other) -> bool:
        if not isinstance(other, EulerFittingInvariant):
            return NotImplemented
        return self.numerator.product(other.denominator) == other.numerator.product(
            self.denominator
        )

    def inverse(self) -> "EulerFittingInvariant":
        return EulerFittingInvariant(self.denominator, self.numerator)

    def product(self, other: "EulerFittingInvariant") -> "EulerFittingInvariant":
        return EulerFittingInvariant(
            self.numerator.product(other.numerator),
            self.denominator.product(other.denominator),
        )


class ChainMap:
    """Levelwise maps src^i -> dst^i commuting with the differentials."""

    def __init__(self, src: BoundedComplex, dst: BoundedComplex,
                 maps: dict[int, ModuleMap]) -> None:
        self.src, self.dst, self.maps = src, dst, maps

    def at(self, i: int) -> ModuleMap:
        """Level i: the given map, else the zero map."""
        if i in self.maps:
            return self.maps[i]
        return zero_map(self.src.module_at(i), self.dst.module_at(i))

    def validate(self) -> None:
        for i, f in self.maps.items():
            if not f.is_well_defined():
                raise ValueError(f"chain map level {i} is not well defined")
        alg = self.src.algebra
        for i in self.src.degrees():
            lhs = self.at(i).compose(self.dst.differential_at(i))
            rhs = self.src.differential_at(i).compose(self.at(i + 1))
            diff = [[alg.sub(a, b) for a, b in zip(row_l, row_r)]
                    for row_l, row_r in zip(lhs.matrix, rhs.matrix)]
            if not ModuleMap(lhs.src, lhs.dst, diff).is_zero():
                raise ValueError(f"chain map does not commute with d at degree {i}")


def quasi_iso_check(f: ChainMap) -> bool:
    """True iff the induced maps H^i(src) -> H^i(dst) are bijections.

    The cohomology groups are finite, so H^i(f) is bijective iff it is onto
    and |H^i(src)| = |H^i(dst)|. Onto: the mapped src cocycles together with
    the dst coboundaries span the dst cocycles (the chain-map property puts
    the mapped cocycles inside the dst cocycles).
    """
    f.validate()
    src, dst = f.src, f.dst
    q = src.algebra.q
    for i in range(min(src.lo, dst.lo), max(src.hi, dst.hi) + 1):
        if src.cohomology_size(i) != dst.cohomology_size(i):
            return False
        wd = dst.module_at(i).rwidth
        Zs = src.differential_at(i).kernel_span
        Zd, Bd = dst.differential_at(i).kernel_span, dst.differential_at(i - 1).image_span
        mapped = [combine(z, f.at(i).realization_rows, wd, q) for z in Zs]
        if howell_form(mapped + Bd, wd, q) != Zd:
            return False
    return True


def cone(f: ChainMap) -> BoundedComplex:
    """Mapping cone: cone(f)^i = src^(i+1) (+) dst^i with differential
    (x, y) -> (-d x, f(x) + d y), the extension of src[1] by dst along f."""
    f.validate()
    return extension(f.src.shift(1), f.dst, lambda i: f.at(i + 1).matrix).c2


# ---------------------------------------------------------------------------
# Short exact sequences of complexes.

class ComplexSES:
    """0 -> C1 -> C2 -> C3 -> 0 with levelwise maps inc, quo."""

    def __init__(self, c1: BoundedComplex, c2: BoundedComplex, c3: BoundedComplex,
                 inc: ChainMap, quo: ChainMap) -> None:
        self.c1, self.c2, self.c3, self.inc, self.quo = c1, c2, c3, inc, quo

    def verify_exact(self) -> None:
        """Levelwise exactness of 0 -> C1^i -> C2^i -> C3^i -> 0 by homology_sizes:
        raises at the first C_k^i, lowest i first, where the count is not 1."""
        self.inc.validate()
        self.quo.validate()
        cs = (self.c1, self.c2, self.c3)
        for i in range(min(c.lo for c in cs), max(c.hi for c in cs) + 1):
            for k, size in enumerate(homology_sizes([self.inc.at(i), self.quo.at(i)]), 1):
                if size != 1:
                    raise ValueError(f"sequence is not exact at C{k}^{i}")


def extension(quo: BoundedComplex, sub: BoundedComplex, twist=None) -> ComplexSES:
    """The degreewise split extension 0 -> sub -> E -> quo -> 0 with
    E^i = quo^i (+) sub^i over both degree ranges and differential
    [[d_quo, twist(i)], [0, d_sub]]; twist(i) is a matrix quo^i -> sub^(i+1),
    and None gives the direct sum. A twist of the wrong shape, or one that
    breaks d o d = 0, raises ValueError."""
    alg = quo.algebra
    lo, hi = min(quo.lo, sub.lo), max(quo.hi, sub.hi)
    pairs = [(quo.module_at(i), sub.module_at(i)) for i in range(lo, hi + 1)]
    mods = [Q.direct_sum(S) for Q, S in pairs]
    diffs = []
    for i in range(lo, hi):
        dq, ds = quo.differential_at(i), sub.differential_at(i)
        t = twist(i) if twist else zero_map(dq.src, ds.dst).matrix
        mat = [a + b for a, b in zip(dq.matrix, t, strict=True)]
        mat += [[alg.zero()] * dq.dst.ngens + row for row in ds.matrix]
        diffs.append(ModuleMap(mods[i - lo], mods[i - lo + 1], mat))
    E = BoundedComplex(alg, lo, mods, diffs)
    inc, proj = {}, {}
    for i, (Q, S), M in zip(E.degrees(), pairs, mods):
        zero_q = zero_map(S, Q).matrix
        inc[i] = ModuleMap(S, M, [z + row for z, row in zip(zero_q, identity_map(S).matrix)])
        proj[i] = ModuleMap(M, Q, identity_map(Q).matrix + zero_q)
    return ComplexSES(sub, E, quo, ChainMap(sub, E, inc), ChainMap(E, quo, proj))


def euler_fitting_additivity_check(ses: ComplexSES) -> bool:
    """Fitt(C2) = Fitt(C1) Fitt(C3) as ideal pairs, after verifying the
    levelwise exactness of the sequence."""
    ses.verify_exact()
    mid = ses.c2.euler_fitting()
    outer = ses.c1.euler_fitting().product(ses.c3.euler_fitting())
    return mid == outer
