"""Bounded complexes of finitely presented modules over a finite commutative
algebra: cohomology, shift, cone, quasi-isomorphism detection, and the
Euler-Fitting invariant (the alternating product of Fitting ideals of
cohomology, as an ideal pair to avoid division in non-domains).
"""

from __future__ import annotations

from dataclasses import dataclass
from .fitting import (
    FiniteCommAlgebra,
    FinPresModule,
    IdealHandle,
    ModuleMap,
    subquotient_presentation,
    unit_ideal,
)
from .linalg import combine, howell_form, preimage_span, span_size


class BoundedComplex:
    """Cochain complex with degrees lo..hi; differentials[i]: C^i -> C^(i+1).

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
        if len(differentials) != max(len(modules) - 1, 0):
            raise ValueError("need one differential per adjacent pair")
        self.algebra = algebra
        self.lo = lo
        self.modules = modules
        self.differentials = []
        for i, d in enumerate(differentials):
            if len(d.matrix) != modules[i].ngens or (
                d.matrix and len(d.matrix[0]) != modules[i + 1].ngens
            ):
                raise ValueError(f"differential {i} does not connect its terms")
            # re-anchor onto the listed modules so relation data is consistent
            d = ModuleMap(modules[i], modules[i + 1], d.matrix)
            if not d.is_well_defined():
                raise ValueError(f"differential in degree {lo + i} is not well defined")
            self.differentials.append(d)
        differentials = self.differentials
        for i in range(len(differentials) - 1):
            comp = differentials[i].compose(differentials[i + 1])
            zero_rows = all(
                modules[i + 2].is_zero_element(row) for row in comp.matrix
            )
            if not zero_rows:
                raise ValueError(f"d o d != 0 at degree {lo + i}")

    @property
    def hi(self) -> int:
        return self.lo + len(self.modules) - 1

    def degrees(self) -> range:
        return range(self.lo, self.hi + 1)

    def module_at(self, i: int) -> FinPresModule | None:
        if self.lo <= i <= self.hi:
            return self.modules[i - self.lo]
        return None

    def differential_at(self, i: int) -> ModuleMap | None:
        if self.lo <= i < self.hi:
            return self.differentials[i - self.lo]
        return None

    # -- cohomology --------------------------------------------------------

    def _cocycle_span(self, i: int):
        M = self.module_at(i)
        d = self.differential_at(i)
        if d is None:
            full = [
                [int(r == c) for c in range(M.rwidth)] for r in range(M.rwidth)
            ]
            return howell_form(full, M.rwidth, self.algebra.R)
        return d.kernel_span

    def _coboundary_span(self, i: int):
        M = self.module_at(i)
        dprev = self.differential_at(i - 1)
        if dprev is None:
            return M.relation_span
        return dprev.image_span

    def cohomology(self, i: int) -> FinPresModule:
        """H^i = ker(d^i)/im(d^(i-1)) with a derived presentation over the
        algebra (Howell kernels and spans over Z/p^N)."""
        M = self.module_at(i)
        if M is None:
            return FinPresModule(self.algebra, 0, [])
        Z = self._cocycle_span(i)
        B = self._coboundary_span(i)
        return subquotient_presentation(self.algebra, M.ngens, Z, B).module

    def cohomology_size(self, i: int) -> int:
        M = self.module_at(i)
        if M is None:
            return 1
        R = self.algebra.R
        return span_size(self._cocycle_span(i), R) // span_size(self._coboundary_span(i), R)

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


@dataclass
class EulerFittingInvariant:
    """Ideal pair (numerator, denominator); equality by cross-multiplication."""

    numerator: IdealHandle
    denominator: IdealHandle

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


@dataclass
class ChainMap:
    """Levelwise maps src^i -> dst^i commuting with the differentials."""

    src: BoundedComplex
    dst: BoundedComplex
    maps: dict[int, ModuleMap]

    def validate(self) -> None:
        for i, f in self.maps.items():
            if not f.is_well_defined():
                raise ValueError(f"chain map level {i} is not well defined")
        for i in self.src.degrees():
            if self.src.module_at(i) is None:
                continue
            f_i = self.maps.get(i)
            d_src = self.src.differential_at(i)
            d_dst = self.dst.differential_at(i)
            lhs = None
            if f_i is not None and d_dst is not None:
                lhs = f_i.compose(d_dst)
            rhs = None
            if d_src is not None and self.maps.get(i + 1) is not None:
                rhs = d_src.compose(self.maps[i + 1])
            if lhs is None and rhs is None:
                continue
            target = self.dst.module_at(i + 1)
            if target is None:
                continue
            nsrc = self.src.module_at(i).ngens
            zero_mat = [[target.algebra.zero()] * target.ngens for _ in range(nsrc)]
            lmat = lhs.matrix if lhs else zero_mat
            rmat = rhs.matrix if rhs else zero_mat
            for row_l, row_r in zip(lmat, rmat):
                diff = [target.algebra.sub(a, b) for a, b in zip(row_l, row_r)]
                if not target.is_zero_element(diff):
                    raise ValueError(f"chain map does not commute with d at degree {i}")


def quasi_iso_check(f: ChainMap) -> bool:
    """True iff the induced maps H^i(src) -> H^i(dst) are bijections.

    Injectivity: the preimage in the src cocycles of the dst coboundaries is
    exactly the src coboundaries; surjectivity: mapped cocycles together with
    dst coboundaries span the dst cocycles.
    """
    f.validate()
    src, dst = f.src, f.dst
    R, q = src.algebra.R, src.algebra.q
    for i in range(min(src.lo, dst.lo), max(src.hi, dst.hi) + 1):
        Ms, Md = src.module_at(i), dst.module_at(i)
        if Ms is None or Md is None:
            hs = src.cohomology_size(i) if Ms is not None else 1
            hd = dst.cohomology_size(i) if Md is not None else 1
            if hs != hd or hs != 1:
                return False
            continue
        level = f.maps.get(i)
        if level is None:
            raise ValueError(f"chain map misses level {i}")
        Zs, Bs = src._cocycle_span(i), src._coboundary_span(i)
        Zd, Bd = dst._cocycle_span(i), dst._coboundary_span(i)
        # map the source cocycle generators through the realization
        mapped = [combine(z, level.realization_rows, Md.rwidth, q) for z in Zs]
        # injectivity on cohomology
        pre_b = preimage_span(mapped, Bd, Md.rwidth, R)
        # pre_b lives in coefficients of Zs rows: convert to ambient span
        amb = [combine(y, Zs, Ms.rwidth, q) for y in pre_b]
        ker_coh = howell_form(amb + [list(r) for r in Bs], Ms.rwidth, R)
        if ker_coh != howell_form([list(r) for r in Bs], Ms.rwidth, R):
            return False
        # surjectivity on cohomology
        image_plus_b = howell_form(mapped + [list(r) for r in Bd], Md.rwidth, R)
        if image_plus_b != Zd:
            return False
    return True


def cone(f: ChainMap) -> BoundedComplex:
    """Mapping cone: cone(f)^i = src^(i+1) (+) dst^i with differential
    (x, y) -> (-d x, f(x) + d y)."""
    f.validate()
    src, dst = f.src, f.dst
    alg = src.algebra
    lo = min(src.lo - 1, dst.lo)
    hi = max(src.hi - 1, dst.hi)
    modules = []
    for i in range(lo, hi + 1):
        Ms = src.module_at(i + 1)
        Md = dst.module_at(i)
        parts = []
        if Ms is not None:
            parts.append(Ms)
        if Md is not None:
            parts.append(Md)
        if not parts:
            modules.append(FinPresModule(alg, 0, []))
        elif len(parts) == 1:
            modules.append(parts[0])
        else:
            modules.append(parts[0].direct_sum(parts[1]))
    diffs = []
    for i in range(lo, hi):
        M_here, M_next = modules[i - lo], modules[i - lo + 1]
        ns = src.module_at(i + 1).ngens if src.module_at(i + 1) else 0
        nd = dst.module_at(i).ngens if dst.module_at(i) else 0
        ns2 = src.module_at(i + 2).ngens if src.module_at(i + 2) else 0
        nd2 = dst.module_at(i + 1).ngens if dst.module_at(i + 1) else 0
        mat = [[alg.zero()] * (ns2 + nd2) for _ in range(ns + nd)]
        d_src = src.differential_at(i + 1)
        if d_src is not None:
            for a in range(ns):
                for b in range(ns2):
                    mat[a][b] = alg.neg(d_src.matrix[a][b])
        level = f.maps.get(i + 1)
        if level is not None and ns and nd2:
            for a in range(ns):
                for b in range(nd2):
                    mat[a][ns2 + b] = level.matrix[a][b]
        d_dst = dst.differential_at(i)
        if d_dst is not None:
            for a in range(nd):
                for b in range(nd2):
                    mat[ns + a][ns2 + b] = d_dst.matrix[a][b]
        diffs.append(ModuleMap(M_here, M_next, mat))
    return BoundedComplex(alg, lo, modules, diffs)


# ---------------------------------------------------------------------------
# Short exact sequences of complexes.

@dataclass
class ComplexSES:
    """0 -> C1 -> C2 -> C3 -> 0 with levelwise maps inc, quo."""

    c1: BoundedComplex
    c2: BoundedComplex
    c3: BoundedComplex
    inc: ChainMap
    quo: ChainMap

    def verify_exact(self) -> None:
        self.inc.validate()
        self.quo.validate()
        lo = min(self.c1.lo, self.c2.lo, self.c3.lo)
        hi = max(self.c1.hi, self.c2.hi, self.c3.hi)
        for i in range(lo, hi + 1):
            M1, M2, M3 = (c.module_at(i) for c in (self.c1, self.c2, self.c3))
            sz = lambda M: 1 if M is None else M.size()
            if sz(M2) != sz(M1) * sz(M3):
                raise ValueError(f"sizes are not multiplicative at degree {i}")
            if M2 is None:
                continue
            f = self.inc.maps.get(i) if M1 is not None else None
            g = self.quo.maps.get(i) if M3 is not None else None
            if M1 is not None:
                if f is None or not f.is_injective():
                    raise ValueError(f"inclusion not injective at degree {i}")
            if M3 is not None:
                if g is None or not g.is_surjective():
                    raise ValueError(f"quotient not surjective at degree {i}")
            if M1 is not None and M3 is not None:
                if f.image_span != g.kernel_span:
                    raise ValueError(f"not exact in the middle at degree {i}")


def euler_fitting_additivity_check(ses: ComplexSES) -> bool:
    """Fitt(C2) = Fitt(C1) Fitt(C3) as ideal pairs, after verifying the
    levelwise exactness of the sequence."""
    ses.verify_exact()
    mid = ses.c2.euler_fitting()
    outer = ses.c1.euler_fitting().product(ses.c3.euler_fitting())
    return mid == outer
