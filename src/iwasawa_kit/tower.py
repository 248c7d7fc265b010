"""Finite-level model of the Iwasawa algebra: truncated group rings
(Z/p^N)[G_n] along the cyclotomic tower, aug projections, the # involution,
cyclotomic twists, and coherent Stickelberger towers.

A level is the abelian.TowerLevelData of the layer L_n: its Galois
presentation in product coordinates (g, k), with chi_cyc when zeta_p is in L.
A level-n element is a tuple of ints mod p^N in the basis order of groupring
(`level.group.elements()`), which fitting.GroupAlgebra(p, N, level.group)
shares, so Fitting consumers take tower entries as they are. The
aug projections, # and the parity check use the groupring index maps and
reduce mod p^N; no structure constants are built.

A level's theta is computed once as the pair (nums, den) of Q[G_n] and
reduced mod p^N with one inverse of den (exact.padic_from_rational), after
the check that p does not divide den.

Each layer's cyclotomic twist factors chi_cyc(g)^r mod p^N are a table
built once per (level, r, p^N), and its partial zeta values in the # order
a table once per (level, 1 - r). tower_preconditions states every tower rule;
theta_tower admits a tower through it, and a stored tower's header is
admitted through it before TowerElement.from_json builds any level. Each
layer's theta is lvalues.theta_value on the admitted finite primes: that
table, one pass per prime of T (and per unramified prime of S) and one
lowest_terms. The roots-of-unity rule of Hyp(S,T) is read once
per tower, on layer 0 (tower_hyp): every layer's w has the prime divisors of
w_L. A stored tower's verdicts are read the same way, never from its file.

Lambda(G) is represented only through coherent families of finite-level
elements: a tower is accepted exactly when adjacent aug projections match,
and the equivariant Kummer congruence compares a twisted tower against the
untwisted one at the effective precision p^min(N, n+1), the range where
twist(x, r, level, N) is defined.
"""

from __future__ import annotations

from functools import lru_cache

from . import groupring, wire
from .abelian import AbelianFieldSpec, TowerLevelData, cm_data, roots_of_unity_rule
from .exact import padic_from_rational
from .fitting import Vec
from .lvalues import is_p_integral, theta_places, theta_value
from .numutil import is_prime


class PrecisionBudgetError(ValueError):
    """Twist requested beyond the p^(n+1) range where chi_cyc descends."""


class TowerIntegralityError(ValueError):
    def __init__(self, layer: int, message: str):
        super().__init__(f"layer {layer}: {message}")
        self.layer = layer


@lru_cache(maxsize=None)
def tower_level(spec: AbelianFieldSpec, p: int, n: int) -> TowerLevelData:
    return TowerLevelData(spec, p, n)


def aug_project(x: Vec, src: TowerLevelData, target: TowerLevelData, N: int) -> Vec:
    """Pushforward mod p^N along G_m -> G_n, (g, k) -> (g, k mod p^n)."""
    if src.p != target.p or src.base_spec != target.base_spec:
        raise ValueError("aug projection needs levels of one tower")
    if target.n > src.n:
        raise ValueError(f"cannot project layer {src.n} up to layer {target.n}")
    q, images = src.p**N, groupring.reduction(src.group, target.group)
    return tuple([c % q for c in groupring.push(x, images, target.group.size)])


def twist(x: Vec, r: int, level: TowerLevelData, N: int) -> Vec:
    """t_cyc^r mod p^N at finite level: g -> chi_cyc(g)^r g. Requires N <= n+1
    (the exact range where u^(r p^n) = 1 mod p^N, u = chi_cyc(gamma) = 1+p,
    makes this well defined on G_n) and a level where chi_cyc descends
    (zeta_p in the base field)."""
    if N > level.n + 1:
        raise PrecisionBudgetError(
            f"twist needs N <= n+1, got N={N} at layer n={level.n}"
        )
    if r == 0:
        return x
    q = level.p**N
    return tuple([c * u % q for c, u in zip(x, _twist_factors(level, r, q))])


@lru_cache(maxsize=None)
def _twist_factors(level: TowerLevelData, r: int, q: int) -> tuple[int, ...]:
    """chi_cyc(g)^r mod q for each g in the basis order, once per (level, r, q)."""
    return tuple(pow(level.chi_cyc_of(g), r, q) for g in level.group.elements())


# ---------------------------------------------------------------------------
# Stickelberger towers.

class TowerElement:
    """Coherent family of elements of (Z/p^N)[G_n], levels 0..n_max."""

    def __init__(self, p: int, N: int, spec: AbelianFieldSpec, S: tuple, T: tuple, r: int,
                 entries: list[Vec], levels: list[TowerLevelData],
                 hyp_verdicts: list[bool]) -> None:
        self.p, self.N, self.spec, self.S, self.T, self.r = p, N, spec, S, T, r
        self.entries, self.levels, self.hyp_verdicts = entries, levels, hyp_verdicts

    @property
    def n_max(self) -> int:
        return len(self.entries) - 1

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "N": self.N,
            "levels": [
                {"n": n, "coeffs": groupring.to_json(entry, level.group, int)}
                for n, (entry, level) in enumerate(zip(self.entries, self.levels))
            ],
            "meta": {
                "spec": self.spec.to_json(),
                "S": [str(v) for v in self.S],
                "T": [str(v) for v in self.T],
                "r": self.r,
                "hyp": self.hyp_verdicts,
            },
        }

    @staticmethod
    def header(obj) -> tuple:
        """The arguments (spec, S, T, p, N, n_max, r) of tower_preconditions
        that a stored tower's header holds, read under the wire rule before
        any level."""
        tower = wire.node(obj, "tower")
        meta = tower["meta"]
        S, T = (tuple(v.place() for v in meta[k].list()) for k in ("S", "T"))
        return (AbelianFieldSpec.from_json(meta["spec"]), S, T, tower["p"].int(),
                tower["N"].int(), len(tower["levels"].list()) - 1, meta["r"].int())

    @classmethod
    def from_json(cls, obj, admitted, strict_hyp: bool = False) -> "TowerElement":
        """Parse a stored tower under the wire rule. `admitted` is the pair
        (header, t_fin) of its header, read by `header` and admitted by
        tower_preconditions before any level is built. Its Hyp(S,T) verdicts
        are computed by tower_hyp, as theta_tower computes them;
        meta.hyp, when present, holds one boolean per level and must equal
        them. A level out of order (checked before any level is built) or a
        key that is no group element raises ValueError."""
        tower = wire.node(obj, "tower")
        (spec, S, T, p, N, n_max, r), t_fin = admitted
        meta = tower["meta"]
        stored = [b.bool() for b in meta["hyp"].list(n_max + 1)] if "hyp" in meta.value else None
        for n, lvl in enumerate(tower["levels"].list()):
            if (label := lvl["n"].int()) != n:
                raise ValueError(f"level {n} is labelled n = {label}")
        hyp = [tower_hyp(spec, p, t_fin, strict_hyp)] * (n_max + 1)
        if stored not in (None, hyp):
            raise ValueError(f"meta.hyp is {stored}, but Hyp(S,T) gives {hyp}")
        entries, levels = [], []
        for n, lvl in enumerate(tower["levels"].list()):
            data = tower_level(spec, p, n)
            entry = groupring.from_json(lvl["coeffs"], data.group, wire.Node.int)
            entries.append(tuple(c % p**N for c in entry))
            levels.append(data)
        return cls(p, N, spec, S, T, r, entries, levels, hyp)


def tower_preconditions(
    spec: AbelianFieldSpec, S, T, p: int, N: int, n_max: int, r: int
) -> tuple[set[int], set[int]]:
    """Every tower rule, cheap rules first, before any Galois group or level is
    built: p an odd prime; N >= 1 and n_max >= 0; v_p(modulus) <= 1, so that
    L and the tower are linearly disjoint (abelian.layer); r and the places
    fit theta on the base field (lvalues.theta_places); p in S, as the one
    prime that ramifies up the tower. Returns the finite primes of S and T."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"theta_tower needs an odd prime, got {p}")
    if N < 1 or n_max < 0:
        raise ValueError("need N >= 1 and n_max >= 0")
    vp, m = 0, spec.modulus
    while m % p == 0:
        vp, m = vp + 1, m // p
    if vp >= 2:
        raise ValueError(f"v_{p}(modulus) = {vp} >= 2: the field presentation does not pin "
                         "a tower base")
    s_fin, t_fin = theta_places(spec, S, T, r)
    if p not in s_fin:
        raise ValueError(f"S must contain p = {p} (it ramifies in the tower)")
    return s_fin, t_fin


def tower_hyp(spec: AbelianFieldSpec, p: int, t_fin, strict_hyp: bool) -> bool:
    """Hyp(S,T) on every layer of the tower over spec, read on layer 0 from the
    admitted finite primes t_fin of T (see theta_tower); under strict_hyp a
    failure is refused at layer 0."""
    ok, why = roots_of_unity_rule(tower_level(spec, p, 0).spec, t_fin)
    if strict_hyp and not ok:
        raise TowerIntegralityError(0, f"Hyp(S,T) fails: {why}")
    return ok


def theta_tower(
    spec: AbelianFieldSpec,
    S,
    T,
    p: int,
    N: int,
    n_max: int,
    r: int,
    strict_hyp: bool = False,
) -> TowerElement:
    """Theta_{S,T}(L_n/Q, r) mod p^N for n = 0..n_max.

    Preconditions: tower_preconditions, before any level is built. Every
    layer value must be exactly p-integral before reduction; a non-integral
    layer aborts with its index.
    Hyp(S,T) is read once, on layer 0 (tower_hyp), and recorded for every
    layer (enforced under strict_hyp, which refuses at layer 0): the places fit
    every layer once they fit the base with p in S, so a layer's verdict is
    the roots-of-unity rule of its w_L; L_n/L is totally ramified at p and
    unramified elsewhere, so w_(L_n) and w_L have the same prime divisors,
    and the verdict, which reads only those, is check_hyp on every layer's
    spec. Each layer's value is lvalues.theta_value on the admitted primes.
    """
    s_fin, t_fin = tower_preconditions(spec, S, T, p, N, n_max, r)
    ok = tower_hyp(spec, p, t_fin, strict_hyp)
    entries, levels = [], []
    for n in range(n_max + 1):
        lvl = tower_level(spec, p, n)
        value = theta_value(lvl, s_fin, t_fin, r)
        if not is_p_integral(value, p):
            raise TowerIntegralityError(
                n, f"theta has a coefficient denominator divisible by {p}"
            )
        entries.append(padic_from_rational(value, p, N))
        levels.append(lvl)
    return TowerElement(p, N, spec, tuple(S), tuple(T), r, entries, levels, [ok] * (n_max + 1))


def coherence_check(t: TowerElement) -> tuple[bool, int | None]:
    """True iff all adjacent aug projections match exactly; on failure,
    returns the lower index of the first mismatching pair."""
    for n in range(t.n_max):
        projected = aug_project(t.entries[n + 1], t.levels[n + 1], t.levels[n], t.N)
        if projected != t.entries[n]:
            return False, n
    return True, None


def twist_congruence_check(t_r: TowerElement, t_0: TowerElement) -> tuple[bool, int | None]:
    """Equivariant Kummer congruence: Theta(L_n, r) = twist(Theta(L_n, 0), r)
    mod p^min(N, n+1) at every level (exact at that precision)."""
    if (t_r.p, t_r.spec, t_r.S, t_r.T) != (t_0.p, t_0.spec, t_0.S, t_0.T):
        raise ValueError("towers must share (spec, S, T, p)")
    if t_0.r != 0:
        raise ValueError("the reference tower must be at r = 0")
    if t_r.n_max != t_0.n_max:
        raise ValueError("towers must have the same number of levels")
    for n in range(t_r.n_max + 1):
        ne = min(t_r.N, t_0.N, n + 1)
        q = t_r.p**ne
        lhs = tuple([c % q for c in t_r.entries[n]])
        rhs = twist(tuple([c % q for c in t_0.entries[n]]), t_r.r, t_r.levels[n], ne)
        if lhs != rhs:
            return False, n
    return True, None


def parity_projector_annihilates(t: TowerElement, n: int) -> bool:
    """(1 + (-1)^r j) kills the level-n entry (minus-part consistency for the
    CM corpus); j is complex conjugation lifted to G_n."""
    cm = cm_data(t.spec)
    if cm is None:
        raise ValueError("parity check needs a CM base field")
    x = t.entries[n]
    jx = groupring.translate(x, t.levels[n].group, cm.j + (0,))
    sign = 1 if t.r % 2 == 0 else -1
    q = t.p**t.N
    return not any([(a + sign * b) % q for a, b in zip(x, jx)])
