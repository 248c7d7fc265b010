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

Lambda(G) is represented only through coherent families of finite-level
elements: a tower is accepted exactly when adjacent aug projections match,
and the equivariant Kummer congruence compares a twisted tower against the
untwisted one at the effective precision p^min(N, n+1), the range where
twist(x, r, level, N) is defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import groupring, wire
from .abelian import (
    AbelianFieldSpec,
    TowerLevelData,
    check_hyp,
    cm_data,
    normalize_places,
    ramified_primes,
)
from .exact import padic_from_rational
from .fitting import Vec
from .lvalues import is_p_integral, theta
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
    pushed = groupring.pushforward(
        x, src.group, target.group, lambda g: src.project(g, target.n)
    )
    q = src.p**N
    return tuple(c % q for c in pushed)


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
    return tuple(
        c * pow(level.chi_cyc_of(g), r, q) % q for g, c in zip(level.group.elements(), x)
    )


# ---------------------------------------------------------------------------
# Stickelberger towers.

@dataclass
class TowerElement:
    """Coherent family of elements of (Z/p^N)[G_n], levels 0..n_max."""

    p: int
    N: int
    spec: AbelianFieldSpec
    S: tuple
    T: tuple
    r: int
    entries: list[Vec]
    levels: list[TowerLevelData]
    hyp_verdicts: list[bool]

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

    @classmethod
    def from_json(cls, obj) -> "TowerElement":
        """Parse a stored tower under the wire rule; meta.hyp, when present,
        holds one boolean per level. A p that is not an odd prime, N < 1, a
        level out of order or a key that is no group element raise ValueError."""
        tower = wire.node(obj, "tower")
        p, N = tower["p"].int(), tower["N"].int()
        if p == 2 or not is_prime(p) or N < 1:
            raise ValueError(f"a tower needs an odd prime p and N >= 1, got p={p}, N={N}")
        meta = tower["meta"]
        spec = AbelianFieldSpec.from_json(meta["spec"])
        S, T = (tuple(v.place() for v in meta[k].list()) for k in ("S", "T"))
        entries, levels = [], []
        for n, lvl in enumerate(tower["levels"].list()):
            if (label := lvl["n"].int()) != n:
                raise ValueError(f"level {n} is labelled n = {label}")
            data = tower_level(spec, p, n)
            entry = groupring.from_json(lvl["coeffs"], data.group, wire.Node.int)
            entries.append(tuple(c % p**N for c in entry))
            levels.append(data)
        hyp = meta.get("hyp", [True] * len(entries)).list(len(entries))
        return cls(
            p, N, spec, S, T, meta["r"].int(), entries, levels, [b.bool() for b in hyp]
        )


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

    Preconditions: p odd, v_p(modulus) <= 1, S contains the primes ramified
    in the tower (those of the base conductor, p, and the infinite place),
    S and T disjoint. Every layer value must be exactly p-integral before
    reduction; a non-integral layer aborts with its index. Hyp(S,T) is
    evaluated per layer and recorded (enforced under strict_hyp).
    """
    if p == 2 or not is_prime(p):
        raise ValueError(f"theta_tower needs an odd prime, got {p}")
    if N < 1 or n_max < 0:
        raise ValueError("need N >= 1 and n_max >= 0")
    s_fin, s_inf = normalize_places(S)
    t_fin, _ = normalize_places(T)
    if not s_inf:
        raise ValueError("S must contain the infinite place")
    if p not in s_fin:
        raise ValueError(f"S must contain p = {p} (it ramifies in the tower)")
    ram = ramified_primes(spec)
    if not ram - {p} <= s_fin:
        raise ValueError(f"S misses base ramified primes {sorted(ram - s_fin)}")
    if s_fin & t_fin:
        raise ValueError(f"S and T meet at {sorted(s_fin & t_fin)}")

    entries, levels, hyps = [], [], []
    for n in range(n_max + 1):
        lvl = tower_level(spec, p, n)
        ok, why = check_hyp(lvl.spec, S, T)
        hyps.append(ok)
        if strict_hyp and not ok:
            raise TowerIntegralityError(n, f"Hyp(S,T) fails: {why}")
        th = theta(lvl, S, T, r)
        if not is_p_integral(th, p):
            raise TowerIntegralityError(
                n, f"theta has a coefficient denominator divisible by {p}"
            )
        entries.append(padic_from_rational(th.value, p, N))
        levels.append(lvl)
    return TowerElement(p, N, spec, tuple(S), tuple(T), r, entries, levels, hyps)


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
        lhs = tuple(c % q for c in t_r.entries[n])
        rhs = twist(tuple(c % q for c in t_0.entries[n]), t_r.r, t_r.levels[n], ne)
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
    return all((a + sign * b) % q == 0 for a, b in zip(x, jx))
