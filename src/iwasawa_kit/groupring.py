"""Group-ring elements over a finite abelian group.

Coefficients are exact values over Q: Fraction or CyclotomicInt. Missing
keys mean 0; the stored coefficient dict never holds zeros, so equality is
dict equality. The # involution is the coefficient-preserving map induced by
g -> g^(-1). Reductions mod p^N live elsewhere as int vectors (fitting's
GroupAlgebra and the tower entries).
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Callable

from .exact import CyclotomicInt, rat_from_str, rat_to_str

if TYPE_CHECKING:  # avoid a runtime import cycle with abelian
    from .abelian import FiniteAbelianGroup


def coeff_is_zero(c) -> bool:
    if isinstance(c, CyclotomicInt):
        return c.is_zero()
    return c == 0


class GroupRingElement:
    """Finitely supported coefficient map on a finite abelian group."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group: "FiniteAbelianGroup", coeffs: dict):
        self.group = group
        self.coeffs = {g: c for g, c in coeffs.items() if not coeff_is_zero(c)}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, group) -> "GroupRingElement":
        return cls(group, {})

    @classmethod
    def scalar(cls, group, c) -> "GroupRingElement":
        return cls(group, {group.identity: c})

    @classmethod
    def of_element(cls, group, g, c=Fraction(1)) -> "GroupRingElement":
        return cls(group, {group.reduce(g): c})

    # -- ring structure ----------------------------------------------------

    def _check(self, other: "GroupRingElement") -> None:
        if self.group.orders != other.group.orders:
            raise ValueError("group mismatch in group-ring arithmetic")

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._check(other)
        out = dict(self.coeffs)
        for g, c in other.coeffs.items():
            out[g] = out[g] + c if g in out else c
        return GroupRingElement(self.group, out)

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement(self.group, {g: -c for g, c in self.coeffs.items()})

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + (-other)

    def __mul__(self, other) -> "GroupRingElement":
        if not isinstance(other, GroupRingElement):
            return self.scale(other)
        self._check(other)
        grp = self.group
        out: dict = {}
        for g, c in self.coeffs.items():
            for h, d in other.coeffs.items():
                k = grp.mul(g, h)
                cd = c * d
                out[k] = out[k] + cd if k in out else cd
        return GroupRingElement(grp, out)

    __rmul__ = __mul__

    def scale(self, c) -> "GroupRingElement":
        return GroupRingElement(self.group, {g: v * c for g, v in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupRingElement)
            and self.group.orders == other.group.orders
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.group.orders, frozenset(self.coeffs.items())))

    def __repr__(self) -> str:
        terms = ", ".join(f"{g}: {c}" for g, c in sorted(self.coeffs.items()))
        return f"GroupRingElement({{{terms}}})"

    # -- structure maps ----------------------------------------------------

    def coefficient(self, g):
        return self.coeffs.get(self.group.reduce(g), Fraction(0))

    def is_zero(self) -> bool:
        return not self.coeffs

    def sharp(self) -> "GroupRingElement":
        """The involution #: coefficient at g moves to g^(-1)."""
        grp = self.group
        return GroupRingElement(grp, {grp.inv(g): c for g, c in self.coeffs.items()})

    def map_coefficients(self, fn: Callable) -> "GroupRingElement":
        return GroupRingElement(self.group, {g: fn(c) for g, c in self.coeffs.items()})

    def pushforward(self, target_group, element_map: Callable) -> "GroupRingElement":
        """Coefficientwise pushforward along a group homomorphism."""
        out: dict = {}
        for g, c in self.coeffs.items():
            k = target_group.reduce(element_map(g))
            out[k] = out[k] + c if k in out else c
        return GroupRingElement(target_group, out)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        out = {}
        for g in sorted(self.coeffs):
            c = self.coeffs[g]
            key = ",".join(str(e) for e in g)
            if isinstance(c, CyclotomicInt):
                out[key] = [rat_to_str(x) for x in c.coeffs]
            else:
                out[key] = rat_to_str(c)
        return out

    @classmethod
    def from_json(cls, group, obj: dict) -> "GroupRingElement":
        coeffs = {}
        for key, val in obj.items():
            g = tuple(int(e) for e in key.split(",")) if key else ()
            coeffs[g] = rat_from_str(val)
        return cls(group, coeffs)
