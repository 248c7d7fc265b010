"""Exact linear algebra over the chain ring Z/p^N.

Everything reduces to the Howell normal form: a canonical echelon form whose
row span is saturated (closed under the hidden p^(N-v) multiples), so that
span membership, span equality, kernels and canonical coset representatives
are all exact. Vectors are plain int lists; the ring context is a ZModPN.
"""

from __future__ import annotations

from dataclasses import dataclass

from .numutil import is_prime


@dataclass(frozen=True)
class ZModPN:
    p: int
    N: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"ZModPN needs a prime, got {self.p}")
        if self.N < 1:
            raise ValueError(f"ZModPN needs N >= 1, got {self.N}")

    @property
    def q(self) -> int:
        return self.p**self.N

    def val(self, x: int) -> int:
        """p-adic valuation of the representative x mod q (val(0) = N)."""
        x %= self.q
        if x == 0:
            return self.N
        v = 0
        while x % self.p == 0:
            x //= self.p
            v += 1
        return v

    def unit_inverse(self, x: int) -> int:
        return pow(x, -1, self.q)


def howell_form(rows: list[list[int]], width: int, R: ZModPN) -> list[list[int]]:
    """Canonical Howell normal form of the row span inside (Z/p^N)^width.

    Pivots are p^v with the unit part normalized away; every entry above a
    pivot is reduced mod the pivot; the span is saturated by processing the
    p^(N-v) shadow of each pivot row. Two row sets span the same submodule
    iff their Howell forms are identical.
    """
    p, q, N = R.p, R.q, R.N
    pool = []
    for r in rows:
        rr = [c % q for c in r]
        if any(rr):
            pool.append(rr)
    pivots: list[tuple[int, list[int]]] = []
    for col in range(width):
        cand, rest = [], []
        for r in pool:
            lead = next((j for j, c in enumerate(r) if c), None)
            if lead is None:
                continue
            (cand if lead == col else rest).append(r)
        pool = rest
        if not cand:
            continue
        piv = min(cand, key=lambda r: R.val(r[col]))
        cand.remove(piv)
        v = R.val(piv[col])
        pv = p**v
        u_inv = R.unit_inverse(piv[col] // pv)
        piv = [(c * u_inv) % q for c in piv]
        for r in cand:
            f = r[col] // pv  # exact: val(r[col]) >= v by pivot choice
            rr = [(a - f * b) % q for a, b in zip(r, piv)]
            if any(rr):
                pool.append(rr)
        pivots.append((col, piv))
        if v > 0:
            shadow = [(p ** (N - v) * c) % q for c in piv]
            if any(shadow):
                pool.append(shadow)
    out = [r for _, r in pivots]
    for i, (col, piv) in enumerate(pivots):
        pv = p ** R.val(piv[col])
        for j in range(i):
            f = out[j][col] // pv
            if f:
                out[j] = [(a - f * b) % q for a, b in zip(out[j], piv)]
    return out


def reduce_mod_span(x: list[int], howell: list[list[int]], R: ZModPN) -> list[int]:
    """Canonical representative of x modulo the span of a Howell form."""
    p, q = R.p, R.q
    y = [c % q for c in x]
    for r in howell:
        col = next(j for j, c in enumerate(r) if c)
        pv = p ** R.val(r[col])
        f = y[col] // pv
        if f:
            y = [(a - f * b) % q for a, b in zip(y, r)]
    return y


def in_span(x: list[int], howell: list[list[int]], R: ZModPN) -> bool:
    return not any(reduce_mod_span(x, howell, R))


def solve_in_span(
    x: list[int], rows: list[list[int]], R: ZModPN
) -> list[int] | None:
    """Coefficients c with x = sum c_i rows[i] mod p^N, or None."""
    n = len(rows)
    width = len(x)
    aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    H = howell_form(aug, width + n, R)
    p, q = R.p, R.q
    y = [c % q for c in x] + [0] * n
    for r in H:
        col = next(j for j, c in enumerate(r) if c)
        if col >= width:
            break
        pv = p ** R.val(r[col])
        if y[col] % pv:
            return None
        f = y[col] // pv
        if f:
            y = [(a - f * b) % q for a, b in zip(y, r)]
    if any(y[:width]):
        return None
    return [(-c) % q for c in y[width:]]


def left_kernel(rows: list[list[int]], width: int, R: ZModPN) -> list[list[int]]:
    """Howell generators of {y : sum y_i rows[i] = 0} in (Z/p^N)^len(rows)."""
    n = len(rows)
    aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    H = howell_form(aug, width + n, R)
    ker = [r[width:] for r in H if not any(r[:width])]
    return howell_form(ker, n, R)


def preimage_span(
    rows: list[list[int]], target: list[list[int]], width: int, R: ZModPN
) -> list[list[int]]:
    """Howell generators of {y : sum y_i rows[i] in span(target)}."""
    n = len(rows)
    stacked = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    stacked += [list(t) + [0] * n for t in target]
    H = howell_form(stacked, width + n, R)
    ker = [r[width:] for r in H if not any(r[:width])]
    return howell_form(ker, n, R)


def span_size(howell: list[list[int]], R: ZModPN) -> int:
    size = 1
    for r in howell:
        col = next(j for j, c in enumerate(r) if c)
        size *= R.p ** (R.N - R.val(r[col]))
    return size


def matrix_inverse(M: list[list[int]], R: ZModPN) -> list[list[int]]:
    """Inverse of a unimodular matrix over Z/p^N (Gauss-Jordan; unit pivots
    exist at every step because M is invertible mod p)."""
    n = len(M)
    q = R.q
    A = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(M)]
    for t in range(n):
        piv = next((i for i in range(t, n) if A[i][t] % R.p != 0), None)
        if piv is None:
            raise ValueError("matrix is not invertible mod p")
        A[t], A[piv] = A[piv], A[t]
        inv = R.unit_inverse(A[t][t])
        A[t] = [(c * inv) % q for c in A[t]]
        for i in range(n):
            if i != t and A[i][t]:
                f = A[i][t]
                A[i] = [(a - f * b) % q for a, b in zip(A[i], A[t])]
    return [r[n:] for r in A]


def smith_over_chain(
    rows: list[list[int]], width: int, R: ZModPN
) -> tuple[list[int], list[list[int]]]:
    """Diagonalize the row span over Z/p^N: returns (vals, V) with V
    unimodular such that span(rows . V) = span(diag(p^vals)).

    vals[t] is the valuation of the t-th diagonal relation (N for coordinates
    carrying no relation), so the quotient (Z/p^N)^width / span has cyclic
    decomposition  sum_t Z/p^vals[t]  in the y = x.V coordinates.
    """
    p, q, N = R.p, R.q, R.N
    A = [[c % q for c in r] for r in rows]
    nr = len(A)
    V = [[int(i == j) for j in range(width)] for i in range(width)]
    rank = 0
    for t in range(min(nr, width)):
        best = None
        for i in range(t, nr):
            for j in range(t, width):
                if A[i][j]:
                    v = R.val(A[i][j])
                    if best is None or v < best[0]:
                        best = (v, i, j)
        if best is None:
            break
        v, bi, bj = best
        A[bi], A[t] = A[t], A[bi]
        if bj != t:
            for i in range(nr):
                A[i][bj], A[i][t] = A[i][t], A[i][bj]
            for i in range(width):
                V[i][bj], V[i][t] = V[i][t], V[i][bj]
        pv = p**v
        u_inv = R.unit_inverse(A[t][t] // pv)
        A[t] = [(c * u_inv) % q for c in A[t]]
        for i in range(nr):
            if i != t and A[i][t]:
                f = A[i][t] // pv  # exact: pivot has globally minimal valuation
                A[i] = [(a - f * b) % q for a, b in zip(A[i], A[t])]
        for j in range(width):
            if j != t and A[t][j]:
                f = A[t][j] // pv
                for i in range(nr):
                    A[i][j] = (A[i][j] - f * A[i][t]) % q
                for i in range(width):
                    V[i][j] = (V[i][j] - f * V[i][t]) % q
        rank = t + 1
    vals = [R.val(A[t][t]) if t < rank else N for t in range(width)]
    return vals, V
