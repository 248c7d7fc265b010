"""Exact linear algebra over the chain ring Z/p^N: the Howell normal form, and
the one Smith form.

Span questions reduce to the Howell form: a canonical echelon form whose row
span is saturated (closed under the hidden p^(N-v) multiples), so that span
membership, span equality, kernels and canonical coset representatives are all
exact. A valuation is read as gcd(x, p^N) = p^v, and a Howell pivot is the
power p^v itself, so readers of a form take p^v straight off its pivot
entries. Vectors are plain int lists and the ring is named by its modulus
q = p^N alone, as the Howell form is; the algebras check p and N where a
modulus is born. The Smith form works over Z, on the relation lattices of
Galois groups.
"""

from __future__ import annotations

from math import gcd


def howell_form(rows: list[list[int]], width: int, q: int) -> list[list[int]]:
    """Canonical Howell normal form of the row span inside (Z/q)^width, q = p^N.

    Every row has at least `width` entries, and the first `width` lead: a
    row is filed by its first nonzero entry among them, and the rest ride
    along. The kit's callers pass rows of exactly `width`.
    Pivots are p^v with the unit part normalized away; every entry above a
    pivot is reduced mod the pivot; the span is saturated by processing the
    p^(N-v) shadow of each pivot row. Two row sets span the same submodule
    iff their Howell forms are identical (Storjohann-Mulders, ESA 1998).
    The valuation of an entry x is read as gcd(x, q) = p^v: it orders the
    candidate pivots and gives the shadow multiplier q // p^v. Rows wait in
    one bucket per leading column. The pivot of column col is the lone row
    of its bucket, or the first row of least valuation, found in one scan
    that stops at the first unit. The earlier pivot rows are reduced by it
    as it is placed. The other rows and the pivot's shadow (its entry at col
    is 0 mod q, so it is filed unchanged, after them) are reduced by the
    pivot and lead after col, so their search starts at col + 1.
    """
    if not rows:
        return []
    buckets: list[list[list[int]]] = [[] for _ in range(width)]
    for r in rows:
        r = [c % q for c in r]
        for j in range(width):
            if r[j]:
                buckets[j].append(r)
                break
    out: list[list[int]] = []
    for col in range(width):
        cand = buckets[col]
        if not cand:
            continue
        if len(cand) == 1:
            piv = cand.pop()
            pv = gcd(piv[col], q)
        else:
            best, pv = 0, q
            for i, r in enumerate(cand):
                g = gcd(r[col], q)
                if g < pv:
                    best, pv = i, g
                    if g == 1:
                        break
            piv = cand.pop(best)
        u = piv[col] // pv
        if u != 1:
            u_inv = pow(u, -1, q)
            piv = [(c * u_inv) % q for c in piv]
        for i, r in enumerate(out):
            f = r[col] // pv
            if f:
                out[i] = [(a - f * b) % q for a, b in zip(r, piv)]
        out.append(piv)
        if pv > 1:
            cand.append([(q // pv * c) % q for c in piv])
        for r in cand:
            f = r[col] // pv  # exact: p^v divides r[col] by pivot choice
            if f:
                r = [(a - f * b) % q for a, b in zip(r, piv)]
            for j in range(col + 1, width):
                if r[j]:
                    buckets[j].append(r)
                    break
    return out


def reduce_mod_span(x: list[int], howell: list[list[int]], q: int) -> list[int]:
    """Canonical representative of x modulo the span of a Howell form (whose
    pivot entries are the p^v themselves)."""
    y = [c % q for c in x]
    for r in howell:
        pv = next(filter(None, r))
        col = r.index(pv)
        f = y[col] // pv
        if f:
            y = [(a - f * b) % q for a, b in zip(y, r)]
    return y


def in_span(x: list[int], howell: list[list[int]], q: int) -> bool:
    return not any(reduce_mod_span(x, howell, q))


def preimage_span(
    rows: list[list[int]], target: list[list[int]], width: int, q: int
) -> list[list[int]]:
    """Howell form of {y : sum y_i rows[i] in span(target)}: the rows of the
    Howell form of [rows | I] over [target | 0] whose first `width` entries
    vanish, cut to their last n. By the Howell property those rows span
    every vector of the stacked span that vanishes there, and they are
    already reduced, so they are the Howell form of the kernel with no
    second elimination (Storjohann-Mulders, ESA 1998)."""
    n = len(rows)
    stacked = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    stacked += [list(t) + [0] * n for t in target]
    H = howell_form(stacked, width + n, q)
    return [r[width:] for r in H if not any(r[:width])]


def combine(x: list[int], rows: list[list[int]], width: int, q: int) -> list[int]:
    """sum_i x_i rows_i mod q, skipping the zero coefficients."""
    out = [0] * width
    for c, r in zip(x, rows):
        if c:
            out = [a + c * b for a, b in zip(out, r)]
    return [a % q for a in out]


def span_size(howell: list[list[int]], q: int) -> int:
    """Number of elements of the span: q / p^v for each pivot p^v."""
    size = 1
    for r in howell:
        size *= q // next(filter(None, r))
    return size


def smith_normal_form(rows: list[list[int]], ncols: int) -> tuple[list[int], list[list[int]]]:
    """Diagonalize the integer row lattice of rank ncols (full column rank,
    as the relations galois_group passes are, with the generators' orders on
    their diagonal): returns (diag, V) with V unimodular and
    rowspan(A.V) = rowspan(diag). diag entries are > 0 with the
    divisibility chain d_1 | d_2 | ....
    """
    A = [list(r) + [0] * (ncols - len(r)) for r in rows]
    nr = len(A)
    V = [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    def col_op(j: int, k: int, q: int) -> None:  # col_j -= q * col_k
        for i in range(nr):
            A[i][j] -= q * A[i][k]
        for i in range(ncols):
            V[i][j] -= q * V[i][k]

    def col_swap(j: int, k: int) -> None:
        for i in range(nr):
            A[i][j], A[i][k] = A[i][k], A[i][j]
        for i in range(ncols):
            V[i][j], V[i][k] = V[i][k], V[i][j]

    def col_negate(j: int) -> None:
        for i in range(nr):
            A[i][j] = -A[i][j]
        for i in range(ncols):
            V[i][j] = -V[i][j]

    def eliminate() -> int:
        t = 0
        while t < nr and t < ncols:
            best = None
            for i in range(t, nr):
                for j in range(t, ncols):
                    v = abs(A[i][j])
                    if v and (best is None or v < best[0]):
                        best = (v, i, j)
            _, bi, bj = best
            if bi != t:
                A[bi], A[t] = A[t], A[bi]
            if bj != t:
                col_swap(bj, t)
            while True:
                clean = True
                for i in range(nr):
                    if i == t or A[i][t] == 0:
                        continue
                    q = A[i][t] // A[t][t]
                    if q:
                        for j in range(ncols):
                            A[i][j] -= q * A[t][j]
                    if A[i][t]:
                        A[i], A[t] = A[t], A[i]
                        clean = False
                for j in range(ncols):
                    if j == t or A[t][j] == 0:
                        continue
                    q = A[t][j] // A[t][t]
                    if q:
                        col_op(j, t, q)
                    if A[t][j]:
                        col_swap(j, t)
                        clean = False
                if clean:
                    break
            if A[t][t] < 0:
                col_negate(t)
            t += 1
        return t

    rank = eliminate()
    # Enforce the divisibility chain, re-eliminating after each fix-up.
    while True:
        bad = None
        for i in range(rank - 1):
            if A[i][i] and A[i + 1][i + 1] % A[i][i] != 0:
                bad = i
                break
        if bad is None:
            break
        col_op(bad, bad + 1, -1)  # col_bad += col_{bad+1}
        rank = eliminate()
    diag = [A[i][i] if i < nr else 0 for i in range(ncols)]
    return diag, V
