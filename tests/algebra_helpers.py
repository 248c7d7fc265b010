"""Algebras and ring helpers that only the tests use."""

from iwasawa_kit.fitting import FiniteCommAlgebra


def prime_of(q: int) -> int:
    """The prime p of a modulus q = p^N: its least divisor above 1."""
    return next(d for d in range(2, q + 1) if q % d == 0)


def val(q: int, x: int) -> int:
    """p-adic valuation of the representative x mod q = p^N (val(0) = N),
    digit by digit: the reference kernels read valuations so, not by gcd."""
    p = prime_of(q)
    x = x % q or q
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def nilpotent_extension_json(obj: dict, M: int) -> dict:
    """alg[T]/(T^M) in the dense JSON form of FiniteCommAlgebra.to_json, built
    from alg's dense JSON form alone: basis (b_i, T^k) for k < M, component-major
    in k."""
    if M < 1:
        raise ValueError("need M >= 1")
    d = len(obj["basis"])
    dim = d * M

    def embed(v: list, k: int) -> list:  # v T^k, a row of alg^M
        out = [0] * dim
        out[k * d : (k + 1) * d] = v
        return out

    mult = [
        [
            embed(obj["mult"][i][j], k1 + k2) if k1 + k2 < M else [0] * dim
            for k2 in range(M)
            for j in range(d)
        ]
        for k1 in range(M)
        for i in range(d)
    ]
    sharp = obj["sharp"]
    return {
        "p": obj["p"],
        "N": obj["N"],
        "basis": [f"{b}*T^{k}" for k in range(M) for b in obj["basis"]],
        "mult": mult,
        "one": embed(obj["one"], 0),
        "sharp": [embed(v, k) for k in range(M) for v in sharp] if sharp else None,
        "name": f"{obj['name']}[T]/(T^{M})",
    }


def nilpotent_extension(alg: FiniteCommAlgebra, M: int) -> FiniteCommAlgebra:
    """alg[T]/(T^M), a finite commutative algebra that is not a group algebra."""
    return FiniteCommAlgebra.from_json(nilpotent_extension_json(alg.to_json(), M))
