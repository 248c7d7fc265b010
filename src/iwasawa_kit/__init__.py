"""iwasawa-kit: exact desk-scale computer algebra for equivariant
Stickelberger elements, finite-level Iwasawa algebras, Fitting ideals over
group rings, and bounded-complex invariants.

Everything is exact: rationals, cyclotomic integers over Q, and the rings
Z/p^N as plain ints reduced mod p^N. An element of a group ring is a tuple of
coefficients in the basis order of `groupring`; over Q it is the pair (nums,
den) of integer numerators over one denominator. The package verifies, at
desk scale, the classical identities and containments these objects satisfy
(integrality under admissibility, annihilation of class-module data, tower
coherence, twist congruences, and the Fitting-ideal lemma calculus).

The package root exports nothing: the API is the modules
(`iwasawa_kit.lvalues.theta`, `iwasawa_kit.fitting.GroupAlgebra`, ...), and
the CLI is `iwasawa_kit.cli`.
"""
