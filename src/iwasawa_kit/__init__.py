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
"""

from .abelian import (
    AbelianFieldSpec,
    CharacterTable,
    CMStructure,
    DirichletCharacter,
    FiniteAbelianGroup,
    check_hyp,
    cm_data,
    conductor,
    dirichlet_character,
    galois_group,
    layer,
    ramified_primes,
    roots_of_unity_order,
)
from .complexes import (
    BoundedComplex,
    ChainMap,
    ComplexSES,
    EulerFittingInvariant,
    cone,
    euler_fitting_additivity_check,
    quasi_iso_check,
)
from .exact import (
    CyclotomicInt,
    bernoulli_number,
    bernoulli_polynomial,
    padic_from_rational,
    teichmuller,
)
from .fitting import (
    AlgebraMorphism,
    FiniteCommAlgebra,
    FinPresModule,
    GroupAlgebra,
    IdealHandle,
    ModuleMap,
    base_change_fitting,
    dual_presentation,
    e1_sharp_check,
    four_term_check,
    minus_quotient,
    pontryagin_dual,
    tower_fitting_check,
)
from .groupring import basis_index, pushforward, sharp, translate
from .lvalues import (
    ClassModuleData,
    StickelbergerElement,
    annihilation_check,
    dirichlet_l_nonpos,
    fitting_membership_check,
    partial_zeta_vector,
    theta,
    verify_integrality,
)
from .tower import (
    TowerElement,
    aug_project,
    coherence_check,
    theta_tower,
    twist,
    twist_congruence_check,
)

__version__ = "0.1.0"
