"""Exact symbolic computation for the coordinate Hopf algebra of quantum
SL(2) at odd primitive roots of unity: cyclotomic scalar arithmetic, PBW
rewriting, the finite quotient Hopf algebras and their characters,
corepresentation theory with tensor decomposition at every odd ell, and the
coquasitriangular braiding of the V and W series."""

from .algebra import AlgebraElement, AlgebraMode, NormalMonomial, from_word, generators, multiply
from .cyclo import CyclotomicScalar, q_binomial, q_half_power, q_power
from .linalg import ScalarMatrix

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement",
    "AlgebraMode",
    "CyclotomicScalar",
    "NormalMonomial",
    "ScalarMatrix",
    "from_word",
    "generators",
    "multiply",
    "q_binomial",
    "q_half_power",
    "q_power",
    "__version__",
]
