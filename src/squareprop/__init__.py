"""Numerical verification toolkit for seminorms with the square property
on finite-dimensional real associative algebras.  Quaternion values are
arrays (..., 4) of (w, x, y, z), and every element-wise call is a one-row
view of a batched kernel.  Algebra elements, like quaternions, take
stacks: an AlgebraElement holds coords of shape (n,) or (..., n), and mul,
SeminormVariant.value and gelfand_radius act on every row of a stack."""

from .algebra import (AlgebraElement, FiniteDimRealAlgebra,
                      left_regular_matrix, make_algebra, mul, quotient,
                      subspace_is_two_sided_ideal, unitize)
from .characters import find_characters
from .pipeline import PipelineConfig, VerificationReport, fuzz, verify_theorem
from .quaternion import qmul, qnorm, qspectrum
from .seminorm import (CharacterSup, ComponentSup, CoordinateMax,
                       CoordinateSum, OperatorNorm, SpectralRadius,
                       check_square_property, check_submultiplicative,
                       estimate_m, kernel)
from .spectral import SpectrumResult, gelfand_radius, spectrum

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement", "CharacterSup", "ComponentSup",
    "CoordinateMax", "CoordinateSum", "FiniteDimRealAlgebra", "OperatorNorm",
    "PipelineConfig", "SpectralRadius", "SpectrumResult", "VerificationReport",
    "check_square_property", "check_submultiplicative", "estimate_m",
    "find_characters", "fuzz", "gelfand_radius", "kernel",
    "left_regular_matrix", "make_algebra", "mul", "qmul", "qnorm",
    "qspectrum", "quotient", "spectrum", "subspace_is_two_sided_ideal",
    "unitize", "verify_theorem",
]
