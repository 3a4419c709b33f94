"""Numerical verification toolkit for seminorms with the square property
on finite-dimensional real associative algebras.  Quaternion values are
arrays (..., 4) of (w, x, y, z), and every element-wise call is a one-row
view of a batched kernel."""

from .algebra import (AlgebraElement, FiniteDimRealAlgebra, find_unit,
                      is_invertible, left_regular_matrix, make_algebra, mul,
                      quotient, subspace_is_two_sided_ideal, unitize)
from .characters import find_characters, j_evaluate, sampled_sup_norm
from .pipeline import PipelineConfig, VerificationReport, fuzz, verify_theorem
from .quaternion import qinv, qmul, qnorm, qspectrum
from .seminorm import (CharacterSup, ComponentSup, CoordinateMax,
                       CoordinateSum, OperatorNorm, SpectralRadius,
                       check_square_property, check_submultiplicative,
                       estimate_m, evaluate, kernel)
from .spectral import (SpectrumResult, gelfand_radius, in_spectrum_paper_def,
                       spectral_radius, spectrum)

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement", "CharacterSup", "ComponentSup",
    "CoordinateMax", "CoordinateSum", "FiniteDimRealAlgebra", "OperatorNorm",
    "PipelineConfig", "SpectralRadius", "SpectrumResult", "VerificationReport",
    "check_square_property", "check_submultiplicative", "estimate_m",
    "evaluate", "find_characters", "find_unit", "fuzz", "gelfand_radius",
    "in_spectrum_paper_def", "is_invertible", "j_evaluate", "kernel",
    "left_regular_matrix", "make_algebra", "mul", "qinv", "qmul", "qnorm",
    "qspectrum", "quotient", "sampled_sup_norm", "spectral_radius", "spectrum",
    "subspace_is_two_sided_ideal", "unitize", "verify_theorem",
]
