"""wienerchaos: numerical workbench for second- and third-order Wiener chaos.

Modules
-------
wick    exact Gaussian-moment oracle (Isserlis calculus on polynomials)
chaos2  second chaos: cumulants, symmetric functions, Laplace transform,
        negative moments, density inversion, multivariate bounds
chaos3  third chaos: symmetric 3-tensors, carre du champ, sharp-gradient
        matrix spectra, trace form, small-ball diagnostics
mc      deterministic chunked Monte Carlo substrate
cli     experiment runner (`wienerchaos run <config>`)
"""

__version__ = "0.1.0"

from . import chaos2, chaos3, mc, wick
from .chaos2 import DiagonalSecondChaos, MultivariateSecondChaos
from .chaos3 import SymThreeTensor
from .mc import EstimatorResult, RngSpec
from .wick import GaussianPolynomial

__all__ = [
    "__version__",
    "wick", "chaos2", "chaos3", "mc",
    "GaussianPolynomial", "DiagonalSecondChaos", "MultivariateSecondChaos",
    "SymThreeTensor", "RngSpec", "EstimatorResult",
]
