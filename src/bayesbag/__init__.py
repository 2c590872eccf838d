"""Bagged Bayesian posteriors for the conjugate Gaussian location model.

Stabilizes a posterior against data perturbation by averaging posterior CDFs
computed on bootstrap- or subsampled datasets, with an exact closed form for
the parametric-bootstrap Gaussian case and general mixture-CDF machinery for
everything else.

The public names are those listed in each module's ``__all__``.
"""

from . import bagging, diagnostics, model, resampling
from .bagging import *
from .diagnostics import *
from .model import *
from .resampling import *

__version__ = "0.1.0"

__all__ = bagging.__all__ + diagnostics.__all__ + model.__all__ + resampling.__all__
