"""Shared test fixtures: one instance per shape for the whole pytest run.

The library caches lattice enumerations and ξ machines per phi instance, in
one weak-keyed cache (`azeta.zeta.cache_for`) whose entries die with phi, so
sharing instances across test modules keeps the suite fast.  Nothing in the
package mutates a phi after construction.
"""

import numpy as np

from azeta.homog import AnisotropicSuperellipse, PNorm, QuadraticForm

ABSVAL = PNorm(1, 1.0)
SQUARE = QuadraticForm([[1.0]])
DISC = QuadraticForm(np.eye(2))
SUPERELLIPSE = AnisotropicSuperellipse([12.0, 18.0], 6.0)
