"""Wiener integration against fractional processes built from finite chaos.

Subpackage tour:

* ``grids``      -- time grids, step functions, sampled (grid) functions
* ``sobolev``    -- fractional Sobolev norms and the integrand norm
* ``chaos``      -- discrete white noise, second-chaos forms
* ``processes``  -- fractional Brownian motion, second-chaos processes
* ``integrals``  -- Wiener integrals, isometry reports, operator-valued norms
* ``spde``       -- spectral heat-type models driven by fractional noise
* ``experiments``-- reproducible experiment registry used by the CLI
"""

from .grids import GridFunction, StepFunction, TimeGrid

__version__ = "0.1.0"

__all__ = ["TimeGrid", "StepFunction", "GridFunction", "__version__"]
