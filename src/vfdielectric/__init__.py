"""Vacuum-fluctuation dielectric model of the vacuum.

From two measured constants (the elementary charge and the reduced Planck
constant) plus the assigned permeability, compute the model's vacuum
permittivity, the speed of light and the fine-structure constant, with every
intermediate quantity dimension-checked and cross-validated by independent
numerical routes.

Import each public name from its module, e.g. ``vfdielectric.constants``;
the package root defines only ``__version__``.
"""

__version__ = "0.1.0"
