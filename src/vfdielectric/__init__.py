"""Vacuum-fluctuation dielectric model of the vacuum.

From two measured constants (the elementary charge and the reduced Planck
constant) plus the assigned permeability, compute the model's vacuum
permittivity, the speed of light and the fine-structure constant, with every
intermediate quantity dimension-checked and cross-validated by independent
numerical routes.
"""

from .quantity import (
    Dimension,
    DimensionError,
    Quantity,
    dim,
    energy_convert,
    q_add,
    q_div,
    q_mul,
    q_pow,
    q_sqrt,
)
from .constants import ConstantsError, ConstantsSet, load_constants, serialize_constants
from .species import (
    OscillatorSpec,
    SpeciesSpec,
    UnsupportedSpeciesError,
    binding_energy,
    builtin_species,
    coherence_length,
    decay_rate,
    interacting_density,
    load_species,
    number_density,
    resonant_frequency,
    species_from_record,
    spring_constant,
    vf_lifetime,
)
from .oscillator import (
    QuadratureError,
    dipole_expectation_static,
    eigenfunction,
    matrix_element_x_analytic,
    matrix_element_x_quadrature,
    overlap_quadrature,
)
from .perturbation import (
    BRANCH_LITERAL,
    BRANCH_PAPER,
    AmplitudePair,
    CouplingLambda,
    amplitudes_analytic,
    amplitudes_ode,
    coupling_lambda,
    dipole_trajectory,
    scaling_exponent,
)
from .vacuum import (
    PredictionReport,
    SpeciesContribution,
    closed_form_report,
    epsilon0_closed_form,
    epsilon0_self_consistent,
    inverse_alpha,
    lepton_contribution,
    quarkonium_contribution,
    report_from_dict,
    report_to_dict,
)

__version__ = "0.1.0"
