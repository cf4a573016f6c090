"""Desk-scale verification toolkit for two-parameter lattice exponential sums,
backwards Newton diagrams, rational-arc decompositions, and the oscillation
semi-norms controlling multi-parameter averages."""

__version__ = "0.1.0"

from .arith import dirichlet_approx, golden_ratio_conjugate
from .poly import Poly2, RealPoly2, UniPoly, is_degenerate, parse_poly, pin, scale
from .newton import (
    GeometryOverflowError,
    NewtonDiagram,
    build_diagram,
    dominant_scale,
    sector_arrays,
    sector_membership,
    subsector,
    vertex_gap,
)
from .expsum import ExpSumValue, double_sum, double_sum_abs, weyl_sum
from .complete import (
    VinogradovCount,
    gauss_sum,
    moment_identity_gap,
    partial_gauss,
    vinogradov_count,
    vinogradov_table,
)
from .iw import IWParams, build_p_le, build_sigma, verify_iw_properties
from .osc import IncreasingSequence, IndexedFamily, oscillation, rademacher_menshov_sides, variation
from .ergodic import AverageSpec, FiniteFunction, character_average, degenerate_factorization_gap, sector_grid, shift_average
from .circle import (
    ArcClassification,
    arc_classify,
    continuous_multiplier,
    cutoff_eta,
    discrete_multiplier,
    major_approximant,
    partial_approx_error,
    projection_multiplier,
)
