"""Fictitious-domain FSI on non-matching grids with multiplier coupling.

A two dimensional finite element toolbox for the stationary
fluid-structure problem in which the structure is immersed in the fluid
box through a reference map and coupled by a distributed Lagrange
multiplier.  The velocity/pressure pair is piecewise linear on a
midpoint-refined mesh over piecewise linear pressure; the focus is the
quadrature error committed when the fluid-structure coupling matrix is
assembled with single-element rules instead of exact mesh-intersection
integration.
"""

from .assembly import (FormParams, assemble_Af, assemble_As, assemble_B,
                       assemble_Cf_approx, assemble_Cf_exact, assemble_Cs,
                       assemble_rhs, matrix_1norm_diff, pressure_mean_row)
from .fespace import (FEFunction, FiniteElementSpace, composed_velocity_eval,
                      interpolate, multiplier_space, pressure_space,
                      solid_space, velocity_space)
from .geom_intersect import (CompositeQuadScheme, IntersectionTable,
                             build_all_schemes, build_composite_scheme,
                             clip_triangle, fan_triangulate, polygon_area)
from .manufactured_errors import (ManufacturedSolution, curl_of_potential,
                                  dual_norm, error_norms,
                                  inverse_inequality_check,
                                  manufactured_solution, strong_form_f)
from .mesh import (AffineMap, DomainViolationError, Triangulation,
                   element_map, locate_point, midpoint_refine, uniform_mesh)
from .quadrature import (QuadratureRule, conical_product_rule, integrate,
                         quad_error_functional, rule_for_degree)
from .saddle_solver import (Blocks, BlockSystem, DiscreteSolution,
                            SingularSystemError, build_system, dump_solution,
                            solve)
from .experiments_cli import (ExperimentPlan, cli_main, compute_rates,
                              coupling_gap_norm, make_plan,
                              quadrature_error_study, run_convergence,
                              solve_level)

__version__ = "0.1.0"
