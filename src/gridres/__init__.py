"""Exact engine for grid coefficient formulas, value dependences on full
intersections, support-polytope residues, and finite-plane line covers."""

from .cayley_bacharach import (HypersurfaceSystem, HypersurfaceVerdict, forced_value,
                               min_cover_size, verify_cb, verify_hypersurface_theorem)
from .errors import BudgetExceededError, CounterexampleError
from .expr import ParseError, parse_poly
from .field import Field, FieldElement, FieldMismatchError, is_prime
from .lines import (LineConfiguration, NormalizationReport, check_problem1_bound,
                    concurrency_point, grid_intersections,
                    normalize_biconcurrent, roots_of_unity_config,
                    search_green_covers, validate_green_cover,
                    verify_product_dependence)
from .multipoly import MultiPoly, format_poly, vanishing_poly_from_nodes
from .nullstellensatz import (GridSystem, check_classical_degree,
                              check_relaxed_support, coefficient_via_grid,
                              find_nonvanishing_witness, grid_weights)
from .polytope import LatticePolytope
from .projective import ProjLine, ProjPoint, line_through, meet
from .toric import (NewtonSystem, SimpleZeros, VertexCoefficients, VertexSplit,
                    default_samples, is_unfolded, newton_polytope,
                    residue_sum_over_zeros, solve_vertex_coefficients,
                    vertex_residue, vertex_split, weighted_vertex_combination)

__version__ = "0.1.0"
