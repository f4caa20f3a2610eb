"""Numerical toolkit for discrete potential theory on infinite graphs.

Windows cut from bounded-degree graph families, the discrete differential
calculus on their edge spaces, matrix-free projections onto gradient and
cycle spaces, per-edge dimension traces with monotone ball exhaustion, and
finite-window checks for quasi-isometry energy comparisons.
"""

from .dimension import (Cor4Row, EdgeScores, FolnerRow, Lemma3Result,
                        ScoreReport, Subspace, corollary4_table,
                        diamond_score, dim_window, edge_ball, folner_profile,
                        hd_score, lemma3_check, score_report, star_score,
                        window_edge_ids)
from .edgespace import (EdgeFunction, VertexFunction, chi, codifferential,
                        differential, edge_indicator, energy, inner, is_flow,
                        is_harmonic, mask_edges, transfer_edge_function,
                        vertex_inner, edge_function_from_csv,
                        edge_function_to_csv, flow_residual,
                        harmonic_residual, support_vertices)
from .errors import (CutoffExceededError, HodgedimError,
                     IncompatibleDomainError, IncompatibleRhsError,
                     InsufficientWindowError, InvalidFamilyError,
                     InvalidWindowError, MissingEdgeError, SizeLimitError,
                     SolverFailureError)
from .families import (BUILTIN_FAMILY_NAMES, GraphFamily, VertexId,
                       decode_vertex, encode_vertex, family_from_window,
                       make_family)
from .quasi import (DistortionReport, Lemma5Result, Lemma6Result, QuasiMap,
                    builtin_maps, distortion_estimate, lemma5_check,
                    lemma5_constant, lemma6_check, lemma6_constant,
                    nearest_preimage, pullback, star_membership_residual, QiRow,
                    lex_min_path,
                    suite_row, wobbling_displacement)
from .solver import (HodgeParts, LaplacianMode, SolveReport, StarProjection,
                     cycle_rank, hodge_decompose_finite, laplacian_apply,
                     project_star, solve_laplacian)
from .windows import (DEFAULT_SIZE_CAP, FiniteWindow, OrientedEdge, ball,
                      distance, family_edge, induced_window, neighborhood,
                      origin_edge, same_window, sigma, window_from_json,
                      window_to_json)

__version__ = "0.1.0"
