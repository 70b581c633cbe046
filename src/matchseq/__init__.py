"""matchseq: edge orderings of graphs whose consecutive windows form matchings.

The matching number of an edge ordering is the largest d such that every d
consecutive edges (cyclically consecutive for cyclic orderings) form a
matching; ms(G) and cms(G) are the maxima over linear and cyclic orderings.
The package provides closed-form orderings attaining the known values for
complete graphs, complete bipartite graphs, cycles, paths, doubled odd
complete multigraphs and a circulant cubic bipartite family, an exact
checker, an exhaustive branch-and-bound solver, and a verification harness
binding the three together.
"""

from .errors import (FormatError, InvalidEdgeId, InvalidFamilyParams,
                     InvalidOrdering, InvalidTarget, InvalidVertex,
                     MatchseqError, NoKnownFormula)
from .graphs import (Edge, Graph, attach_pendants, circulant3, complete,
                     complete_bipartite, cycle, degrees, is_connected, is_tree,
                     max_matching_size, multiply, path, random_tree,
                     read_edge_list, write_edge_list)
from .orderings import (CYCLIC, LINEAR, EdgeOrdering, MatchingNumberReport,
                        is_matching, matching_number,
                        matching_number_bruteforce, parse_biadjacency,
                        random_ordering, read_ordering, reflect,
                        render_biadjacency, rotate, with_mode, write_ordering)
from .constructions import (FamilySpec, RotationScheme, biadjacency_layout,
                            build_family, cms_complete_even, cms_complete_odd,
                            cms_cycle, cms_doubled_complete_odd, cms_path,
                            family_ordering, ms_complete_bipartite,
                            ms_complete_odd_walecki, ms_circulant3, ms_path)
from .solver import (BUDGET_EXCEEDED, NONEXISTENCE_CERTIFIED, VALUE_FOUND,
                     SolveBudget, SolveResult, cms_exact, exists_ordering,
                     ms_exact)
from .catalog import (PendantLemmaReport, PredictedValue, Q1Result, Q2Result,
                      Q3Result, VerificationReport, VerificationRow,
                      explore_q1, explore_q2, explore_q3,
                      pendant_lemma_check, predicted, verify_families)

__version__ = "0.1.0"
