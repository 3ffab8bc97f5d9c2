"""Exact laboratory for irregular independence and irregular domination."""

from irregraph.bounds import (
    DEFAULT_RAMSEY,
    lb_gamma_ir_cor43,
    lb_gamma_ir_thm41,
    lb_gamma_ir_thm42,
    ub_alpha_ir_eq1,
    ub_alpha_ir_thm21,
    ub_alpha_ir_thm22,
    ub_span_thm32,
)
from irregraph.constructions import (
    FAMILIES,
    Claim,
    ConstructionReport,
    evaluate,
    metadata_comment,
)
from irregraph.graph import (
    DegreeClassification,
    Graph,
    Graph6Error,
    VertexSet,
    canonical_form,
    classify_degrees,
    complement,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    disjoint_union_all,
    empty_graph,
    from_edge_mask,
    from_edges,
    isomorphism_classes,
    join,
    matching_graph,
    parse_graph6,
    path_graph,
    star_graph,
    windmill,
    write_graph6,
)
from irregraph.harness import (
    ENUMERATION_LIMIT,
    THEOREM_IDS,
    SharpnessSummary,
    SweepSummary,
    TheoremReport,
    Verdict,
    sharpness_suite,
    theorem_report,
    verify_range,
)
from irregraph.params import (
    Extremum,
    ParameterReport,
    alpha,
    alpha_ir,
    alpha_reg,
    full_report,
    gamma_ir,
    gamma_reg,
    is_dominating,
    is_independent,
    is_irregular_dominating,
    is_irregular_independent,
    is_regular_dominating,
    is_regular_independent,
    max_cut,
)
from irregraph.recognizers import (
    Family,
    FamilyTag,
    classify_gamma_extremal,
    classify_outerplanar_alpha1,
    classify_planar_alpha1,
    is_outerplanar,
    is_planar,
    satisfies_lemma31,
)

__version__ = "0.1.0"
