"""Build one showcase instance of every extremal construction family.

Each family exists to pin a bound or an extremal equality exactly, and
each build re-measures its own claims.  The gallery prints the graph6
string followed by the measured claim line, the same format the command
line `construct` subcommand emits, so any row can be piped back through
`compute` or checked by hand.
"""

from irregraph import evaluate, metadata_comment, write_graph6

SHOWCASE = {
    "clique_union": {"r": 2, "t": 4},
    "staircase_gamma": {"n": 9},
    "alpha_sharp_bipartite": {"r": 2, "t": 3},
    "alpha_sharp_clique": {"r": 2, "t": 2},
    "modstar": {"r": 2, "t": 4},
    "product_extremal": {"n": 6},
    "sum_extremal": {"n": 6, "k": 4},
    "ng_alpha": {"n": 6},
    "ng_gamma": {"n": 7},
    "relation_extremal": {"n": 6, "case": "complement"},
}

STORY = {
    "clique_union": "disjoint cliques of distinct sizes hit alpha_ir = Delta - delta + 1",
    "staircase_gamma": "ascending bipartite staircase hits the gamma_ir = ceil(n/2) floor",
    "alpha_sharp_bipartite": "bipartite half meets the quadratic cut ceiling exactly",
    "alpha_sharp_clique": "clique rows meet the degree-span ceiling exactly",
    "modstar": "modified star meets the radical cut bound exactly",
    "product_extremal": "single graph maximizing the alpha_ir * alpha_reg product",
    "sum_extremal": "order-n graph realizing any feasible alpha_ir + alpha_reg total",
    "ng_alpha": "complement pair maximizing the alpha_ir sum",
    "ng_gamma": "complement pair with gamma_ir sum 2 * ceil(n/2)",
    "relation_extremal": "alpha_ir of the graph against gamma_ir of its complement",
}


if __name__ == "__main__":
    for family in sorted(SHOWCASE):
        report = evaluate(family, SHOWCASE[family])
        status = "ok" if report.ok else "FAILED"
        print(f"{family}  [{status}]  {STORY[family]}")
        print(f"  {write_graph6(report.graph)}")
        print(f"  {metadata_comment(report)}")
        print()
