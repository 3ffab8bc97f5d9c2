"""Run the exhaustive checker on small orders, then break it on purpose.

The sweep covers every labeled graph up to the requested order: it
evaluates the full catalogue of 28 inequality and characterization checks
on one graph per isomorphism class and counts the verdicts for every
labeled member of the class.  A clean run prints only tallies.  To show what a failure
looks like, the second half re-runs the sweep with one bound deliberately
corrupted from ceil(n/2) to ceil(n/1): the corrupted claim overshoots the
truth and the checker answers with concrete counterexamples, each carrying
a witness string you can verify by hand.
"""

from irregraph import verify_range

if __name__ == "__main__":
    summary = verify_range(5)
    print(
        f"clean sweep: {summary.graphs_checked} graphs through order "
        f"{summary.n_max}, {len(summary.violations)} violations, "
        f"{summary.wall_time_ms} ms"
    )
    print(f"{'check':<8} {'pass':>6} {'n/a':>6}")
    for tid, counts in summary.per_theorem.items():
        print(f"{tid:<8} {counts['pass']:>6} {counts['not_applicable']:>6}")

    print()
    corrupted = verify_range(4, t41_divisor=1)
    print(
        f"corrupted bound: {len(corrupted.violations)} violations through "
        f"order {corrupted.n_max}"
    )
    first = corrupted.violations[0]
    print(f"smallest counterexample: {first.graph}")
    for verdict in first.verdicts:
        if verdict.status == "fail":
            print(f"  {verdict.theorem_id} fails: {verdict.witness}")
    print()
    print("The single edge K_2 already refutes the corrupted claim: its")
    print("strict half, one endpoint, irregularly dominates the other.")
