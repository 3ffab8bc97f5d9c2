"""One pass of one workload, in the fresh interpreter run.py starts for it.

Usage: python3 bench/workload.py SPEC_JSON, with PYTHONPATH pointing at the
checkout's src; SPEC_JSON is the spec that run.py's run_workload builds.  The
pass imports irregraph, builds its command lines (set-up), then runs each
command through ``irregraph.cli.main`` with stdout captured in memory (the
timed phase; each compute call is preceded and followed by a run of
kernel(), which times the host's speed).  Outputs are checked only after the
timed phase and after the peak RSS is read, and one JSON line with timings,
checks and, when traced, the per-function table is printed to stdout.
"""

import importlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


# The compute corpus is solved in this many rounds, one process, every graph
# once per round; each graph's latency is the mean of its rounds.  Once scaled
# by the kernel (below), a call's time is as likely to read high as low, and
# the mean of two moved less than the best of two: the 90th percentile of the
# corpus spread 7 % between seeds, against 15 %.
COMPUTE_ROUNDS = 2

# A shared host runs pure-Python code up to 1.6 times slower for seconds to
# minutes at a time, so run.py reports set-up and compute times on a time
# scale that such stretches do not move.  Each compute call is divided by the
# mean time of kernel() run right before and right after it, and multiplied
# by KERNEL_S: seconds on a host where kernel() takes KERNEL_S.  On a 2-vCPU
# Xeon VM the compute corpus moved by 30 % between such stretches, and its
# scaled time by 3 %.
KERNEL_S = 0.005

# Each set-up time is scaled likewise by a reference process started right
# after it: the same interpreter importing these standard-library modules
# (most of what irregraph imports) instead of irregraph.  The set-up to
# reference ratio held within 3 % where the set-up time moved by 25 %, and
# it was steadier from one stretch to the next than the set-up to kernel()
# ratio.
REFERENCE_MODULES = ("argparse", "concurrent.futures", "dataclasses", "fractions", "random", "typing")


def kernel() -> float:
    """Seconds taken by a fixed pure-Python loop of about 5 ms."""
    start = time.perf_counter()
    x = 0
    for i in range(20000):
        x ^= (i * 2654435761) & 0xFFFFFFFF
        x = (x << 1 | x >> 31) & 0xFFFFFFFF
    return time.perf_counter() - start


def _ops(spec: dict) -> list:
    """(argv, graph6 line, rows) per operation; line and rows only for compute."""
    if spec["kind"] == "sweep":
        return [(list(spec["argv"]), None, None)]
    from corpus import corpus

    return [
        (list(spec["argv"]) + [line], line, rows)
        for line, rows in corpus(spec["seed"], spec["smoke"])
    ]


def _oracle_problems(line: str, report: dict) -> list:
    """Differences between the report and the naive exhaustive oracles."""
    from irregraph import params
    from irregraph.graph import parse_graph6

    g = parse_graph6(line)
    problems = []
    for key, oracle in (
        ("alpha", params.naive_alpha),
        ("alpha_ir", params.naive_alpha_ir),
        ("alpha_reg", params.naive_alpha_reg),
        ("gamma_ir", params.naive_gamma_ir),
        ("gamma_reg", params.naive_gamma_reg),
        ("beta", params.naive_max_cut),
    ):
        want = oracle(g)
        got = (report[key], report["witnesses"][key])
        if got != (want.value, list(want.witness.members)):
            problems.append(f"{key}={got}, naive oracle {want.value, want.witness.members}")
    return problems


def _check(spec: dict, calls: list, outputs: list, inputs: int) -> list:
    """Per call: exit code, facts for the expectations, and problems.

    Calls i and i + inputs solve the same input in successive rounds.
    """
    import gate

    checked = []
    for i, ((argv, line, rows), (code, text, err)) in enumerate(zip(calls, outputs)):
        row = {"exit_code": code, "digest": None}
        try:
            if code is None:
                problems = [err]
            elif spec["kind"] == "sweep":
                row["facts"], problems = gate.sweep_facts(text)
            else:
                report, problems = gate.compute_facts(text, line, rows)
                row["digest"] = gate.digest(report)
                if i >= inputs and row["digest"] != checked[i - inputs]["digest"]:
                    problems.append("output differs from the previous round's")
                if i < inputs and spec["oracle"] and report is not None:
                    if len(rows) <= spec["oracle_max_n"]:
                        problems += _oracle_problems(line, report)
        except (AttributeError, KeyError, TypeError) as exc:
            problems = [f"output has an unexpected shape: {exc!r}"]
        row["problems"] = problems
        checked.append(row)
    return checked


def main() -> int:
    spec = json.loads(sys.argv[1])
    if spec["reference"]:
        for name in REFERENCE_MODULES:
            importlib.import_module(name)
        print(json.dumps({"setup_s": time.monotonic() - spec["spawned_at"]}))
        return 0
    import irregraph
    import irregraph.cli

    source = Path(irregraph.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"irregraph was imported from {source}, not this checkout", file=sys.stderr)
        return 2
    ops = _ops(spec)
    tracer = None
    if spec["preload"]:
        # Both passes of a traced run import every layer up front, because
        # the tracer must patch them before the first call; the untraced one
        # does the same so that trace_overhead compares like with like.
        from tracer import Tracer, layer_metrics, preload

        preload()
        if spec["trace"]:
            tracer = Tracer()
            tracer.install()
    setup_s = time.monotonic() - spec["spawned_at"]
    if spec["setup_only"]:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # A sweep is one call of 15-30 s, over which the host's speed changes, so
    # only compute calls are bracketed by kernel runs.
    compute = spec["kind"] == "compute"
    calls = ops * (COMPUTE_ROUNDS if compute else 1)
    outputs, latencies, kernels = [], [], [kernel()] if compute else []
    for i, (argv, _, _) in enumerate(calls):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.op = i
        start = time.perf_counter()
        try:
            code = irregraph.cli.main(argv, stdout=out, stderr=err)
        except Exception:  # a crashing operation is a failed one; keep going
            code, err = None, io.StringIO(traceback.format_exc())
        latencies.append(time.perf_counter() - start)
        outputs.append((code, out, err))
        if compute:
            kernels.append(kernel())
    phase_s = sum(latencies)
    if tracer is not None:
        tracer.op = -1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def per_input(times):
        return [statistics.fmean(times[i::len(ops)]) for i in range(len(ops))]

    measured = per_input(latencies)
    if compute:
        scaled = per_input([
            t * KERNEL_S * 2 / (before + after)
            for t, before, after in zip(latencies, kernels, kernels[1:])
        ])
    else:
        scaled = measured
    outputs = [(code, out.getvalue(), err.getvalue()) for code, out, err in outputs]
    result = {
        "setup_s": setup_s,
        "run_s": sum(measured),
        "scaled_run_s": sum(scaled),
        "phase_s": phase_s,
        "latencies_s": measured,
        "scaled_latencies_s": scaled,
        "peak_rss_mb": peak_rss_mb,
        "output_bytes": sum(len(text.encode()) for _, text, _ in outputs),
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.save(spec["trace_out"])
        table = tracer.functions()
        result["functions"] = table
        result["layer_metrics"] = layer_metrics(table, phase_s, result["output_bytes"])
    result["inputs"] = len(ops)
    result["ops"] = _check(spec, calls, outputs, len(ops))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
