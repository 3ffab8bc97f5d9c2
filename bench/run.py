"""Benchmark runner for irregraph: three workloads, timed from outside.

    python3 bench/run.py --workload {verify7,falsify6,compute,all}
                         [--seed N] [--seconds S] [--trace 0|1] [--smoke]
                         [--record] [--expected DIR]

Run from anywhere; the checkout is the parent of this directory and the
program is imported from its ``src``.  Every pass of a workload runs in a
fresh single-threaded interpreter (``workload.py``), so per-process caches
start cold as they do for a user of the command line.  All workloads are
closed loops with one client and one operation in flight; an operation is
one ``irregraph.cli.main`` call.

--trace 0 prints the end-to-end metrics: set-up time, run time, per-operation
latency, peak RSS and error rate.  --trace 1 runs one untraced and one traced
pass and prints the per-layer metrics of ``tracer.py``.  Outputs are checked
after the timed phase against the expectations in ``expected/``; any mismatch
fails the operation, and a failed operation makes the exit status 1.

--smoke shrinks every workload to seconds; --record writes the expectations
of this run (for compute, of this seed, after checking every graph of order
<= 14 against the naive oracles); --expected reads expectations from another
directory, which the benchmark's tests use to plant wrong ones.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  A fuller record, with the machine it ran on, is written
to ``bench/out/``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path


BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# Never pass --workers or --engine: the benchmark must outlive those options.
WORKLOADS = {
    "verify7": "sweep",   # headline order-7 sweep; the bulk layer does the work
    "falsify6": "sweep",  # negative control; violation expansion and JSON output
    "compute": "compute", # exponential solvers on G(n, p) graphs of order 14-18
}
SETUP_PROBES = 12         # set-up probes before and again after the passes
REFERENCE_S = 0.05        # the reference process's set-up time on a quiet host
ORACLE_MAX_N = 14         # record mode re-solves graphs up to this order naively
CHILD_TIMEOUT_S = 170
E2E_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def _spawn(spec: dict) -> dict:
    """Run one workload.py process to completion and return its result."""
    spec = dict(spec, spawned_at=time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(BENCH / "workload.py"), json.dumps(spec)],
        cwd=ROOT,
        env=_child_env(),
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["wall_s"] = time.monotonic() - spec["spawned_at"]
    return result


def _setup_probe(spec: dict) -> tuple:
    """Set-up times of a set-up-only process and of the reference process
    started right after it (see REFERENCE_MODULES in workload.py)."""
    return (
        _spawn(dict(spec, setup_only=True))["setup_s"],
        _spawn(dict(spec, reference=True))["setup_s"],
    )


def _load_expected(directory: Path, workload: str, smoke: bool) -> dict:
    with open(directory / f"{workload}.json", encoding="utf-8") as handle:
        return json.load(handle)["smoke" if smoke else "full"]


def _op_failures(kind: str, expected: dict, seed: int, result: dict) -> list:
    """One list of reasons per call of a pass; an empty list is a passed call."""
    digests = expected.get("digests", {}).get(str(seed))
    if digests is not None and len(digests) != result["inputs"]:
        digests = [f"recorded for {len(digests)} inputs"] * result["inputs"]
    verdicts = []
    for i, op in enumerate(result["ops"]):
        reasons = list(op["problems"])
        if op["exit_code"] != expected["exit_code"]:
            reasons.append(f"exit code {op['exit_code']}, expected {expected['exit_code']}")
        if kind == "sweep":
            facts = op.get("facts", {})
            for key, want in expected.items():
                if key not in ("argv", "exit_code") and facts.get(key) != want:
                    reasons.append(f"{key} differs from the recorded expectation")
        elif digests is not None and op["digest"] != digests[i % len(digests)]:
            reasons.append(f"digest {op['digest']}, recorded {digests[i % len(digests)]}")
        verdicts.append(reasons)
    return verdicts


def _record(directory: Path, workload: str, smoke: bool, seed: int, passes: list) -> None:
    path = directory / f"{workload}.json"
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    section = data["smoke" if smoke else "full"]
    ops = passes[0]["ops"]
    if any(op["problems"] for p in passes for op in p["ops"]):
        raise RuntimeError("refusing to record expectations from a run with problems")
    section["exit_code"] = ops[0]["exit_code"]
    if WORKLOADS[workload] == "sweep":
        section.update(ops[0]["facts"])
    else:
        inputs = passes[0]["inputs"]
        section.setdefault("digests", {})[str(seed)] = [op["digest"] for op in ops[:inputs]]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1)
        handle.write("\n")


def _percentile_ms(latencies: list, q: float) -> float:
    """Inclusive q-quantile in ms; the single sample when there is only one."""
    if len(latencies) == 1:
        return 1000 * latencies[0]
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    return 1000 * cuts[round(q * 100) - 1]


def _environment(seed: int) -> dict:
    def cpu_model() -> str:
        try:
            with open("/proc/cpuinfo", encoding="utf-8") as handle:
                for row in handle:
                    if row.startswith("model name"):
                        return row.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or "unknown"

    def git_commit() -> str:
        head = ROOT / ".git" / "HEAD"
        try:
            ref = head.read_text().strip()
            if ref.startswith("ref: "):
                return (ROOT / ".git" / ref[5:]).read_text().strip()
            return ref
        except OSError:
            return "unknown (not a git checkout)"

    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "seed": seed,
    }


def run_workload(args, workload: str) -> dict:
    kind = WORKLOADS[workload]
    expected = _load_expected(args.expected, workload, args.smoke)
    spec = {
        "kind": kind,
        "argv": expected["argv"],
        "seed": args.seed,
        "smoke": args.smoke,
        "trace": False,
        "preload": False,
        "setup_only": False,
        "reference": False,
        "oracle": args.record,
        "oracle_max_n": ORACLE_MAX_N,
        "trace_out": str(OUT / f"spans-{workload}{'-smoke' if args.smoke else ''}-seed{args.seed}.npz"),
    }
    setups, passes = [], []
    if args.trace:
        passes.append(_spawn(dict(spec, preload=True)))
        passes.append(_spawn(dict(spec, preload=True, trace=True)))
    else:
        # Set-up is sampled on both sides of the passes, not in one window.
        # The first probe only warms the file cache and is not counted.
        _setup_probe(spec)
        setups += [_setup_probe(spec) for _ in range(SETUP_PROBES)]
        began = time.monotonic()
        while True:
            passes.append(_spawn(spec))
            typical = statistics.median(p["wall_s"] for p in passes)
            if time.monotonic() - began + typical > args.seconds:
                break
        setups += [_setup_probe(spec) for _ in range(SETUP_PROBES)]

    verdicts = [
        reasons
        for p in passes
        for reasons in _op_failures(kind, expected, args.seed, p)
    ]
    attempted, failed = len(verdicts), sum(1 for r in verdicts if r)
    if args.record and not failed:
        _record(args.expected, workload, args.smoke, args.seed, passes)

    if args.trace:
        untraced, traced = passes
        metrics = dict(traced["layer_metrics"])
        metrics["trace_overhead"] = traced["scaled_run_s"] / untraced["scaled_run_s"] - 1
        from tracer import METRIC_SPECS

        units = {name: unit for name, unit, _ in METRIC_SPECS}
    else:
        # Set-up on the reference process's time scale and compute calls on
        # the kernel's (see workload.py); the times as measured are kept
        # under "unscaled".
        latencies = [t for p in passes for t in p["scaled_latencies_s"]]
        measured = [t for p in passes for t in p["latencies_s"]]
        metrics = {
            "setup_s": REFERENCE_S * statistics.median(s / r for s, r in setups),
            "run_s": statistics.median(p["scaled_run_s"] for p in passes),
            "op_p50_ms": _percentile_ms(latencies, 0.50),
            "op_p90_ms": _percentile_ms(latencies, 0.90),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        }
        units = E2E_UNITS
    return {
        "workload": workload,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "samples": {
            "passes": len(passes),
            "setups": len(setups),
            "latencies": sum(len(p["latencies_s"]) for p in passes),
        },
        "failures": [r for r in verdicts if r][:20],
        "unscaled": {
            "setup_s": statistics.median(s for s, _ in setups),
            "reference_s": statistics.median(r for _, r in setups),
            "run_s": statistics.median(p["run_s"] for p in passes),
            "op_p50_ms": _percentile_ms(measured, 0.50),
            "op_p90_ms": _percentile_ms(measured, 0.90),
        } if setups else None,
        "environment": _environment(args.seed),
        "passes": passes,
    }


def _print_summary(result: dict) -> None:
    name, samples = result["workload"], result["samples"]
    print(f"# {name}: {samples['passes']} passes, {samples['setups']} set-ups, "
          f"{samples['latencies']} latency samples")
    print(f"# {name} environment: {json.dumps(result['environment'])}")
    if result["unscaled"]:
        print(f"# {name} unscaled medians: {json.dumps(result['unscaled'])}")
    for metric, cell in result["metrics"].items():
        value = cell["value"]
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name} {metric} = {shown} {cell['unit']}")
    rate = result["failed"] / result["attempted"]
    print(f"{name} error_rate = {rate:.6g} ratio "
          f"({result['failed']} of {result['attempted']} operations failed)")
    for reasons in result["failures"]:
        print(f"# {name} failed operation: {'; '.join(reasons)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--expected", type=Path, default=BENCH / "expected")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "irregraph" / "cli.py").is_file():
        print(f"no irregraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    OUT.mkdir(exist_ok=True)
    results = [run_workload(args, name) for name in names]
    for result in results:
        _print_summary(result)
        size = "-smoke" if args.smoke else ""
        path = OUT / f"{result['workload']}{size}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()
        }
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
