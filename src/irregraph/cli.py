"""Command-line front door over graph6 lines.

Five subcommands cover the workflows.  compute prints the exact parameters
of each input graph, construct builds a named family member and emits its
graph6 with a metadata comment, recognize answers one structural question
per graph, verify sweeps every labeled graph up to a given order, and
sharpness re-verifies the attained-equality grids.  Input is one graph6
string per line; compute passes '#' comment lines through unchanged, so
construct output pipes straight back in.

Exit codes: 0 for a clean run, 1 when verification or a claim check finds a
failure, 2 for unusable input, with the line number in the message.
"""

import argparse
import json
import sys
from dataclasses import dataclass, field
from typing import Optional, TextIO

from irregraph.constructions import FAMILIES, evaluate, metadata_comment
from irregraph.graph import Graph6Error, parse_graph6, write_graph6
from irregraph.harness import CheckConfig, sharpness_suite, verify_range
from irregraph.params import full_report
from irregraph.recognizers import (
    classify_gamma_extremal,
    classify_outerplanar_alpha1,
    classify_planar_alpha1,
    is_outerplanar,
    is_planar,
    satisfies_lemma31,
)

PROPERTIES = {
    "lemma31": satisfies_lemma31,
    "planar": is_planar,
    "outerplanar": is_outerplanar,
    "planar-alpha1": classify_planar_alpha1,
    "outerplanar-alpha1": classify_outerplanar_alpha1,
    "gamma-extremal": classify_gamma_extremal,
}

_REPORT_FIELDS = (
    "n", "m", "delta", "Delta", "span",
    "alpha", "alpha_ir", "alpha_reg", "gamma_ir", "gamma_reg", "beta",
)


@dataclass(frozen=True)
class CliConfig:
    """One parsed invocation; only the chosen command's fields matter."""

    command: str
    graphs: tuple = ()
    input_path: Optional[str] = None
    fmt: str = "text"
    family: Optional[str] = None
    params: dict = field(default_factory=dict)
    prop: Optional[str] = None
    n_max: int = 6
    t41_divisor: int = 2
    families: Optional[tuple] = None
    corrupt_sample: bool = False


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irregraph",
        description="exact irregular independence and domination toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="exact parameters per graph")
    compute.add_argument("graphs", nargs="*", metavar="GRAPH6")
    compute.add_argument("--input", metavar="PATH")
    compute.add_argument("--format", choices=("text", "json"), default="text")

    construct = sub.add_parser("construct", help="build a named family member")
    construct.add_argument("family", choices=sorted(FAMILIES))
    construct.add_argument("--r", type=int)
    construct.add_argument("--t", type=int)
    construct.add_argument("--n", type=int)
    construct.add_argument("--k", type=int)
    construct.add_argument("--case")

    recognize = sub.add_parser("recognize", help="structural question per graph")
    recognize.add_argument("property", choices=sorted(PROPERTIES))
    recognize.add_argument("graphs", nargs="*", metavar="GRAPH6")
    recognize.add_argument("--input", metavar="PATH")
    recognize.add_argument("--format", choices=("text", "json"), default="text")

    verify = sub.add_parser("verify", help="sweep all graphs up to an order")
    verify.add_argument("--n-max", type=int, default=6, dest="n_max")
    verify.add_argument("--t41-divisor", type=int, default=2, dest="t41_divisor")

    sharp = sub.add_parser("sharpness", help="re-verify the equality grids")
    sharp.add_argument("--families", nargs="+", metavar="FAMILY")
    sharp.add_argument("--corrupt-sample", action="store_true")
    return parser


def parse_cli(argv) -> CliConfig:
    ns = _build_parser().parse_args(argv)
    if ns.command == "compute":
        return CliConfig(
            command="compute",
            graphs=tuple(ns.graphs),
            input_path=ns.input,
            fmt=ns.format,
        )
    if ns.command == "construct":
        params = {
            key: value
            for key, value in (
                ("r", ns.r), ("t", ns.t), ("n", ns.n),
                ("k", ns.k), ("case", ns.case),
            )
            if value is not None
        }
        return CliConfig(command="construct", family=ns.family, params=params)
    if ns.command == "recognize":
        return CliConfig(
            command="recognize",
            prop=ns.property,
            graphs=tuple(ns.graphs),
            input_path=ns.input,
            fmt=ns.format,
        )
    if ns.command == "verify":
        return CliConfig(
            command="verify", n_max=ns.n_max, t41_divisor=ns.t41_divisor
        )
    return CliConfig(
        command="sharpness",
        families=tuple(ns.families) if ns.families is not None else None,
        corrupt_sample=ns.corrupt_sample,
    )


def _input_lines(config: CliConfig, stdin: TextIO):
    """Numbered input lines from inline arguments, a file, or stdin."""
    if config.graphs:
        return list(enumerate(config.graphs, 1))
    if config.input_path is not None:
        with open(config.input_path, encoding="ascii") as handle:
            return list(enumerate(handle.read().splitlines(), 1))
    return list(enumerate(stdin.read().splitlines(), 1))


def _cmd_compute(config: CliConfig, stdin, out, err) -> int:
    for lineno, raw in _input_lines(config, stdin):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            print(raw.rstrip("\n"), file=out)
            continue
        try:
            report = full_report(parse_graph6(line))
        except (Graph6Error, ValueError) as exc:
            print(f"line {lineno}: {exc}", file=err)
            return 2
        if config.fmt == "json":
            print(
                json.dumps(
                    {
                        "schema": 1,
                        "kind": "parameters",
                        "graph": line,
                        **report.to_json(),
                    }
                ),
                file=out,
            )
        else:
            cells = " ".join(
                f"{name}={getattr(report, name)}" for name in _REPORT_FIELDS
            )
            print(f"{line} {cells}", file=out)
    return 0


def _cmd_construct(config: CliConfig, out, err) -> int:
    try:
        report = evaluate(config.family, config.params)
    except ValueError as exc:
        print(f"construct {config.family}: {exc}", file=err)
        return 2
    print(write_graph6(report.graph), file=out)
    print(metadata_comment(report), file=out)
    return 0 if report.ok else 1


def _format_tag(tag) -> str:
    if tag is None:
        return "none"
    if not tag.params:
        return tag.family.value
    inner = ",".join(f"{k}={v}" for k, v in sorted(tag.params.items()))
    return f"{tag.family.value}({inner})"


def _cmd_recognize(config: CliConfig, stdin, out, err) -> int:
    question = PROPERTIES[config.prop]
    for lineno, raw in _input_lines(config, stdin):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            answer = question(parse_graph6(line))
        except (Graph6Error, ValueError) as exc:
            print(f"line {lineno}: {exc}", file=err)
            return 2
        if config.fmt == "json":
            if answer is None or isinstance(answer, bool):
                value = answer
            else:
                value = {"family": answer.family.value, "params": answer.params}
            print(
                json.dumps(
                    {
                        "schema": 1,
                        "kind": "recognition",
                        "graph": line,
                        "property": config.prop,
                        "value": value,
                    }
                ),
                file=out,
            )
        else:
            if isinstance(answer, bool):
                text = "true" if answer else "false"
            else:
                text = _format_tag(answer)
            print(f"{line} {config.prop}={text}", file=out)
    return 0


def _cmd_verify(config: CliConfig, out, err) -> int:
    try:
        summary = verify_range(
            config.n_max, CheckConfig(t41_divisor=config.t41_divisor)
        )
    except ValueError as exc:
        print(f"verify: {exc}", file=err)
        return 2
    summary.write_json(out)
    return 1 if summary.violations else 0


def _cmd_sharpness(config: CliConfig, out, err) -> int:
    try:
        summary = sharpness_suite(
            families=config.families, corrupt=config.corrupt_sample
        )
    except ValueError as exc:
        print(f"sharpness: {exc}", file=err)
        return 2
    print(json.dumps(summary.to_json(), indent=2), file=out)
    return 1 if summary.failures else 0


def run(config: CliConfig, stdin: TextIO, out: TextIO, err: TextIO) -> int:
    if config.command == "compute":
        return _cmd_compute(config, stdin, out, err)
    if config.command == "construct":
        return _cmd_construct(config, out, err)
    if config.command == "recognize":
        return _cmd_recognize(config, stdin, out, err)
    if config.command == "verify":
        return _cmd_verify(config, out, err)
    return _cmd_sharpness(config, out, err)


def main(argv=None, stdin=None, stdout=None, stderr=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    stdin = sys.stdin if stdin is None else stdin
    stdout = sys.stdout if stdout is None else stdout
    stderr = sys.stderr if stderr is None else stderr
    try:
        config = parse_cli(argv)
    except SystemExit as exc:  # argparse reports its own usage errors
        code = exc.code
        return code if isinstance(code, int) else 2
    return run(config, stdin, stdout, stderr)


def entrypoint() -> None:
    raise SystemExit(main())
