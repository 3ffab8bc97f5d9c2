"""Command-line front door over graph6 lines.

Five subcommands cover the workflows.  compute prints the exact parameters
of each input graph, construct builds a named family member and emits its
graph6 with a metadata comment, recognize answers one structural question
per graph, verify sweeps every labeled graph up to a given order, and
sharpness re-verifies the attained-equality grids.  Input is one graph6
string per line, and one line loop serves compute and recognize; compute
passes '#' comment lines through unchanged, so construct output pipes
straight back in, and recognize skips them.  Each subparser names its handler,
which receives the parsed arguments as they are; construct has one flag per
parameter name in FAMILIES.  The parser is built once per process, on the
first call of main, and reused by every later call.

Exit codes: 0 for a clean run, 1 when verification or a claim check finds a
failure or when the reader closes stdout early, 2 for unusable input, with
the line number in the message.
"""

import argparse
import contextlib
import functools
import json
import os
import sys
from typing import TextIO

from irregraph.constructions import FAMILIES, evaluate, metadata_comment
from irregraph.graph import ASCII_WHITESPACE, Graph6Error, parse_graph6, write_graph6
from irregraph.harness import sharpness_suite, verify_range
from irregraph.params import SIZE_GUARD, full_report
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


# one construct flag per construction parameter, parsed with the row's type
_CONSTRUCT_PARAMS = {
    name: kind for row in FAMILIES.values() for name, kind in row.params.items()
}


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and its subcommand parsers by name.

    Built on first use and then shared: the parser depends only on module
    constants, and argparse keeps no state between parses.  The GRAPH6
    defaults are empty tuples, so that no parse can grow a shared default.
    """
    parser = argparse.ArgumentParser(
        prog="irregraph",
        description="exact irregular independence and domination toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser(
        "compute",
        help="exact parameters per graph",
        description=(
            "Print the exact parameters of each graph. gamma_ir, gamma_reg "
            "and max_cut enumerate subsets and refuse graphs with more than "
            f"{SIZE_GUARD} vertices (exit 2)."
        ),
    )
    compute.set_defaults(handler=_cmd_compute)
    source = compute.add_mutually_exclusive_group()
    # a default makes the positional optional, which the group requires
    source.add_argument("graphs", nargs="*", default=(), metavar="GRAPH6")
    source.add_argument("--input", metavar="PATH")
    compute.add_argument("--format", choices=("text", "json"), default="text")

    construct = sub.add_parser("construct", help="build a named family member")
    construct.set_defaults(handler=_cmd_construct)
    construct.add_argument("family", choices=sorted(FAMILIES))
    for name, kind in _CONSTRUCT_PARAMS.items():
        construct.add_argument(f"--{name}", type=kind)

    recognize = sub.add_parser("recognize", help="structural question per graph")
    recognize.set_defaults(handler=_cmd_recognize)
    recognize.add_argument("property", choices=sorted(PROPERTIES))
    source = recognize.add_mutually_exclusive_group()
    source.add_argument("graphs", nargs="*", default=(), metavar="GRAPH6")
    source.add_argument("--input", metavar="PATH")
    recognize.add_argument("--format", choices=("text", "json"), default="text")

    verify = sub.add_parser("verify", help="sweep all graphs up to an order")
    verify.set_defaults(handler=_cmd_verify)
    verify.add_argument("--n-max", type=int, default=6)
    verify.add_argument("--t41-divisor", type=int, default=2)

    sharp = sub.add_parser("sharpness", help="re-verify the equality grids")
    sharp.set_defaults(handler=_cmd_sharpness)
    sharp.add_argument("--families", nargs="+", metavar="FAMILY")
    sharp.add_argument("--corrupt-sample", action="store_true")
    return parser, sub.choices


def _parse(argv: list) -> argparse.Namespace:
    """Parse argv; GRAPH6 arguments may also follow an option.

    argparse fills the nargs="*" GRAPH6 positional, with nothing, once it
    passes the positionals before it, so later graph6 strings are left over.
    """
    parser, commands = _build_parser()
    args, rest = parser.parse_known_args(argv)
    if not rest:
        return args
    if "graphs" not in args or any(arg.startswith("-") for arg in rest):
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    if args.input is not None:
        commands[args.command].error(
            "argument GRAPH6: not allowed with argument --input"
        )
    args.graphs = [*args.graphs, *rest]
    return args


def _input_lines(args, stdin: TextIO):
    """Numbered input lines from inline arguments, a file, or stdin.

    A file is read as UTF-8 with undecodable bytes kept as surrogates, so a
    non-ASCII byte fails the graph6 parse of its own numbered line, as it
    does on stdin.  Lines end at "\n" only, less one trailing "\r"; other
    line breaks, such as "\v" or U+2028, stay inside their line.  An
    unreadable file raises OSError.
    """
    if args.graphs:
        return list(enumerate(args.graphs, 1))
    if args.input is not None:
        with open(args.input, encoding="utf-8", errors="surrogateescape") as handle:
            text = handle.read()
    else:
        text = stdin.read()
    return [(i, line.removesuffix("\r")) for i, line in enumerate(text.split("\n"), 1)]


def _each_graph(
    args, stdin, out, err, solve, kind, fields, text, copy_comments
) -> int:
    """Print solve()'s answer on each input graph, in args.format.

    A JSON line holds the schema, kind, graph and fields(answer), a text
    line the graph6 string and text(answer).  Blank lines are skipped, and
    '#' lines are copied to out only if copy_comments is true.  A line that
    fails to parse, or on which solve() raises ValueError, exits 2 with its
    line number; an unreadable input file exits 2 with the command's name.
    """
    try:
        lines = _input_lines(args, stdin)
    except OSError as exc:
        print(f"{args.command}: {exc}", file=err)
        return 2
    for lineno, raw in lines:
        line = raw.strip(ASCII_WHITESPACE)
        if not line:
            continue
        if line.startswith("#"):
            if copy_comments:
                print(raw.rstrip("\n"), file=out)
            continue
        try:
            answer = solve(parse_graph6(line))
        except (Graph6Error, ValueError) as exc:
            print(f"line {lineno}: {exc}", file=err)
            return 2
        if args.format == "json":
            payload = {"schema": 1, "kind": kind, "graph": line, **fields(answer)}
            print(json.dumps(payload), file=out)
        else:
            print(f"{line} {text(answer)}", file=out)
    return 0


def _cmd_compute(args, stdin, out, err) -> int:
    def text(report) -> str:
        return " ".join(f"{name}={getattr(report, name)}" for name in _REPORT_FIELDS)

    return _each_graph(
        args, stdin, out, err, full_report, "parameters",
        lambda report: report.to_json(), text, copy_comments=True,
    )


def _cmd_construct(args, stdin, out, err) -> int:
    params = {
        name: getattr(args, name)
        for name in _CONSTRUCT_PARAMS
        if getattr(args, name) is not None
    }
    try:
        report = evaluate(args.family, params)
    except ValueError as exc:
        print(f"construct {args.family}: {exc}", file=err)
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


def _cmd_recognize(args, stdin, out, err) -> int:
    def fields(answer) -> dict:
        if answer is not None and not isinstance(answer, bool):
            answer = {"family": answer.family.value, "params": answer.params}
        return {"property": args.property, "value": answer}

    def text(answer) -> str:
        if isinstance(answer, bool):
            return f"{args.property}={'true' if answer else 'false'}"
        return f"{args.property}={_format_tag(answer)}"

    return _each_graph(
        args, stdin, out, err, PROPERTIES[args.property], "recognition",
        fields, text, copy_comments=False,
    )


def _cmd_verify(args, stdin, out, err) -> int:
    try:
        summary = verify_range(args.n_max, args.t41_divisor)
    except ValueError as exc:
        print(f"verify: {exc}", file=err)
        return 2
    summary.write_json(out)
    return 1 if summary.violations else 0


def _cmd_sharpness(args, stdin, out, err) -> int:
    try:
        summary = sharpness_suite(args.families, args.corrupt_sample)
    except ValueError as exc:
        print(f"sharpness: {exc}", file=err)
        return 2
    print(json.dumps(summary.to_json(), indent=2), file=out)
    return 1 if summary.failures else 0


def main(argv=None, stdin=None, stdout=None, stderr=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    stdin = sys.stdin if stdin is None else stdin
    stdout = sys.stdout if stdout is None else stdout
    stderr = sys.stderr if stderr is None else stderr
    try:
        # argparse prints help and usage errors to sys.stdout and sys.stderr
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            args = _parse(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    return args.handler(args, stdin, stdout, stderr)


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (say, `| head -1`); pointing stdout
        # at devnull keeps the interpreter's final flush from failing again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    entrypoint()
