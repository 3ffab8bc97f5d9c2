"""Command-line interface: pipelines, formats, and the exit-code contract."""

import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from irregraph import constructions
from irregraph.cli import main
from irregraph.constructions import FAMILIES
from irregraph.graph import complete_graph, star_graph, write_graph6
from irregraph.harness import THEOREM_IDS, Verdict
from oracles import checked_member


def run_cli(*argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


# smallest legal parameter set per construction family
FAMILY_ARGS = {
    "clique_union": ("--r", "1", "--t", "3"),
    "staircase_gamma": ("--n", "5",),
    "alpha_sharp_bipartite": ("--r", "1", "--t", "2"),
    "alpha_sharp_clique": ("--r", "2", "--t", "1"),
    "modstar": ("--r", "1", "--t", "2"),
    "product_extremal": ("--n", "5",),
    "sum_extremal": ("--n", "4", "--k", "3"),
    "ng_alpha": ("--n", "4",),
    "ng_gamma": ("--n", "4",),
    "relation_extremal": ("--n", "5", "--case", "complement"),
}


def test_family_args_cover_registry():
    assert set(FAMILY_ARGS) == set(FAMILIES)


def test_compute_inline_example():
    code, out, err = run_cli("compute", "Ch")
    assert code == 0 and err == ""
    line = out.strip()
    assert line.startswith("Ch ")
    for cell in ("n=4", "m=3", "alpha_ir=2", "gamma_ir=2", "beta=3"):
        assert f" {cell}" in line


def test_compute_json_format():
    code, out, _ = run_cli("compute", "--format", "json", "Ch")
    assert code == 0
    record = json.loads(out)
    assert record["schema"] == 1
    assert record["kind"] == "parameters"
    assert record["graph"] == "Ch"
    assert record["alpha_ir"] == 2
    assert record["gamma_ir"] == 2
    assert record["beta"] == 3
    assert sorted(record["witnesses"]) == [
        "alpha", "alpha_ir", "alpha_reg", "beta", "gamma_ir", "gamma_reg",
    ]


def test_compute_reads_stdin_and_passes_comments():
    code, out, _ = run_cli("compute", stdin_text="# corpus header\n\nCh\n")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# corpus header"
    assert lines[1].startswith("Ch ")


def test_compute_reads_input_file(tmp_path):
    corpus = tmp_path / "graphs.g6"
    corpus.write_text("Ch\nBW\n")
    code, out, _ = run_cli("compute", "--input", str(corpus))
    assert code == 0
    assert len(out.splitlines()) == 2


def test_input_file_that_cannot_be_read_exits_two(tmp_path):
    missing = str(tmp_path / "missing.g6")
    for argv in (("compute",), ("recognize", "planar")):
        code, out, err = run_cli(*argv, "--input", missing)
        assert code == 2 and out == ""
        assert err.startswith(f"{argv[0]}: ") and "missing.g6" in err
        assert len(err.splitlines()) == 1


def test_inline_graphs_and_input_file_exclude_each_other(tmp_path):
    missing = str(tmp_path / "missing.g6")
    for argv in (("compute",), ("recognize", "planar")):
        for tail in (("A_", "--input", missing), ("--input", missing, "A_")):
            code, out, err = run_cli(*argv, *tail)
            assert code == 2 and out == ""
            assert err.startswith("usage: ")


def test_input_file_non_ascii_byte_names_its_line(tmp_path):
    corpus = tmp_path / "graphs.g6"
    corpus.write_bytes(b"Ch\n\xffCh\n")
    for argv in (("compute",), ("recognize", "planar")):
        code, out, err = run_cli(*argv, "--input", str(corpus))
        assert code == 2 and out.startswith("Ch ")
        assert err.startswith("line 2: bad header byte")
        assert len(err.splitlines()) == 1


def test_compute_rejects_bad_line_with_number():
    code, out, err = run_cli("compute", stdin_text="Ch\n??bad??\n")
    assert code == 2
    assert "line 2" in err


def test_construct_example_with_metadata():
    code, out, _ = run_cli("construct", "clique_union", "--r", "1", "--t", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == write_graph6(checked_member("clique_union", r=1, t=3))
    assert lines[1].startswith("# clique_union(r=1,t=3)")
    assert "alpha_ir=3" in lines[1]


@pytest.mark.parametrize("family", sorted(FAMILY_ARGS))
def test_construct_compute_pipeline_closure(family):
    code, built, _ = run_cli("construct", family, *FAMILY_ARGS[family])
    assert code == 0
    code, reported, err = run_cli("compute", stdin_text=built)
    assert code == 0, err
    lines = reported.splitlines()
    assert len(lines) == 2
    assert "alpha_ir=" in lines[0]
    assert lines[1].startswith(f"# {family}(")


def test_construct_failed_claims_exit_one(monkeypatch):
    # a solver off by one makes a claim miss, and the metadata records which
    real = constructions.alpha_ir
    monkeypatch.setattr(
        constructions, "alpha_ir", lambda g: real(g)._replace(value=real(g).value + 1)
    )
    code, out, _ = run_cli("construct", "clique_union", "--r", "1", "--t", "3")
    assert code == 1
    assert out.splitlines()[1] == (
        "# clique_union(r=1,t=3) alpha_ir: FAILED; degree_spread_plus_one=3"
    )


def test_construct_parameter_errors_exit_two():
    code, _, err = run_cli("construct", "modstar", "--r", "2", "--t", "2")
    assert code == 2 and "modstar" in err
    code, _, _ = run_cli("construct", "no_such_family", "--n", "4")
    assert code == 2
    code, out, err = run_cli("construct", "relation_extremal", "--n", "5", "--case", "sideways")
    assert code == 2 and out == "" and "case must be one of" in err
    for argv, condition in (
        (("clique_union", "--r", "0", "--t", "1"), "needs r >= 1 and t >= 1"),
        (("alpha_sharp_bipartite", "--r", "2", "--t", "2"), "needs t(t-1) >= 2r(r-1)"),
        (("alpha_sharp_clique", "--r", "2", "--t", "3"), "needs r >= t >= 1"),
        (("sum_extremal", "--n", "5", "--k", "7"), "needs 2 <= k <= n+1"),
        (("ng_alpha", "--n", "1"), "needs n >= 2"),
        (("ng_gamma", "--n", "2"), "needs n >= 3"),
        (("product_extremal", "--n", "3"), "needs n >= 4"),
        (("clique_union", "--r", "1", "--t", "2", "--n", "5"), "unknown parameter 'n'"),
        (("clique_union", "--r", "1"), "missing parameter 't'"),
    ):
        code, out, err = run_cli("construct", *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"construct {argv[0]}: ") and condition in err, err


def test_recognize_text_and_json():
    g6 = write_graph6(star_graph(5))
    code, out, _ = run_cli("recognize", "planar-alpha1", g6)
    assert code == 0
    assert out.strip() == f"{g6} planar-alpha1=Star(n=5)"
    code, out, _ = run_cli("recognize", "planar", write_graph6(complete_graph(5)))
    assert code == 0
    assert out.strip().endswith("planar=false")
    code, out, _ = run_cli(
        "recognize", "--format", "json", "gamma-extremal", write_graph6(complete_graph(4))
    )
    record = json.loads(out)
    assert record["schema"] == 1
    assert record["kind"] == "recognition"
    assert record["value"] == {"family": "IsolatedPlusRegular", "params": {"t": 0, "r": 3}}
    code, out, _ = run_cli("recognize", "--format", "json", "planar-alpha1", "Ch")
    assert json.loads(out)["value"] is None


def test_recognize_planar_alpha1_beyond_order_16():
    # networkx's dodecahedral graph, written by write_graph6
    dodecahedron = "ShCHGD@?K?_@?@?C_GGG@??cG?G?GK_?C"
    code, out, err = run_cli("recognize", "planar-alpha1", dodecahedron)
    assert (code, err) == (0, "")
    assert out == f"{dodecahedron} planar-alpha1=RegularPlanar(n=20,r=3)\n"


def test_recognize_bad_input_exits_two():
    code, _, err = run_cli("recognize", "lemma31", stdin_text="!!!\n")
    assert code == 2
    assert "line 1" in err


def test_verify_small_sweep_json():
    code, out, _ = run_cli("verify", "--n-max", "3")
    assert code == 0
    record = json.loads(out)
    assert record["schema"] == 1
    assert record["kind"] == "sweep"
    assert record["graphs_checked"] == 12
    assert record["violations"] == []


def test_verify_negative_control_exits_one():
    code, out, _ = run_cli("verify", "--n-max", "3", "--t41-divisor", "1")
    assert code == 1
    record = json.loads(out)
    assert record["violations"]
    assert record["violations"][0]["graph"] == "A_"


def test_verify_engine_and_worker_flags():
    # one sweep engine, no thread pool: both options are unknown now
    for flag, value in (("--engine", "scalar"), ("--workers", "2")):
        code, out, err = run_cli("verify", "--n-max", "3", flag, value)
        assert code == 2
        assert out == ""
        assert flag in err  # argparse's usage error


def test_argparse_output_goes_to_the_given_streams(capsys):
    code, out, err = run_cli("verify", "--bogus")
    assert code == 2 and out == ""
    assert err.startswith("usage: irregraph") and "--bogus" in err
    code, out, err = run_cli("--help")
    assert code == 0 and err == ""
    assert out.startswith("usage: irregraph")
    assert capsys.readouterr() == ("", "")  # nothing on the real streams


def test_verify_serialises_each_violating_class_once(monkeypatch):
    # order <= 5 with the falsified T4.1: 1094 violations in 47 classes, and
    # each class's verdict list goes through Verdict.to_json once
    calls = []
    to_json = Verdict.to_json

    def counted(self):
        calls.append(self.theorem_id)
        return to_json(self)

    monkeypatch.setattr(Verdict, "to_json", counted)
    code, out, _ = run_cli("verify", "--n-max", "5", "--t41-divisor", "1")
    assert code == 1
    assert len(json.loads(out)["violations"]) == 1094
    assert len(calls) == 47 * len(THEOREM_IDS)


def test_verify_bad_order_exits_two():
    code, out, err = run_cli("verify", "--n-max", "9")
    assert code == 2
    assert "verify:" in err
    assert out == ""


def test_sharpness_clean_and_corrupt():
    code, out, _ = run_cli("sharpness", "--families", "ng_gamma")
    assert code == 0
    record = json.loads(out)
    assert record["schema"] == 1
    assert record["kind"] == "sharpness"
    assert record["builds"] == 10
    code, out, _ = run_cli("sharpness", "--families", "ng_gamma", "--corrupt-sample")
    assert code == 1
    record = json.loads(out)
    assert record["builds"] == 11
    assert len(record["failures"]) == 1
    assert record["failures"][0]["failed_claims"]


def test_sharpness_unknown_family_exits_two():
    code, _, err = run_cli("sharpness", "--families", "bogus")
    assert code == 2
    assert "sharpness:" in err


def test_sharpness_repeated_family_exits_two():
    code, out, err = run_cli("sharpness", "--families", "ng_gamma", "ng_alpha", "ng_gamma")
    assert (code, out) == (2, "")
    assert err == "sharpness: repeated families: ['ng_gamma']\n"


def test_usage_errors_and_help():
    assert run_cli()[0] == 2
    assert run_cli("no_such_command")[0] == 2
    assert run_cli("--help")[0] == 0


def test_construct_flags_are_the_family_parameters():
    code, out, _ = run_cli("construct", "--help")
    assert code == 0
    flags = set(re.findall(r"--[a-z_]+", out)) - {"--help"}
    assert flags == {f"--{name}" for row in FAMILIES.values() for name in row.params}


def test_verify_rejects_divisor_before_sweeping():
    code, out, err = run_cli("verify", "--n-max", "0", "--t41-divisor", "0")
    assert (code, out) == (2, "")
    assert err == "verify: divisor must be >= 1\n"


def test_entrypoint_wires_exit_code(monkeypatch, capsys):
    import irregraph.cli as cli_module

    monkeypatch.setattr("sys.argv", ["irregraph", "verify", "--n-max", "2"])
    with pytest.raises(SystemExit) as info:
        cli_module.entrypoint()
    assert info.value.code == 0
    assert json.loads(capsys.readouterr().out)["graphs_checked"] == 4


def _cli_env() -> dict:
    src = Path(constructions.__file__).resolve().parents[1]
    return {**os.environ, "PYTHONPATH": str(src)}


@pytest.mark.parametrize("module", ["irregraph", "irregraph.cli"])
def test_python_dash_m_runs_the_cli(module):
    done = subprocess.run(
        [sys.executable, "-m", module, "construct", "clique_union", "--r", "1", "--t", "3"],
        capture_output=True, text=True, env=_cli_env(), check=False,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == write_graph6(
        checked_member("clique_union", r=1, t=3)
    )


def test_closed_stdout_exits_one_without_traceback():
    # order <= 5 with the falsified T4.1 prints megabytes of JSON, far more
    # than a pipe buffers, so the writer meets the closed pipe
    with subprocess.Popen(
        [sys.executable, "-m", "irregraph", "verify", "--n-max", "5", "--t41-divisor", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(),
    ) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert err == b""
