"""Command-line interface: subcommand outputs, exit codes, file outputs,
report determinism, and the README's command examples.

Exit convention: 0 pass, 1 assertion failure, 2 usage/parse error.
Network files are written into a temporary directory from
``corpus.NETWORK_TEXTS``, plus two networks that exist only here.
"""

import csv
import importlib
import json
import math
import os
import pkgutil
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

import toric_gac
from toric_gac.cli import build_parser, cli_dispatch
from toric_gac.corpus import EMBEDDING_CORPUS, NETWORK_TEXTS
from toric_gac.equilibria import solve_complex_balanced
from toric_gac.experiments import ExperimentConfig, InitialConditions, \
    run_global_attractor_experiment
from toric_gac.network import CheckFailed, InputError, parse_network

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
TEXTS = {
    **NETWORK_TEXTS,
    "unit_pair": "species A B\nA <-> B ; kf=1 kr=1\n",
    "not_weakly_reversible": "species A B\nA -> B ; k=1\n",
    "pair_7sp": "species A B C D E F G\nA <-> B ; kf=1 kr=1\n",
    "malformed": "species A B\nA -> ; k=1\n",
    "huge_exponent": "species A B\n1e300 A <-> B ; kf=1 kr=1\n",
    # hostile inputs: rate ratios beyond the float range, huge exponents
    "rate_span": "species A B\nA <-> B ; kf=1e-200 kr=1e200\n",
    "rate_span_triangle": "species A B C\nA -> B ; k=1e-300\n"
                          "B -> C ; k=1e300\nC -> A ; k=1\n",
    "exponent_60": "species A B\n60 A <-> 60 B ; kf=1 kr=1\n",
    "mixed_exponents": "species A B\n60 A + 3 B <-> B ; kf=2 kr=0.5\n"
                       "B <-> 40 A ; kf=1 kr=3\n",
    # A's out-rates sum past the float range; its tree constants do not
    "out_rates_overflow": "species A B C\nA -> B ; k=1.5e308\n"
                          "A -> C ; k=1.5e308\nB -> A ; k=1\nC -> A ; k=1\n",
    "tiny_rates": "species A B\nA <-> B ; kf=1e-305 kr=2e-305\n",
}


@pytest.fixture
def net_path(tmp_path):
    """``net_path(name)`` writes ``name.crn`` and returns its path."""
    nets = tmp_path / "networks"
    nets.mkdir()

    def write(name: str) -> str:
        path = nets / f"{name}.crn"
        path.write_text(TEXTS[name], encoding="utf-8")
        return str(path)
    return write


def run(capsys, *argv):
    code = cli_dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


FRESH = """\
import contextlib, io, json, sys
from toric_gac.cli import cli_dispatch
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli_dispatch(sys.argv[1:])
print(json.dumps({"out": out.getvalue(), "modules": sorted(sys.modules)}))
sys.exit(code)
"""


def run_fresh(*argv, flags=()):
    """``cli_dispatch(argv)`` in a new interpreter started with ``flags``,
    which has imported nothing but what the dispatch imports: (exit code,
    stdout of the dispatch, stderr, names in ``sys.modules`` afterwards)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, *flags, "-c", FRESH, *argv],
                          env=env, capture_output=True, text=True)
    assert proc.stdout, proc.stderr  # a traceback, not a mapped error
    doc = json.loads(proc.stdout)
    return proc.returncode, doc["out"], proc.stderr, set(doc["modules"])


# -- exit codes -----------------------------------------------------------


def test_no_arguments_is_usage_error(capsys):
    code, _, _ = run(capsys)
    assert code == 2


def test_unknown_flag_is_usage_error(net_path, capsys):
    code, _, err = run(capsys, "analyze", net_path("rev_pair"), "--bogus")
    assert code == 2


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "analyze", "/nonexistent.crn")
    assert code == 2 and "input error" in err


@pytest.mark.parametrize("module", ["toric_gac", "toric_gac.cli"])
def test_python_m_runs_the_cli(module, tmp_path):
    # both module forms must run main(), not exit 0 in silence
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", module, "analyze", str(tmp_path / "none.crn")],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 2 and "input error" in proc.stderr
    assert proc.stdout == ""


def test_malformed_network_is_input_error(tmp_path, capsys):
    p = tmp_path / "bad.crn"
    p.write_text("species A B\nA -> ; k=1\n")
    code, _, err = run(capsys, "analyze", str(p))
    assert code == 2 and "input error" in err


def test_rate_that_overflows_a_float_is_input_error(tmp_path, capsys):
    # equilibrium once died here with an OverflowError traceback
    p = tmp_path / "huge.crn"
    p.write_text("species A B\nA <-> B ; kf=1e400 kr=1\n")
    code, out, err = run(capsys, "equilibrium", str(p))
    assert code == 2 and out == ""
    assert err == ("input error: line 2, column 14: "
                   "value 1e400 overflows a float\n")


# -- analyze --------------------------------------------------------------


def test_analyze_structural_fields(net_path, capsys):
    code, doc, _ = run_json(capsys, "analyze", net_path("rev_pair"))
    assert code == 0
    assert doc["schema"] == 1
    assert doc["weakly_reversible"] is True
    assert doc["reversible"] is True
    assert doc["linkage_classes"] == [[0, 1]]
    assert doc["deficiency"] == 0
    assert doc["s"] == 1


def test_analyze_deficient_network(net_path, capsys):
    code, doc, _ = run_json(capsys, "analyze",
                            net_path("two_triangles_vertex"))
    assert code == 0
    assert doc["weakly_reversible"] is True
    assert doc["deficiency"] == 2


# -- equilibrium ----------------------------------------------------------


def test_equilibrium_solvable(net_path, capsys):
    code, doc, _ = run_json(capsys, "equilibrium", net_path("rev_pair"))
    assert code == 0
    assert doc["method"] == "tree_solve"
    assert max(abs(v) for v in doc["residual"]) <= 1e-10
    assert doc["x0"][0] / doc["x0"][1] == pytest.approx(1.5, rel=1e-12)


def test_equilibrium_unsolvable_exits_one(net_path, capsys):
    code, doc, _ = run_json(capsys, "equilibrium",
                            net_path("two_triangles_vertex"))
    assert code == 1
    assert doc["x0"] is None


# -- simulate -------------------------------------------------------------


def test_simulate_csv_output(net_path, capsys):
    code, out, _ = run(capsys, "simulate", net_path("unit_pair"),
                       "--horizon", "2", "--x0", "2,1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,x1,x2"
    rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
    assert rows[0] == [0.0, 2.0, 1.0]
    # linear invariant x1 + x2 = 3 along every row
    for r in rows:
        assert r[1] + r[2] == pytest.approx(3.0, abs=1e-11)


def test_simulate_json_format(net_path, capsys):
    code, doc, _ = run_json(capsys, "simulate", net_path("unit_pair"),
                            "--horizon", "1", "--x0", "2,1",
                            "--format", "json")
    assert code == 0
    assert doc["times"][0] == 0.0 and doc["times"][-1] == 1.0
    assert doc["states"][0] == [2.0, 1.0]


def test_simulate_bad_x0_is_usage_error(net_path, capsys):
    code, _, err = run(capsys, "simulate", net_path("unit_pair"),
                       "--x0", "1,2,3")
    assert code == 2 and "usage error" in err
    code, _, err = run(capsys, "simulate", net_path("unit_pair"),
                       "--x0", "1,-2")
    assert code == 2
    code, _, err = run(capsys, "simulate", net_path("unit_pair"),
                       "--x0", "nan,1")
    assert code == 2 and "usage error" in err


# -- embed-verify ---------------------------------------------------------


def test_embed_verify_passes(net_path, capsys):
    code, doc, _ = run_json(capsys, "embed-verify", net_path("rev_pair"),
                            "--epsilon", "0.5", "--trials", "50",
                            "--seed", "7")
    assert code == 0
    assert doc["sampling"]["passes"] == 50
    assert doc["sampling"]["trials"] == 50


def test_embed_verify_rejects_non_weakly_reversible(net_path, capsys):
    code, _, err = run(capsys, "embed-verify",
                       net_path("not_weakly_reversible"))
    assert code == 1 and "NotWeaklyReversible" in err


def test_embed_verify_above_six_species_is_input_error(net_path, capsys):
    code, out, err = run(capsys, "embed-verify", net_path("pair_7sp"),
                         "--trials", "10")
    assert code == 2 and out == ""
    assert err.startswith("input error:") and err.count("\n") == 1
    assert "dimension 6" in err


def test_embed_verify_does_not_import_scipy(net_path):
    code, _, err, modules = run_fresh("embed-verify", net_path("triangle"))
    assert code == 0, err
    assert "scipy" not in modules


# -- what a fresh process imports and how its errors map -------------------

LAYERS = ("dynamics", "geometry", "embedding", "equilibria", "experiments",
          "surfaces")


@pytest.mark.parametrize("argv,used", [
    (("analyze",), ()),
    (("embed-verify", "--trials", "50"), ("dynamics", "geometry", "embedding")),
    (("persist", "--trials", "2"), ("dynamics", "equilibria", "experiments")),
    (("gac", "--trials", "2"), ("dynamics", "equilibria", "experiments")),
], ids=["analyze", "embed-verify", "persist", "gac"])
def test_subcommand_imports_only_its_layers(net_path, argv, used):
    code, _, err, modules = run_fresh(argv[0], net_path("rev_pair"), *argv[1:])
    assert code == 0, err
    loaded = {m for m in LAYERS if f"toric_gac.{m}" in modules}
    assert loaded == set(used)


@pytest.mark.parametrize("argv,expected", [
    (("analyze", "{rev_pair}"), 0),
    (("--help",), 0),
    (("analyze", "{rev_pair}", "--unknown-flag"), 2),
    (("analyze", "{malformed}"), 2),
], ids=["analyze", "help", "unknown-flag", "malformed-network"])
def test_structural_paths_do_not_import_numpy(net_path, argv, expected):
    # the stoichiometric rank is exact elimination in pure Python,
    # so nothing before a numeric layer needs numpy
    argv = [a.format(rev_pair=net_path("rev_pair"),
                     malformed=net_path("malformed")) for a in argv]
    code, _, err, modules = run_fresh(*argv)
    assert code == expected, err
    assert "numpy" not in modules


@pytest.mark.parametrize("argv,network,expected,line", [
    (("embed-verify",), "not_weakly_reversible", 1,
     "check failed: NotWeaklyReversible: edge 0->1 leaves its strongly "
     "connected component"),
    (("embed-verify", "--trials", "10"), "pair_7sp", 2,
     "input error: polar cone limited to dimension 6, got 7"),
    # NoComplexBalance comes from equilibria, which only gac/persist import
    (("gac", "--trials", "2"), "two_triangles_vertex", 1,
     "check failed: NoComplexBalance: experiment requires a "
     "vertex-balance-solvable network"),
    # raised in equilibria, which cli_dispatch does not name
    (("equilibrium",), "rate_span", 2,
     "input error: rates span more than the float range"),
], ids=["NotWeaklyReversible", "DimensionTooLarge", "NoComplexBalance",
        "rate-span"])
def test_errors_map_in_a_fresh_process(net_path, argv, network, expected,
                                       line):
    code, out, err, _ = run_fresh(argv[0], net_path(network), *argv[1:])
    assert (code, out, err) == (expected, "", line + "\n")


def test_every_public_error_has_one_exit_base():
    # cli_dispatch maps the two bases only, so a class with neither would
    # reach the user as a traceback, and one with both has two exit codes
    names = set()
    for info in pkgutil.iter_modules(toric_gac.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(f"toric_gac.{info.name}")
        for name, cls in vars(module).items():
            if (isinstance(cls, type) and issubclass(cls, Exception)
                    and cls.__module__ == module.__name__
                    and not name.startswith("_")
                    and cls not in (InputError, CheckFailed)):
                names.add(name)
                assert issubclass(cls, InputError) != issubclass(
                    cls, CheckFailed), name
    assert {"UsageError", "NotWeaklyReversible", "DimensionTooLarge",
            "CoincidentVertices", "NewtonDivergence", "BandsOverlap",
            "StepSizeUnderflow"} <= names


def finite(token):
    raise AssertionError(f"non-finite {token} in the report")


HOSTILE = ("rate_span", "rate_span_triangle", "huge_exponent", "exponent_60",
           "mixed_exponents")
SMALL_RUNS = {
    "analyze": (),
    "equilibrium": (),
    "simulate": ("--horizon", "1", "--format", "json"),
    "embed-verify": ("--trials", "20"),
    "curve2d": (),
    "certify-surface": (),
    "persist": ("--trials", "3", "--horizon", "2"),
    "gac": ("--trials", "3", "--horizon", "2"),
}


# eps near 1 sends delta0 to 0, the strict edge of the band rule
NEAR_ONE = ("1.0", "0.999999999999")


@pytest.mark.parametrize("network,command,epsilon", [
    *(pytest.param(network, command, None, id=f"{network}-{command}")
      for network in HOSTILE for command in SMALL_RUNS),
    *(pytest.param(network, command, eps, id=f"{network}-{command}-eps{eps}")
      for network in EMBEDDING_CORPUS
      for command in ("embed-verify", "curve2d", "certify-surface")
      for eps in NEAR_ONE)])
def test_hostile_input_ends_in_a_report_or_one_line(net_path, capsys,
                                                    network, command, epsilon):
    extra = () if epsilon is None else ("--epsilon", epsilon)
    code, out, err = run(capsys, command, net_path(network),
                         *SMALL_RUNS[command], *extra)
    if epsilon is not None:  # the corpus passes; curves need two species
        assert code == 0 or "needs exactly 2 species" in err
    assert "NaN" not in out + err and "Infinity" not in out + err
    if out:
        assert code in (0, 1) and err == ""
        json.loads(out, parse_constant=finite)
    else:
        assert code in (1, 2) and err.count("\n") == 1 and err.endswith("\n")


def test_kernel_check_takes_rates_at_either_end_of_the_float_range(
        net_path, capsys):
    # the tree constants (1, 1.5e308, 1.5e308) are finite, and the kernel
    # check that accepts them no longer overflows on A's row
    path = net_path("out_rates_overflow")
    code, doc, err = run_json(capsys, "equilibrium", path)
    assert (code, err) == (0, "")
    assert np.allclose(doc["x0"], [8.164965809276293e-155,
                                   1.2247448713919429e154,
                                   1.2247448713914555e154], rtol=1e-9, atol=0)
    for command in ("persist", "gac"):
        code, doc, err = run_json(capsys, command, path, *SMALL_RUNS[command])
        assert code in (0, 1) and err == ""
        assert not any("SingularSystem" in (row["error"] or "")
                       for row in doc["trajectories"])
    # rates near the bottom of the float range: the same check used to
    # divide by a scale that underflowed to 0 (a bare ZeroDivisionError)
    code, doc, err = run_json(capsys, "equilibrium", net_path("tiny_rates"))
    assert (code, err) == (0, "")
    assert math.isclose(doc["x0"][1] / doc["x0"][0], 0.5, rel_tol=1e-12)


# -- curve2d and certify-surface ------------------------------------------


@pytest.mark.parametrize("command", ["embed-verify", "curve2d",
                                     "certify-surface"])
def test_huge_exponent_runs_with_warnings_as_errors(net_path, command):
    # the vertex difference (1e300, -1) has a norm that overflows when
    # squared; it is taken after scaling, and no numpy warning is raised
    code, out, err, _ = run_fresh(command, net_path("huge_exponent"),
                                  flags=("-W", "error"))
    assert (code, err) == (0, "")
    json.loads(out, parse_constant=finite)


def test_curve2d_report_and_files(net_path, tmp_path, capsys):
    code, doc, _ = run_json(capsys, "curve2d", net_path("rev_pair"),
                            "--epsilon", "0.5", "--out", str(tmp_path))
    assert code == 0
    assert doc["delta0"] > 0
    assert len(doc["curve"]["segments"]) >= 1
    assert (tmp_path / "curve2d.json").exists()
    svg = (tmp_path / "curve2d.svg").read_text()
    assert svg.startswith("<svg")


def test_curve2d_needs_two_species(net_path, capsys):
    code, _, err = run(capsys, "curve2d", net_path("pair_3sp"))
    assert code == 2 and "2 species" in err


def test_certify_surface_passes(net_path, capsys):
    code, doc, _ = run_json(capsys, "certify-surface", net_path("rev_pair"),
                            "--epsilon", "0.5")
    assert code == 0
    assert doc["verification"]["passed"] is True
    assert doc["samples"] >= 10


# -- experiments ----------------------------------------------------------


def test_persist_subcommand(net_path, capsys):
    code, doc, _ = run_json(capsys, "persist", net_path("rev_pair"),
                            "--trials", "4", "--horizon", "30")
    assert code == 0
    assert doc["passed"] is True
    assert len(doc["trajectories"]) == 4


def test_persist_epsilon_defaults_to_one(net_path, capsys):
    path = net_path("rev_pair")
    assert build_parser().parse_args(["persist", path]).epsilon == 1.0
    # the value is not used yet, so any band gives the default report
    reports = [run(capsys, "persist", path, "--trials", "2", *flag)
               for flag in ((), ("--epsilon", "1.0"), ("--epsilon", "0.5"))]
    assert reports[0][0] == 0
    assert reports[1] == reports[2] == reports[0]


def test_gac_subcommand_with_files(net_path, tmp_path, capsys):
    code, doc, _ = run_json(capsys, "gac", net_path("rev_pair"),
                            "--trials", "3", "--horizon", "50",
                            "--out", str(tmp_path), "--format", "csv")
    assert code == 0 and doc["passed"] is True
    assert (tmp_path / "global_attractor.json").exists()
    text = (tmp_path / "global_attractor.csv").read_text()
    rows = list(csv.reader(text.splitlines()))
    columns = ["final_distance", "max_lyapunov_increase", "persistence_min",
               "converged", "persistent", "lyapunov_monotone", "error"]
    assert rows[0] == ["index", *columns]
    assert len(rows) == 1 + len(doc["trajectories"]) == 4
    # every cell reads back as the JSON report's value
    for i, (row, rec) in enumerate(zip(rows[1:], doc["trajectories"])):
        assert row[0] == str(i)
        for cell, col in zip(row[1:], columns, strict=True):
            want = rec[col]
            if want is None:
                assert cell == ""
            elif isinstance(want, bool):
                assert cell == str(int(want))
            elif isinstance(want, float):
                assert float(cell) == want
            else:
                assert cell == want


def test_gac_reports_are_byte_identical(net_path, capsys):
    args = ("gac", net_path("rev_pair"), "--trials", "3", "--horizon", "20")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_pipeline_consistency_equilibrium_vs_gac(net_path, capsys):
    code, doc, _ = run_json(capsys, "equilibrium", net_path("rev_pair"))
    assert code == 0
    x0 = doc["x0"]
    with open(net_path("rev_pair"), encoding="utf-8") as fh:
        net = parse_network(fh.read())
    cfg = ExperimentConfig(initial=InitialConditions.explicit([x0]))
    rep = run_global_attractor_experiment(cfg, net)
    birch = np.array(rep.records[0].birch)
    assert float(np.max(np.abs(birch - np.array(x0)))) <= 1e-10
    solver = np.array(solve_complex_balanced(net).x0)
    assert float(np.max(np.abs(birch - solver))) <= 1e-10


# -- argument validation --------------------------------------------------


@pytest.mark.parametrize("command,flag,value", [
    ("persist", "--epsilon", "2"),
    ("persist", "--trials", "0"),
    ("gac", "--horizon", "-1"),
    ("gac", "--epsilon", "0.5"),  # the attractor is defined at fixed rates
    ("embed-verify", "--epsilon", "2"),
    ("embed-verify", "--trials", "0"),
    ("simulate", "--horizon", "-1"),
    ("curve2d", "--epsilon", "0"),
    ("certify-surface", "--samples", "0"),
    ("equilibrium", "--tol", "0"),
    ("persist", "--seed", "-1"),
    ("embed-verify", "--seed", "-1"),
])
def test_bad_argument_values_are_usage_errors(net_path, capsys, command,
                                              flag, value):
    code, out, err = run(capsys, command, net_path("rev_pair"), flag, value)
    assert code == 2
    assert out == "" and flag in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["analyze", "equilibrium", "embed-verify",
                                     "curve2d", "certify-surface"])
def test_format_offers_only_what_is_written(net_path, capsys, command):
    path = net_path("rev_pair")
    code, out, err = run(capsys, command, path, "--format", "csv")
    assert code == 2 and out == "" and "invalid choice" in err
    code, doc, _ = run_json(capsys, command, path, "--format", "json")
    assert code == 0 and doc["schema"] == 1


# -- README ---------------------------------------------------------------


def readme_sh_lines() -> list[str]:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"```sh\n(.*?)```", fh.read(), re.S)
    return [line for block in blocks for line in block.splitlines()]


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    """Every ``toric-gac`` line of the README exits 0 on ``.crn`` files
    written from the corpus, and each one-line writer the README shows
    writes a file that parses to the corpus network."""
    lines = readme_sh_lines()
    commands = [shlex.split(line)[1:] for line in lines
                if line.startswith("toric-gac ")]
    writers = [line for line in lines if line.startswith("python -c ")]
    assert len(commands) >= 8 and writers
    monkeypatch.chdir(tmp_path)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for line in writers:
        target = line.rsplit(">", 1)[1].strip()
        subprocess.run(shlex.quote(sys.executable) + line[len("python"):],
                       shell=True, check=True, cwd=tmp_path, env=env)
        written = parse_network((tmp_path / target).read_text())
        assert written == parse_network(NETWORK_TEXTS[target[:-len(".crn")]])
    for argv in commands:
        for arg in argv:
            if arg.endswith(".crn"):
                (tmp_path / arg).write_text(NETWORK_TEXTS[arg[:-len(".crn")]],
                                            encoding="utf-8")
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)
