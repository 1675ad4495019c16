"""End-to-end command-line checks: exit codes, config handling, outputs."""

import csv
import hashlib
import os
import pkgutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import agelab
from agelab.cli import UsageError, build_parser, main, parse_config_text

CSV_HEADER = (
    "experiment_id", "metric", "strategy", "param", "learn_steps", "test_steps", "runs",
    "mean_cost", "std_cost", "mean_risky_freq", "std_risky_freq",
)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# configuration file parsing


def test_parse_config_round_trip():
    cfg = {"p": 0.8, "lambda": 0.4, "runs": 20, "metric": "qaoi", "threshold": 3}
    text = "lambda = 0.4\nmetric = qaoi\np = 0.8\nruns = 20\nthreshold = 3\n"
    assert parse_config_text(text) == cfg


def test_parse_config_ignores_comments_and_blanks():
    text = "# model\n\np = 0.7  # channel\n\nseed = 42\n"
    assert parse_config_text(text) == {"p": 0.7, "seed": 42}


def test_parse_config_unknown_key_names_the_line():
    with pytest.raises(UsageError, match="line 2.*unknown key 'pp'"):
        parse_config_text("p = 0.9\npp = 0.5\n")


def test_parse_config_bad_value_and_missing_equals():
    with pytest.raises(UsageError, match="needs a float"):
        parse_config_text("p = high\n")
    with pytest.raises(UsageError, match="expected 'key = value'"):
        parse_config_text("just words\n")


# top-level behaviour


def test_no_command_prints_help_and_fails(capsys):
    code, out, _ = run_cli([], capsys)
    assert code == 1
    assert "analytic" in out and "reproduce" in out


def test_help_lists_config_keys(capsys):
    code, out, _ = run_cli(["--help"], capsys)
    assert code == 0
    assert "configuration file keys" in out
    assert "zeta_aoii" in out


def test_optimize_help_describes_its_own_flags(capsys):
    code, out, _ = run_cli(["optimize", "--help"], capsys)
    assert code == 0
    for flag in ("--risk-budget RISK_BUDGET", "--n-max N_MAX"):
        described = out.split(flag, 1)[1].split("\n  -", 1)[0]
        assert described.strip(), flag


# one process, many calls: the parser is built on the first call and reused

# Mixed calls that could leak into each other through a shared parser: a
# flag, a default, the subcommand's func, a parse error or the --config file.
REUSE_SEQUENCE = [
    ["--help"],
    ["optimize", "--risk-budget", "0.08", "--n-max", "3"],
    ["optimize"],
    ["analytic", "--threshold", "2", "--k-max", "12"],
    ["analytic", "--threshold", "2"],
    ["optimize", "--p", "2"],
    ["optimize"],
    ["optimize", "--n-max", "x"],
    ["analytic", "--threshold", "2"],
    ["analytic", "--config", "CONFIG"],
    ["analytic", "--threshold", "2"],
    [],
    ["optimize", "--help"],
    ["train", "--learn-steps", "200", "--a-max", "8", "--out", "q.csv"],
    ["train", "--learn-steps", "200", "--a-max", "8", "--metric", "qaoi"],
    ["optimize", "--risk-budget", "0.001"],
    ["optimize"],
    ["--help"],
]
REUSE_CONFIG = "metric = qaoi\nthreshold = 3\nzeta = 6\n"
SOURCE_ROOT = str(Path(agelab.__file__).resolve().parents[1])


def _fresh_interpreter_env():
    path = [SOURCE_ROOT, *filter(None, [os.environ.get("PYTHONPATH")])]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def _written_files(directory):
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def _call_in_this_process(argv, directory, capsys, monkeypatch):
    """Exit code, stdout, stderr and the files the call wrote."""
    directory.mkdir()
    monkeypatch.chdir(directory)
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err, _written_files(directory)


def _call_in_fresh_interpreter(argv, directory, env, prelude=""):
    """Like _call_in_this_process; ``prelude`` runs before agelab is imported."""
    directory.mkdir()
    script = prelude + "import sys; from agelab.cli import main; sys.exit(main(sys.argv[1:]))"
    result = subprocess.run(
        [sys.executable, "-c", script, *argv],
        cwd=directory, capture_output=True, text=True, env=env,
    )
    return result.returncode, result.stdout, result.stderr, _written_files(directory)


def test_calls_in_one_process_match_each_call_in_a_fresh_interpreter(
    capsys, tmp_path, monkeypatch
):
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps at the same width on both sides
    config = tmp_path / "run.cfg"
    config.write_text(REUSE_CONFIG)
    sequence = [[str(config) if arg == "CONFIG" else arg for arg in argv] for argv in REUSE_SEQUENCE]
    env = _fresh_interpreter_env()
    fresh = {}
    for i, argv in enumerate(sequence):
        if tuple(argv) not in fresh:
            fresh[tuple(argv)] = _call_in_fresh_interpreter(argv, tmp_path / f"fresh{i}", env)
    build_parser.cache_clear()
    for i, argv in enumerate(sequence):
        reused = _call_in_this_process(argv, tmp_path / f"reused{i}", capsys, monkeypatch)
        assert reused == fresh[tuple(argv)], argv
    assert build_parser.cache_info().misses == 1
    # the sequence reaches every outcome it is meant to check
    outcomes = list(fresh.values())
    assert {code for code, *_ in outcomes} == {0, 1, 2}
    assert sum(bool(files) for *_, files in outcomes) == 2
    assert fresh[tuple(sequence[9])][1].startswith("qaoi threshold 3, q=0.2\n")
    assert fresh[tuple(sequence[10])][1].startswith("aoi threshold 2\n")


def test_importing_the_cli_builds_no_parser():
    script = """
import argparse, contextlib, io
built = []
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    built.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
import agelab.cli
at_import = len(built)
with contextlib.redirect_stdout(io.StringIO()):
    agelab.cli.main(["optimize"])
    after_first = len(built)
    agelab.cli.main(["analytic", "--threshold", "2"])
    agelab.cli.main(["--help"])
print(at_import, after_first > 0, len(built) == after_first)
"""
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=_fresh_interpreter_env(), check=True,
    )
    assert result.stdout.split() == ["0", "True", "True"]


# numpy is imported on first use: only simulation, training and presets load it

AGELAB_MODULES = ["agelab"] + [
    f"agelab.{module.name}" for module in pkgutil.iter_modules(agelab.__path__)
]
BLOCK_NUMPY = "import sys; sys.modules['numpy'] = None; "


@pytest.mark.parametrize("module", AGELAB_MODULES)
def test_importing_a_module_loads_no_numpy(module):
    script = f"import sys, {module}; print('numpy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=_fresh_interpreter_env(), check=True,
    )
    assert result.stdout == "False\n"


# The closed-form commands, help and usage errors, each of which must run
# with numpy unimportable.
NUMPY_FREE_CALLS = [
    ["optimize"],
    ["optimize", "--metric", "qaoi"],
    ["optimize", "--risk-budget", "0.08", "--n-max", "3"],
    ["analytic", "--threshold", "2", "--k-max", "12"],
    ["--help"],
    ["optimize", "--p", "2"],
    ["analytic", "--config", "CONFIG"],
]


def test_closed_form_commands_run_without_numpy(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    config = tmp_path / "run.cfg"
    config.write_text(REUSE_CONFIG)
    env = _fresh_interpreter_env()
    codes = set()
    for i, argv in enumerate(NUMPY_FREE_CALLS):
        argv = [str(config) if arg == "CONFIG" else arg for arg in argv]
        free = _call_in_fresh_interpreter(argv, tmp_path / f"plain{i}", env)
        blocked = _call_in_fresh_interpreter(argv, tmp_path / f"blocked{i}", env, BLOCK_NUMPY)
        assert blocked == free, argv
        codes.add(free[0])
    assert codes == {0, 1}  # usage errors included
    # the block holds: a simulation cannot start
    code, _, err, _ = _call_in_fresh_interpreter(
        ["simulate", "--runs", "1", "--test-steps", "10"], tmp_path / "simulate", env, BLOCK_NUMPY
    )
    assert code == 1
    assert "import of numpy halted" in err


# sha256 over the exit code, stdout, stderr and every written file of
# commands that use numpy, at small profiles; recorded when numpy was still
# imported with the package, so loading it on first use changed no byte.
NUMPY_CALL_DIGESTS = {
    ("simulate", "--metric", "qaoi", "--runs", "2", "--test-steps", "300", "--seed", "5",
     "--out", "sim.csv"):
        "28e05c843e8dbef959781b52b87e8b4fbd154a6c720415266764853f03fed9c3",
    ("train", "--learn-steps", "2000", "--a-max", "16", "--seed", "3"):
        "7faa69a675be0d227ceb8df4b93a3b4398594cc17d6d8a28dcc1f0f7f01150fb",
    ("train", "--metric", "aoii", "--learn-steps", "17000", "--a-max", "16", "--seed", "3",
     "--rho", "2.5"):
        "df2b23e9c34773e203cfea409b429bcf19708279d5649c36ab5a522517746a26",
    ("reproduce", "fig3a", "--runs", "2", "--test-steps", "400", "--seed", "1"):
        "589104508c07ad41b8e5e7b37b4cd5a331a41b845cb7c7e4bebc7e610deefcab",
    ("reproduce", "fig3c", "--runs", "2", "--test-steps", "400", "--seed", "1"):
        "de51d7588953d3897c1f2e305b520473ac823cf1d9e95c8acf023222faf14bc8",
    ("reproduce", "fig3d", "--runs", "2", "--test-steps", "400", "--seed", "1"):
        "ede0d850eecd49c179c4260210d7d4ea7d7349076ae7ca99bf2e9c4a3b3a022e",
}


@pytest.mark.parametrize(
    "argv", list(NUMPY_CALL_DIGESTS),
    ids=["simulate", "train", "train_aoii", "fig3a", "fig3c", "fig3d"],
)
def test_simulation_outputs_are_pinned(argv, tmp_path, capsys, monkeypatch):
    code, out, err, files = _call_in_this_process(list(argv), tmp_path / "run", capsys, monkeypatch)
    digest = hashlib.sha256(f"{code}\n{out}\n{err}\n".encode())
    for name in sorted(files):
        digest.update(name.encode() + b"\n" + files[name])
    assert digest.hexdigest() == NUMPY_CALL_DIGESTS[argv]


@pytest.mark.parametrize("argv", [
    ["optimize"],
    ["analytic", "--threshold", "2"],
    ["simulate", "--runs", "1"],
    ["train"],
    ["reproduce", "fig3a"],
], ids=lambda argv: argv[0])
def test_negative_seed_is_a_usage_failure(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli([*argv, "--seed", "-1"], capsys)
    assert (code, out, err) == (1, "", "error: base_seed must be nonnegative, got -1\n")
    assert not list(tmp_path.iterdir())


# analytic


def test_analytic_reports_closed_form_values(capsys):
    code, out, _ = run_cli(["analytic", "--threshold", "2"], capsys)
    assert code == 0
    assert "aoi threshold 2" in out
    assert "3.5103851582980443" in out
    assert "0.09208620689650669" in out


# the query-gated report at the default parameters, line for line
ANALYTIC_QAOI_3 = """\
qaoi threshold 3, q=0.2
average cost        1.3886447805686735
  age part          0.5673457592833405
  energy part       0.821299021285333
period length       4.0586111111111105
attempts per period 1.1111111111111112
age frequencies:
    4  0.027105332
    5  0.013799610
    6  0.006924499
    7  0.003464719
    8  0.001732607
    9  0.000866328
   10  0.000433166
   11  0.000216583
risky frequency (age >= 5): 0.02765409622885559
"""


def test_analytic_query_report_is_pinned(capsys):
    code, out, err = run_cli(["analytic", "--metric", "qaoi", "--threshold", "3"], capsys)
    assert (code, out, err) == (0, ANALYTIC_QAOI_3, "")


def test_analytic_k_max_extends_the_table(capsys):
    code, out, _ = run_cli(["analytic", "--threshold", "2", "--k-max", "15"], capsys)
    assert code == 0
    assert " 15  " in out


def test_analytic_needs_threshold(capsys):
    code, _, err = run_cli(["analytic"], capsys)
    assert code == 1
    assert "needs --threshold" in err


def test_analytic_rejects_mismatch_metric(capsys):
    code, _, err = run_cli(["analytic", "--metric", "aoii", "--threshold", "1"], capsys)
    assert code == 1
    assert "simulate" in err


# the closed forms refuse the mismatch metric themselves, in one message
@pytest.mark.parametrize("argv", [
    ["analytic", "--metric", "aoii", "--threshold", "1"],
    ["optimize", "--metric", "aoii"],
    ["optimize", "--metric", "aoii", "--risk-budget", "0.5"],
], ids=["analytic", "optimize", "optimize_budget"])
def test_closed_form_commands_refuse_the_mismatch_metric_alike(capsys, argv):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert err == "error: no closed form for the mismatch metric; use simulate instead\n"


def test_analytic_rejects_zeta_at_or_below_threshold(capsys):
    code, _, err = run_cli(["analytic", "--threshold", "5"], capsys)
    assert code == 1
    assert "zeta" in err


def test_bad_parameter_value_is_a_usage_failure(capsys):
    code, _, err = run_cli(["analytic", "--threshold", "2", "--p", "1.5"], capsys)
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["train", "--rho", "nan", "--learn-steps", "10"], "rho must be nonnegative, got nan"),
        (["analytic", "--threshold", "2", "--alpha", "nan"], "alpha must be nonnegative, got nan"),
        (["optimize", "--nu", "nan"], "nu must be nonnegative, got nan"),
        (["optimize", "--risk-budget", "nan"], "budget must be nonnegative, got nan"),
        (["simulate", "--metric", "qaoi", "--alpha", "inf"], "alpha must be finite, got inf"),
        (["optimize", "--beta", "inf"], "beta must be finite, got inf"),
        (["train", "--nu", "inf", "--learn-steps", "10"], "nu must be finite, got inf"),
        (
            ["train", "--rho", "inf", "--learn-steps", "200", "--a-max", "8"],
            "rho must be finite, got inf",
        ),
    ],
    ids=["train_rho", "analytic_alpha", "optimize_nu", "optimize_risk_budget",
         "simulate_alpha_inf", "optimize_beta_inf", "train_nu_inf", "train_rho_inf"],
)
def test_nan_values_are_usage_failures(capsys, tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert not any(tmp_path.iterdir())  # no value table written


def test_removed_query_cost_flag_is_rejected(capsys):
    code, _, err = run_cli(["train", "--metric", "qaoi", "--strict-query-cost"], capsys)
    assert code == 1
    assert "unrecognized arguments: --strict-query-cost" in err


# optimize


def test_optimize_finds_the_default_optimum(capsys):
    code, out, _ = run_cli(["optimize"], capsys)
    assert code == 0
    assert "optimal threshold: 2" in out


def test_optimize_query_metric(capsys):
    code, out, _ = run_cli(["optimize", "--metric", "qaoi"], capsys)
    assert code == 0
    assert "optimal threshold: 5" in out


def test_optimize_under_budget(capsys):
    code, out, _ = run_cli(["optimize", "--risk-budget", "0.08"], capsys)
    assert code == 0
    assert "under risk budget 0.08: 1" in out


def test_optimize_query_metric_under_budget_is_pinned(capsys):
    code, out, err = run_cli(["optimize", "--metric", "qaoi", "--risk-budget", "0.02"], capsys)
    assert code == 0 and err == ""
    assert out == (
        "optimal threshold under risk budget 0.02: 2\n"
        "average cost     1.5732204073401899\n"
        "risky frequency  0.018417241379301338\n"
    )


@pytest.mark.parametrize("extra, expected", [
    ([], (
        "optimal threshold: 3\n"
        "average cost     1.955990539852014\n"
        "risky frequency  0.05530819245771118\n"
    )),
    (["--risk-budget", "0.04"], (
        "optimal threshold under risk budget 0.04: 2\n"
        "average cost     2.0575115950796534\n"
        "risky frequency  0.036834482758602675\n"
    )),
], ids=["unconstrained", "budget_0.04"])
def test_optimize_query_metric_at_q_04_is_pinned(capsys, extra, expected):
    code, out, err = run_cli(["optimize", "--metric", "qaoi", "--q", "0.4", *extra], capsys)
    assert (code, out, err) == (0, expected, "")


def test_optimize_infeasible_budget_exits_two(capsys):
    code, _, err = run_cli(["optimize", "--risk-budget", "0.05"], capsys)
    assert code == 2
    assert err.startswith("infeasible:")


@pytest.mark.parametrize("zeta, risky", [("2", ""), ("3", "risky frequency  0.36379310344810534\n")])
def test_optimize_prints_the_risky_line_exactly_below_zeta(capsys, zeta, risky):
    """The risky closed form covers thresholds below zeta only; at the
    chosen threshold 2, zeta = 2 leaves the line out and zeta = 3 prints it."""
    code, out, err = run_cli(["optimize", "--zeta", zeta], capsys)
    expected = "optimal threshold: 2\naverage cost     3.5103851582980443\n" + risky
    assert (code, out, err) == (0, expected, "")


# Below lambda * p = 2**-53 the risky closed form's tail bound rounds to 1.
@pytest.mark.parametrize("argv, product", [
    (["analytic", "--threshold", "1", "--p", "1e-16"], "5e-17"),
    (["optimize", "--lambda", "1e-17", "--risk-budget", "0.5"], "9e-18"),
    # optimize computes the risk of its choice before it prints any line
    (["optimize", "--p", "1e-100"], "5e-101"),
])
def test_risky_closed_form_refuses_a_very_slow_channel(capsys, argv, product):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert err == f"error: risky frequency in closed form needs lambda*p >= 2**-53, got {product}\n"


# Slower channels need longer series.  Each closed form counts its series'
# terms from (p, lambda) before it runs them and refuses past a fixed
# budget, as it does where p**2 or lambda**2 underflows.
@pytest.mark.parametrize("argv, message", [
    (
        ["analytic", "--threshold", "1", "--p", "1e-9", "--lambda", "1e-9"],
        "the cost series needs about 1.38e+10 terms at p=1e-09, lambda=1e-09, "
        "more than the 50000 allowed",
    ),
    (
        ["optimize", "--p", "1e-6", "--lambda", "1e-6"],
        "the cost series needs about 1.38e+07 terms at p=1e-06, lambda=1e-06, "
        "more than the 50000 allowed",
    ),
    (
        ["optimize", "--p", "1e-300"],
        "the closed-form cost needs p**2 and lambda**2 in the float range, "
        "got p=1e-300, lambda=0.5",
    ),
], ids=["analytic_1e-9", "optimize_1e-6", "optimize_p_1e-300"])
def test_closed_forms_refuse_a_slow_channel_at_once(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run_cli(argv, capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (1, "", f"error: {message}\n")


# simulate


def test_simulate_deterministic_limit(capsys, tmp_path):
    out_file = tmp_path / "sim.csv"
    code, out, _ = run_cli(
        [
            "simulate",
            "--p", "1.0", "--lambda", "1.0",
            "--threshold", "1",
            "--runs", "2", "--test-steps", "300",
            "--out", str(out_file),
        ],
        capsys,
    )
    assert code == 0
    assert "mean send rate 1.0000" in out
    with open(out_file, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 1
    assert float(rows[0]["mean_cost"]) == 4.0
    assert rows[0]["param"] == "n=1"


# simulate's report and CSV at a small seeded profile, for each metric at
# threshold 2 and for the age metrics at their analytic optimum
SIMULATE_PINS = {
    ("aoi", "2"): (
        "simulate aoi threshold [n=2] cost 3.5100 +- 0.2216, risky 0.0850 +- 0.0401"
        " (2 runs x 300 steps)\nmean send rate 0.3667\n",
        "simulate,aoi,threshold,n=2,,300,2,3.51,0.22156012477178466,0.08499999999999999,"
        "0.04006938426723769\n",
    ),
    ("qaoi", "2"): (
        "simulate qaoi threshold [n=2] cost 1.6867 +- 0.0000, risky 0.0233 +- 0.0141"
        " (2 runs x 300 steps)\nmean send rate 0.3667\n",
        "simulate,qaoi,threshold,n=2,,300,2,1.6866666666666668,0.0,0.023333333333333334,"
        "0.01414213562373095\n",
    ),
    ("aoii", "2"): (
        "simulate aoii threshold [theta=2] cost 1.4800 +- 0.0236, risky 0.0183 +- 0.0071"
        " (2 runs x 300 steps)\nmean send rate 0.2433\n",
        "simulate,aoii,threshold,theta=2,,300,2,1.48,0.0235702260395515,0.018333333333333333,"
        "0.007071067811865475\n",
    ),
    ("aoi", None): (
        "simulate aoi threshold [n=2] cost 3.5100 +- 0.2216, risky 0.0850 +- 0.0401"
        " (2 runs x 300 steps)\nmean send rate 0.3667\n",
        "simulate,aoi,threshold,n=2,,300,2,3.51,0.22156012477178466,0.08499999999999999,"
        "0.04006938426723769\n",
    ),
    ("qaoi", None): (
        "simulate qaoi threshold [n=5] cost 1.4350 +- 0.0495, risky 0.0800 +- 0.0094"
        " (2 runs x 300 steps)\nmean send rate 0.1900\n",
        "simulate,qaoi,threshold,n=5,,300,2,1.435,0.049497474683058366,0.08,"
        "0.009428090415820635\n",
    ),
}


@pytest.mark.parametrize(
    "metric, threshold", list(SIMULATE_PINS), ids=["aoi", "qaoi", "aoii", "aoi_opt", "qaoi_opt"]
)
def test_simulate_report_and_csv_are_pinned(capsys, tmp_path, metric, threshold):
    out_file = tmp_path / "sim.csv"
    given = [] if threshold is None else ["--threshold", threshold]
    code, out, err = run_cli(
        [
            "simulate", "--metric", metric, *given,
            "--runs", "2", "--test-steps", "300", "--seed", "7",
            "--out", str(out_file),
        ],
        capsys,
    )
    summary, row = SIMULATE_PINS[metric, threshold]
    assert (code, out, err) == (0, summary + f"wrote {out_file}\n", "")
    header = ",".join(CSV_HEADER) + "\n"
    assert out_file.read_text() == header + row


def test_simulate_mismatch_metric_needs_theta(capsys):
    code, _, err = run_cli(["simulate", "--metric", "aoii", "--runs", "1"], capsys)
    assert code == 1
    # its own check, not the closed forms' refusal of the mismatch metric
    assert err == "error: simulate needs --threshold for the aoii metric\n"


def test_threshold_sets_theta_for_mismatch_metric(capsys):
    code, out, _ = run_cli(
        [
            "simulate", "--metric", "aoii", "--threshold", "1",
            "--runs", "2", "--test-steps", "300",
        ],
        capsys,
    )
    assert code == 0
    assert "theta=1" in out


def test_simulate_unwritable_output_exits_three(capsys, tmp_path):
    code, _, err = run_cli(
        [
            "simulate", "--threshold", "2", "--runs", "1", "--test-steps", "100",
            "--out", str(tmp_path / "missing" / "sim.csv"),
        ],
        capsys,
    )
    assert code == 3
    assert "i/o error" in err


# config file merging


def test_flags_override_config_file(capsys, tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("metric = qaoi\nthreshold = 3\np = 0.5\n")
    code, out, _ = run_cli(
        [
            "analytic", "--config", str(cfg_file),
            "--metric", "aoi", "--threshold", "2", "--p", "0.9",
        ],
        capsys,
    )
    assert code == 0
    assert "aoi threshold 2" in out
    assert "3.5103851582980443" in out  # default parameters, so --p won


def test_config_file_supplies_defaults(capsys, tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("threshold = 2\n")
    code, out, _ = run_cli(["analytic", "--config", str(cfg_file)], capsys)
    assert code == 0
    assert "aoi threshold 2" in out


def test_unknown_metric_is_a_usage_failure(capsys, tmp_path):
    code, _, err = run_cli(["optimize", "--metric", "foo"], capsys)
    assert code == 1
    assert "unknown metric 'foo'" in err
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("metric = foo\n")
    code, _, err = run_cli(["optimize", "--config", str(cfg_file)], capsys)
    assert code == 1
    assert "unknown metric 'foo'" in err


def test_bad_config_file_is_a_usage_failure(capsys, tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("nonsense = 1\n")
    code, _, err = run_cli(["analytic", "--config", str(cfg_file), "--threshold", "2"], capsys)
    assert code == 1
    assert "unknown key" in err


# train


def test_train_writes_deterministic_table(capsys, tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    base = ["train", "--learn-steps", "3000", "--a-max", "32", "--seed", "11"]
    code, out, _ = run_cli(base + ["--out", str(first)], capsys)
    assert code == 0
    assert "trained aoi for 3000 steps (rho=2)" in out
    code, _, _ = run_cli(base + ["--out", str(second)], capsys)
    assert code == 0
    assert first.read_bytes() == second.read_bytes()
    header = first.read_text().splitlines()[0]
    assert header == "aoi_tx,aoi_rx,action,q_value"


def test_train_mismatch_metric_table_layout(capsys, tmp_path):
    out_file = tmp_path / "table.csv"
    code, _, _ = run_cli(
        ["train", "--metric", "aoii", "--learn-steps", "2000", "--a-max", "32",
         "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    assert out_file.read_text().splitlines()[0] == "synced,aoii,action,q_value"


def test_train_refuses_an_exploration_floor_above_the_start(capsys, tmp_path, monkeypatch):
    """A floor above epsilon0 would explore below it until the decay reached it."""
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(["train", "--learn-steps", "1", "--epsilon-min", "0.95"], capsys)
    assert (code, out, err) == (1, "", "error: epsilon_min must be at most epsilon0 (0.9), got 0.95\n")
    assert not any(tmp_path.iterdir())  # no value table written


def test_train_refuses_an_oversized_table(capsys, tmp_path):
    out_file = tmp_path / "table.csv"
    code, _, err = run_cli(["train", "--a-max", "2048", "--out", str(out_file)], capsys)
    assert code == 1
    assert "a_max must be at most 1024" in err
    assert not out_file.exists()


# reproduce


def test_reproduce_unknown_figure(capsys):
    for figure in ("fig99", "fig3b"):  # fig3b was fig3a under another name
        code, _, err = run_cli(["reproduce", figure], capsys)
        assert code == 1
        assert "unknown figure" in err


def test_reproduce_threshold_sweep_outputs(capsys, tmp_path):
    code, out, _ = run_cli(
        [
            "reproduce", "fig3a",
            "--runs", "2", "--test-steps", "400",
            "--out-dir", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    with open(tmp_path / "fig3a.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [row["param"] for row in rows] == [f"n={n}" for n in range(1, 9)]
    assert all(row["strategy"] == "threshold" for row in rows)
    # the analytic overlay is exact, so its minimum sits at the true optimum
    overlay = (tmp_path / "fig3a_cost_analytic.dat").read_text().splitlines()[1:]
    costs = {int(line.split()[0]): float(line.split()[1]) for line in overlay}
    assert min(costs, key=costs.get) == 2
    assert (tmp_path / "fig3a_risky.dat").exists()


# The analytic overlays of the plain and query-gated sweeps, byte for byte.
# They depend only on the default parameters, not on the seed or run profile.
SWEEP_OVERLAYS = {
    "fig3a_cost_analytic.dat": """\
# x y yerr
1 3.6900584795321603 0.0
2 3.5103851582980443 0.0
3 3.6580278177020356 0.0
4 3.945248465556749 0.0
5 4.302738984393863 0.0
6 4.700610966562256 0.0
7 5.123829773199345 0.0
8 5.564000921196207 0.0
""",
    "fig3a_risky_analytic.dat": """\
# x y yerr
1 0.07029999999996324 0.0
2 0.09208620689650669 0.0
3 0.13827048114427795 0.0
4 0.21965412906244597 0.0
""",
    "fig3c_cost_analytic.dat": """\
# x y yerr
1 2.001169590643274 0.0
2 1.5732204073401899 0.0
3 1.3886447805686735 0.0
4 1.316216637547405 0.0
5 1.3007022131348673 0.0
6 1.317918381330221 0.0
7 1.3556803232563168 0.0
8 1.4071836574464267 0.0
""",
    "fig3c_risky_analytic.dat": """\
# x y yerr
1 0.014059999999992648 0.0
2 0.018417241379301338 0.0
3 0.02765409622885559 0.0
4 0.043930825812489194 0.0
""",
}


@pytest.mark.parametrize("figure", ["fig3a", "fig3c"])
def test_sweep_analytic_overlays_are_pinned(capsys, tmp_path, figure):
    code, _, _ = run_cli(
        ["reproduce", figure, "--runs", "1", "--test-steps", "50", "--out-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    for name, text in SWEEP_OVERLAYS.items():
        if name.startswith(figure):
            assert (tmp_path / name).read_bytes() == text.encode()


def test_sweep_risky_overlay_stops_below_zeta(capsys, tmp_path):
    """The risky closed form needs n < zeta, so zeta = 4 leaves n = 1..3."""
    code, _, _ = run_cli(
        ["reproduce", "fig3c", "--zeta", "4", "--runs", "1", "--test-steps", "50",
         "--out-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    assert (tmp_path / "fig3c_risky_analytic.dat").read_text() == (
        "# x y yerr\n"
        "1 0.028099999999986264 0.0\n"
        "2 0.036758620689637804 0.0\n"
        "3 0.054759427828322854 0.0\n"
    )
    # the cost overlay does not depend on zeta
    text = SWEEP_OVERLAYS["fig3c_cost_analytic.dat"]
    assert (tmp_path / "fig3c_cost_analytic.dat").read_text() == text


def test_reproduce_comparison_accepts_step_override(capsys, tmp_path):
    code, _, _ = run_cli(
        [
            "reproduce", "fig4",
            "--learn-steps", "2000", "--a-max", "32",
            "--runs", "2", "--test-steps", "400",
            "--out-dir", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    with open(tmp_path / "fig4.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert {row["strategy"] for row in rows} == {"random", "threshold", "qlearn", "qlearn_risk"}
    assert all(row["test_steps"] == "400" for row in rows)
    assert (tmp_path / "fig4_risky_2000.dat").exists()


@pytest.mark.parametrize(
    "figure, metric, model_flags",
    [
        ("fig3c", "qaoi", ["--q", "0.9"]),
        ("fig3d", "aoii", ["--p-r", "0.3", "--num-states", "4"]),
    ],
)
def test_preset_uses_model_keys_whatever_the_metric_flag_says(
    capsys, tmp_path, figure, metric, model_flags
):
    """A preset's own metric reads every key, even when --metric names another."""
    profile = [figure, "--runs", "2", "--test-steps", "400", *model_flags]
    code, _, _ = run_cli(["reproduce", *profile, "--out-dir", str(tmp_path / "a")], capsys)
    assert code == 0
    code, _, _ = run_cli(
        ["reproduce", *profile, "--metric", metric, "--out-dir", str(tmp_path / "b")], capsys
    )
    assert code == 0
    csv_name = f"{figure}.csv"
    assert (tmp_path / "a" / csv_name).read_bytes() == (tmp_path / "b" / csv_name).read_bytes()


@pytest.mark.parametrize(
    "figure, own, other", [("fig3a", "aoi", "qaoi"), ("fig4", "aoi", "aoii"), ("fig7", "qaoi", "aoi")]
)
def test_preset_metric_wins_over_the_metric_flag(capsys, tmp_path, figure, own, other):
    """--metric naming another metric changes no byte a preset writes or prints."""
    profile = [
        "reproduce", figure,
        "--learn-steps", "1500", "--a-max", "16", "--runs", "2", "--test-steps", "300",
    ]
    outputs = []
    for name, flags in (("plain", []), ("flagged", ["--metric", other])):
        out_dir = tmp_path / name
        code, out, err = run_cli([*profile, *flags, "--out-dir", str(out_dir)], capsys)
        assert code == 0
        outputs.append((out.replace(str(out_dir), "OUT"), err, _written_files(out_dir)))
    assert outputs[0] == outputs[1]
    with open(tmp_path / "flagged" / f"{figure}.csv", newline="") as handle:
        assert {row["metric"] for row in csv.DictReader(handle)} == {own}


def test_config_file_learn_steps_reaches_comparison_presets(capsys, tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("learn_steps = 500\n")
    code, _, _ = run_cli(
        [
            "reproduce", "fig4", "--config", str(cfg_file),
            "--a-max", "16", "--runs", "2", "--test-steps", "300",
            "--out-dir", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    with open(tmp_path / "fig4.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert {row["learn_steps"] for row in rows if row["strategy"].startswith("qlearn")} == {"500"}
    assert (tmp_path / "fig4_risky_500.dat").exists()


# fig7's results at a small profile, value for value; as in the other
# comparison presets, only the learners' rows carry the training length
FIG7_CSV = """\
experiment_id,metric,strategy,param,learn_steps,test_steps,runs,mean_cost,std_cost,mean_risky_freq,std_risky_freq
fig7,qaoi,qlearn,q=0.2,1500,300,2,18.201666666666668,23.044609998869586,0.18333333333333335,0.05185449728701349
fig7,qaoi,qlearn_risk,q=0.2,1500,300,2,1.6533333333333333,0.051854497287013426,0.08499999999999999,0.007071067811865472
fig7,qaoi,random,q=0.2,,300,2,2.1883333333333335,0.03064129385141714,0.055,0.002357022603955154
fig7,qaoi,threshold,q=0.2,,300,2,1.435,0.049497474683058366,0.08,0.009428090415820635
fig7,qaoi,qlearn,q=0.4,1500,300,2,2.3483333333333336,0.1107800623858925,0.15833333333333333,0.02592724864350673
fig7,qaoi,qlearn_risk,q=0.4,1500,300,2,2.29,0.047140452079103,0.05666666666666667,0.01885618083164127
fig7,qaoi,random,q=0.4,,300,2,2.833333333333333,0.07071067811865482,0.09666666666666668,0.0047140452079103175
fig7,qaoi,threshold,q=0.4,,300,2,2.065,0.0447834294751481,0.065,0.011785113019775794
fig7,qaoi,qlearn,q=0.6,1500,300,2,2.8716666666666666,0.007071067811865324,0.16,0.05656854249492382
fig7,qaoi,qlearn_risk,q=0.6,1500,300,2,2.825,0.007071067811865638,0.09,0.028284271247461894
fig7,qaoi,random,q=0.6,,300,2,3.4566666666666666,0.004714045207910426,0.1433333333333333,0.009428090415820635
fig7,qaoi,threshold,q=0.6,,300,2,2.6066666666666665,0.07542472332656525,0.09666666666666666,0.02357022603955158
fig7,qaoi,qlearn,q=0.8,1500,300,2,3.4233333333333333,0.028284271247461926,0.13333333333333333,0.028284271247461894
fig7,qaoi,qlearn_risk,q=0.8,1500,300,2,3.2366666666666664,0.12256517540566825,0.09833333333333333,0.04478342947514802
fig7,qaoi,random,q=0.8,,300,2,4.1,0.08013876853447535,0.185,0.007071067811865481
fig7,qaoi,threshold,q=0.8,,300,2,3.09,0.10370899457402717,0.07333333333333333,0.03299831645537221
fig7,qaoi,qlearn,q=1,1500,300,2,4.241666666666667,0.5350441310978211,0.2683333333333333,0.09192388155425116
fig7,qaoi,qlearn_risk,q=1,1500,300,2,3.855,0.35591041319722866,0.12333333333333334,0.1131370849898476
fig7,qaoi,random,q=1,,300,2,4.641666666666667,0.03535533905932788,0.22,0.004714045207910308
fig7,qaoi,threshold,q=1,,300,2,3.51,0.22156012477178466,0.08499999999999999,0.04006938426723769
"""


def test_query_sweep_preset_rows_are_pinned(capsys, tmp_path):
    code, _, _ = run_cli(
        [
            "reproduce", "fig7",
            "--learn-steps", "1500", "--a-max", "16",
            "--runs", "2", "--test-steps", "300", "--seed", "7",
            "--out-dir", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    assert (tmp_path / "fig7.csv").read_text() == FIG7_CSV
    assert (tmp_path / "fig7_cost_analytic.dat").read_text() == FIG7_OVERLAYS["defaults"]


# fig7's analytic overlay: the cost of the optimal threshold at each q.  It
# stays at the optimum when --threshold fixes the baseline's threshold.
FIG7_OVERLAYS = {
    "defaults": """\
# x y yerr
0.2 1.3007022131348673 0.0
0.4 1.955990539852014 0.0
0.6 2.5233362991353547 0.0
0.8 3.026093970558581 0.0
1 3.5103851582980443 0.0
""",
    "threshold3_lambda04": """\
# x y yerr
0.2 1.334735451765956 0.0
0.4 2.0354158182850806 0.0
0.6 2.6641635377555275 0.0
0.8 3.2393269364483377 0.0
1 3.814490335141148 0.0
""",
}


@pytest.mark.parametrize(
    "extra, case",
    [([], "defaults"), (["--threshold", "3", "--lambda", "0.4"], "threshold3_lambda04")],
    ids=list(FIG7_OVERLAYS),
)
def test_query_sweep_analytic_overlay_is_pinned(capsys, tmp_path, extra, case):
    code, _, _ = run_cli(
        [
            "reproduce", "fig7",
            "--learn-steps", "200", "--a-max", "8",
            "--runs", "1", "--test-steps", "50", "--seed", "3",
            *extra,
            "--out-dir", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    assert (tmp_path / "fig7_cost_analytic.dat").read_text() == FIG7_OVERLAYS[case]


# fig8's results at a small profile, value for value: with theta read off
# the aoii sweep (theta = 1 here, and always_send is the sweep's theta = 0
# point), and with a configured theta and rho
FIG8_CSV = """\
experiment_id,metric,strategy,param,learn_steps,test_steps,runs,mean_cost,std_cost,mean_risky_freq,std_risky_freq
fig8,aoii,always_send,threshold=0,,300,2,3.0516666666666667,0.0212132034355966,0.0016666666666666668,0.0023570226039551587
fig8,aoii,qlearn,rho=1,3000,300,2,1.605,0.23334523779156074,0.09999999999999999,0.13670731102939918
fig8,aoii,qlearn_risk,rho=2,3000,300,2,1.47,0.009428090415820538,0.028333333333333335,0.007071067811865474
fig8,aoii,random,send_prob=0.5,,300,2,2.208333333333333,0.19563287612827826,0.09666666666666666,0.03299831645537221
fig8,aoii,threshold,threshold=1,,300,2,1.405,0.049497474683058214,0.006666666666666667,0.004714045207910317
"""
FIG8_THETA2_RHO3_CSV = """\
experiment_id,metric,strategy,param,learn_steps,test_steps,runs,mean_cost,std_cost,mean_risky_freq,std_risky_freq
fig8,aoii,always_send,threshold=0,,300,2,3.0516666666666667,0.0212132034355966,0.0016666666666666668,0.0023570226039551587
fig8,aoii,qlearn,rho=1,3000,300,2,1.605,0.23334523779156074,0.09999999999999999,0.13670731102939918
fig8,aoii,qlearn_risk,rho=3,3000,300,2,1.405,0.049497474683058214,0.006666666666666667,0.004714045207910317
fig8,aoii,random,send_prob=0.5,,300,2,2.208333333333333,0.19563287612827826,0.09666666666666666,0.03299831645537221
fig8,aoii,threshold,threshold=2,,300,2,1.48,0.0235702260395515,0.018333333333333333,0.007071067811865475
"""


@pytest.mark.parametrize(
    "extra, expected",
    [([], FIG8_CSV), (["--threshold", "2", "--rho", "3"], FIG8_THETA2_RHO3_CSV)],
    ids=["swept_theta", "theta2_rho3"],
)
def test_mismatch_comparison_preset_rows_are_pinned(capsys, tmp_path, extra, expected):
    code, _, _ = run_cli(
        [
            "reproduce", "fig8",
            "--learn-steps", "3000", "--a-max", "16",
            "--runs", "2", "--test-steps", "300", "--seed", "7",
            *extra,
            "--out-dir", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    assert (tmp_path / "fig8.csv").read_text() == expected
