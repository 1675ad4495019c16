"""End-to-end command-line checks: exit codes, config handling, outputs."""

import csv

import pytest

from agelab.cli import UsageError, format_config_text, main, parse_config_text


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# configuration file parsing


def test_parse_config_round_trip():
    cfg = {"p": 0.8, "lambda": 0.4, "runs": 20, "metric": "qaoi", "threshold": 3}
    text = format_config_text(cfg)
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


def test_format_config_rejects_unknown_keys():
    with pytest.raises(UsageError):
        format_config_text({"bogus": 1})


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


# analytic


def test_analytic_reports_closed_form_values(capsys):
    code, out, _ = run_cli(["analytic", "--threshold", "2"], capsys)
    assert code == 0
    assert "aoi threshold 2" in out
    assert "3.5103851582980443" in out
    assert "0.09208620689650669" in out


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


def test_analytic_rejects_zeta_at_or_below_threshold(capsys):
    code, _, err = run_cli(["analytic", "--threshold", "5"], capsys)
    assert code == 1
    assert "zeta" in err


def test_bad_parameter_value_is_a_usage_failure(capsys):
    code, _, err = run_cli(["analytic", "--threshold", "2", "--p", "1.5"], capsys)
    assert code == 1
    assert "error:" in err


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


def test_optimize_infeasible_budget_exits_two(capsys):
    code, _, err = run_cli(["optimize", "--risk-budget", "0.05"], capsys)
    assert code == 2
    assert err.startswith("infeasible:")


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


def test_simulate_mismatch_metric_needs_theta(capsys):
    code, _, err = run_cli(["simulate", "--metric", "aoii", "--runs", "1"], capsys)
    assert code == 1
    assert "--theta" in err


def test_theta_alias_only_for_mismatch_metric(capsys, tmp_path):
    code, _, err = run_cli(["simulate", "--theta", "2", "--runs", "1"], capsys)
    assert code == 1
    assert "--theta only applies" in err
    code, out, _ = run_cli(
        [
            "simulate", "--metric", "aoii", "--theta", "1",
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
