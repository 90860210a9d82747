"""End-to-end checks of the command-line interface.

Invokes cli.main() in-process so exit codes and printed output can be
asserted directly; one subprocess test covers the installed entry point.
"""

import ast
import csv
import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from kernelcg import cli, harness
from kernelcg.errors import NumericalFailure
from kernelcg.harness import ExperimentConfig, config_hash, derive_seed
from kernelcg.solvers import cg_fit
from kernelcg.stopping import discrepancy_stop
from kernelcg.synth import draw_sample
from reference import dense


def inner_dict(**overrides):
    d = {
        "model": {
            "s": 0.5,
            "r": 1.0,
            "rho": 1.0,
            "J": 60,
            "noise": {"kind": "uniform_bounded", "M": 1.0},
        },
        "regime": "inner",
        "n_grid": [16, 32],
        "replicates": 2,
        "gamma": 0.05,
        "tau_prime": 2.0,
        "theta_list": [0.0, 0.5],
        "master_seed": 11,
    }
    d.update(overrides)
    return d


def write_config(tmp_path, d, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(d))
    return str(path)


def test_missing_config_exits_one_and_names_path(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    rc = cli.main(["rates", "--config", missing, "--out", str(tmp_path / "out")])
    assert rc == 1
    assert missing in capsys.readouterr().err


def test_malformed_json_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    rc = cli.main(["rates", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_unknown_field_is_named(tmp_path, capsys):
    cfg = write_config(tmp_path, inner_dict(bandwidth=2.0))
    rc = cli.main(["rates", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "bandwidth" in capsys.readouterr().err


def test_invalid_field_value_is_named(tmp_path, capsys):
    cfg = write_config(tmp_path, inner_dict(gamma=2.0))
    rc = cli.main(["rates", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "gamma" in capsys.readouterr().err


def with_model(**overrides):
    d = inner_dict()
    d["model"].update(overrides)
    return d


@pytest.mark.parametrize(
    "d, field",
    [
        (inner_dict(n_grid=64), "n_grid"),
        (with_model(s="half"), "model.s"),
        (inner_dict(replicates=None), "replicates"),
        (inner_dict(theta_list=[0.0, "x"]), "theta_list"),
        (with_model(noise={"kind": "uniform_bounded"}), "model.noise"),
        (with_model(noise=1.0), "model.noise"),
        # Python's JSON parser accepts Infinity; no config number may be one.
        (inner_dict(tau_prime=math.inf), "tau_prime"),
        (with_model(r=math.inf), "model.r"),
        (with_model(rho=math.inf, noise={"kind": "gaussian_bernstein", "M": 1.0}), "model.rho"),
        (with_model(noise={"kind": "uniform_bounded", "M": math.inf}), "model.noise"),
        (with_model(noise={"kind": "gaussian_bernstein", "M": math.inf}), "model.noise"),
        (with_model(J=math.inf), "model.J"),
        (inner_dict(replicates=math.inf), "replicates"),
        # Integers are whole JSON numbers, never truncated; no number is a string or a bool.
        (inner_dict(n_grid=[16.9, 32]), "n_grid"),
        (inner_dict(replicates=2.7), "replicates"),
        (inner_dict(master_seed=7.5), "master_seed"),
        (with_model(J=60.5), "model.J"),
        (with_model(s="0.5"), "model.s"),
        (with_model(J="60"), "model.J"),
        (inner_dict(master_seed="11"), "master_seed"),
        (inner_dict(tau_prime="2.0"), "tau_prime"),
        (with_model(noise={"kind": "uniform_bounded", "M": "1.0"}), "model.noise"),
        (inner_dict(replicates=True), "replicates"),
        (inner_dict(n_grid=[16, True]), "n_grid"),
        (with_model(noise={"kind": "gaussian_bernstein", "M": True}), "model.noise"),
        # A noise object has a known kind and no key besides kind and M.
        (with_model(noise={"kind": "laplace", "M": 1.0}), "model.noise"),
        (with_model(noise={"kind": "uniform_bounded", "M": 1.0, "sigma": 0.3}), "model.noise"),
        # u_profile is "inverse_index" or a whole number, read as J is.
        (with_model(u_profile=True), "model.u_profile"),
        (with_model(u_profile="one_hot"), "model.u_profile"),
        (with_model(u_profile=2.5), "model.u_profile"),
    ],
    ids=[
        "n_grid", "model.s", "replicates", "theta_list", "noise_without_M", "noise_number",
        "inf_tau_prime", "inf_r", "inf_rho", "inf_uniform_M", "inf_gaussian_M", "inf_J",
        "inf_replicates", "fractional_n_grid", "fractional_replicates",
        "fractional_master_seed", "fractional_J", "string_s", "string_J",
        "string_master_seed", "string_tau_prime", "string_M", "bool_replicates",
        "bool_n_grid", "bool_M", "unknown_noise_kind", "noise_extra_key", "bool_u_profile",
        "string_u_profile", "fractional_u_profile",
    ],
)
def test_field_of_the_wrong_type_is_named_without_a_traceback(tmp_path, capsys, d, field):
    rc = cli.main(["rates", "--config", write_config(tmp_path, d), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid config:")
    assert repr(field) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("case", ["config_is_a_directory", "config_not_utf8", "out_is_a_file"])
def test_unusable_path_is_named_without_a_traceback(tmp_path, capsys, case):
    config, out = write_config(tmp_path, inner_dict()), str(tmp_path / "out")
    if case == "config_is_a_directory":
        config = str(tmp_path)
    elif case == "config_not_utf8":
        config = str(tmp_path / "latin1.json")
        text = json.dumps(inner_dict(regime="inn\xe9r"), ensure_ascii=False)
        Path(config).write_bytes(text.encode("latin-1"))
    else:
        Path(out).write_text("")
    rc = cli.main(["rates", "--config", config, "--out", out])
    assert rc == 1
    err = capsys.readouterr().err
    assert (out if case == "out_is_a_file" else config) in err
    assert "Traceback" not in err


def test_usage_errors_exit_one_not_two(tmp_path, capsys):
    assert cli.main(["frobnicate", "--config", "x", "--out", "y"]) == 1
    assert cli.main(["rates"]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err


def test_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name, text in cli._SUBCOMMAND_HELP.items():
        assert name in out and text in out
    assert set(cli._SUBCOMMAND_HELP) == set(cli._COMMANDS)


def test_options_parse_in_any_order():
    args = cli._build_parser().parse_args(["--out", "o", "holdout", "--seed", "7", "--config", "c"])
    assert (args.subcommand, args.config, args.out, args.seed, args.quiet) == (
        "holdout", "c", "o", 7, False
    )


def test_fit_matches_direct_library_call(tmp_path, capsys):
    cfg_path = write_config(tmp_path, inner_dict())
    out = tmp_path / "out"
    rc = cli.main(["fit", "--config", cfg_path, "--out", str(out)])
    assert rc == 0
    payload = json.loads((out / "fit.json").read_text())

    cfg = ExperimentConfig.from_dict(inner_dict())
    model = cfg.model()
    seed = derive_seed(cfg.master_seed, 16, 0)
    sample = draw_sample(model, 16, seed=seed)
    trace = cg_fit(dense(model.kernel, sample.X_labeled), sample.Y, max_iter=16)
    m_hat = discrepancy_stop(trace, payload["omega"])

    assert payload["n"] == 16
    assert payload["seed"] == seed
    assert payload["m_hat"] == m_hat
    prefix = trace.residual_norms[: len(payload["residual_norms"])]
    np.testing.assert_allclose(payload["residual_norms"], prefix, rtol=1e-12)

    stdout = capsys.readouterr().out
    assert f"m_hat={m_hat}" in stdout
    assert "residuals:" in stdout


def test_fit_rejects_holdout_split_without_training_data(tmp_path, capsys):
    d = inner_dict(stopping={"kind": "holdout", "fraction": 0.99})
    cfg_path = write_config(tmp_path, d)
    rc = cli.main(["fit", "--config", cfg_path, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "leaves no training data" in capsys.readouterr().err


def read_csv_rows(path):
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return list(csv.DictReader(lines))


@pytest.mark.parametrize(
    "subcommand, stopping, csv_name",
    [
        ("rates", "discrepancy", "rates.csv"),
        ("holdout", {"kind": "holdout", "fraction": 0.25}, "holdout.csv"),
    ],
)
def test_fit_agrees_with_sweep_rows(tmp_path, subcommand, stopping, csv_name):
    cfg_path = write_config(tmp_path, inner_dict(stopping=stopping))
    fit_out, sweep_out = tmp_path / "fit", tmp_path / "sweep"
    assert cli.main(["fit", "--config", cfg_path, "--out", str(fit_out), "--quiet"]) == 0
    assert cli.main([subcommand, "--config", cfg_path, "--out", str(sweep_out), "--quiet"]) == 0
    payload = json.loads((fit_out / "fit.json").read_text())
    rows = [
        r for r in read_csv_rows(sweep_out / csv_name)
        if int(r["n"]) == 16 and int(r["rep"]) == 0
    ]
    assert [float(r["theta"]) for r in rows] == [0.0, 0.5]
    for r in rows:
        assert int(r["m_hat"]) == payload["m_hat"]
        assert int(r["seed"]) == payload["seed"]
        omega = float(r["omega"]) if r["omega"] else None
        assert omega == payload["omega"]
        assert float(r["error"]) == payload["errors"][repr(float(r["theta"]))]


def test_compare_stops_where_discrepancy_sweep_stops(tmp_path):
    # compare stops by the discrepancy rule even when the config asks for hold-out
    d = inner_dict(stopping={"kind": "holdout", "fraction": 0.25})
    cfg_path = write_config(tmp_path, d)
    plain_path = write_config(tmp_path, inner_dict(), name="plain.json")
    assert cli.main(["compare", "--config", cfg_path, "--out", str(tmp_path / "c"), "--quiet"]) == 0
    assert cli.main(["rates", "--config", plain_path, "--out", str(tmp_path / "r"), "--quiet"]) == 0
    swept = {
        (int(r["n"]), int(r["rep"])): int(r["m_hat"])
        for r in read_csv_rows(tmp_path / "r" / "rates.csv")
    }
    compare_rows = read_csv_rows(tmp_path / "c" / "compare.csv")
    compared = {(int(r["n"]), int(r["rep"])): int(r["cg_m_hat"]) for r in compare_rows}
    assert len(compared) == 4
    assert compared == swept
    # cg_error is the theta-0 rates.csv error of the same replicate, bit for bit
    swept_errors = {
        (int(r["n"]), int(r["rep"])): r["error"]
        for r in read_csv_rows(tmp_path / "r" / "rates.csv")
        if float(r["theta"]) == 0.0
    }
    assert {(int(r["n"]), int(r["rep"])): r["cg_error"] for r in compare_rows} == swept_errors


def test_cli_imports_nothing_private_from_harness():
    tree = ast.parse(Path(cli.__file__).read_text())
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("harness")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_fit_holdout_config(tmp_path):
    d = inner_dict(stopping={"kind": "holdout", "fraction": 0.25})
    cfg_path = write_config(tmp_path, d)
    out = tmp_path / "out"
    assert cli.main(["fit", "--config", cfg_path, "--out", str(out)]) == 0
    payload = json.loads((out / "fit.json").read_text())
    assert payload["omega"] is None
    assert payload["m_hat"] >= 0


def test_quiet_suppresses_stdout(tmp_path, capsys):
    cfg_path = write_config(tmp_path, inner_dict())
    rc = cli.main(["fit", "--config", cfg_path, "--out", str(tmp_path / "o"), "--quiet"])
    assert rc == 0
    assert capsys.readouterr().out == ""


def test_rates_writes_artifacts_and_prints_lines(tmp_path, capsys):
    cfg_path = write_config(tmp_path, inner_dict())
    out = tmp_path / "out"
    rc = cli.main(["rates", "--config", cfg_path, "--out", str(out)])
    assert rc == 0
    for name in ("rates.csv", "rate_report.json", "plot_theta_0.tsv", "plot_theta_0.5.tsv"):
        assert (out / name).exists(), name
    stdout = capsys.readouterr().out
    for n in (16, 32):
        for theta in ("0", "0.5"):
            assert f"n={n} theta={theta} " in stdout
    assert "theta=0: slope=" in stdout

    header = (out / "rates.csv").read_text().splitlines()
    assert header[0].startswith("# config_hash=")
    assert header[1] == "regime,n,rep,theta,error,m_hat,omega,seed"


def test_rates_reruns_are_byte_identical(tmp_path):
    cfg_path = write_config(tmp_path, inner_dict())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["rates", "--config", cfg_path, "--out", str(out_a), "--quiet"]) == 0
    assert cli.main(["rates", "--config", cfg_path, "--out", str(out_b), "--quiet"]) == 0
    for name in ("rates.csv", "rate_report.json", "plot_theta_0.tsv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_seed_override_rewrites_provenance(tmp_path):
    cfg_path = write_config(tmp_path, inner_dict())
    out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    base = ["rates", "--config", cfg_path, "--quiet"]
    assert cli.main(base + ["--out", str(out_a)]) == 0
    assert cli.main(base + ["--out", str(out_b), "--seed", "99"]) == 0
    assert cli.main(base + ["--out", str(out_c), "--seed", "99"]) == 0

    report_a = json.loads((out_a / "rate_report.json").read_text())
    report_b = json.loads((out_b / "rate_report.json").read_text())
    assert report_a["master_seed"] == 11
    assert report_b["master_seed"] == 99
    assert report_a["config_hash"] != report_b["config_hash"]

    expected = config_hash(
        ExperimentConfig.from_dict(inner_dict(master_seed=99))
    )
    assert report_b["config_hash"] == expected
    assert (out_b / "rates.csv").read_bytes() == (out_c / "rates.csv").read_bytes()


def test_holdout_subcommand_forces_validation_stopping(tmp_path):
    # config says discrepancy; the subcommand switches it to holdout
    cfg_path = write_config(tmp_path, inner_dict())
    out = tmp_path / "out"
    rc = cli.main(["holdout", "--config", cfg_path, "--out", str(out), "--quiet"])
    assert rc == 0
    assert (out / "holdout.csv").exists()
    assert (out / "holdout_report.json").exists()
    rows = (out / "holdout.csv").read_text().splitlines()[2:]
    assert rows
    for row in rows:
        assert row.split(",")[6] == ""  # omega column empty under holdout


@pytest.mark.parametrize(
    "subcommand, seed, stopping",
    [
        ("holdout", "5", None),
        ("holdout", None, "discrepancy"),
        ("holdout", "5", {"kind": "holdout", "fraction": 0.25}),
        ("rates", "5", None),
        ("rates", None, None),
    ],
)
def test_effective_config_builds_one_model_and_equals_the_replace_route(
    tmp_path, monkeypatch, subcommand, seed, stopping
):
    # --seed and the hold-out default are written into the JSON object before
    # it loads; replacing fields of a loaded config built the model again.
    d = inner_dict() if stopping is None else inner_dict(stopping=stopping)
    argv = [subcommand, "--config", write_config(tmp_path, d), "--out", "o"]
    argv += [] if seed is None else ["--seed", seed]
    built = []
    make_model = harness.make_model
    monkeypatch.setattr(harness, "make_model", lambda *a: built.append(a) or make_model(*a))
    cfg = cli._effective_config(cli._build_parser().parse_args(argv))
    assert len(built) == 1
    expected = ExperimentConfig.from_dict(d)
    if seed is not None:
        expected = replace(expected, master_seed=int(seed))
    if subcommand == "holdout" and expected.holdout_fraction is None:
        expected = replace(expected, holdout_fraction=0.2)
    assert cfg == expected
    assert config_hash(cfg) == config_hash(expected)


@pytest.mark.parametrize(
    "config, message",
    [
        (inner_dict(stopping="oracle"), "must be 'discrepancy' or a holdout object, got 'oracle'"),
        (inner_dict(stopping=None), "must be 'discrepancy' or a holdout object, got None"),
        ({k: v for k, v in inner_dict().items() if k != "master_seed"}, "master_seed"),
    ],
    ids=["unknown_stopping", "null_stopping", "missing_master_seed"],
)
def test_overrides_leave_malformed_fields_to_the_config_check(tmp_path, capsys, config, message):
    # Only an absent or "discrepancy" stopping takes the hold-out default, and
    # --seed replaces a master_seed the file has: anything else fails as it
    # does without the overrides.
    cfg_path = write_config(tmp_path, config)
    rc = cli.main(["holdout", "--config", cfg_path, "--out", str(tmp_path / "o"), "--seed", "5"])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_holdout_subcommand_rejects_outer(tmp_path, capsys):
    d = inner_dict(regime="outer", theta_list=[0.0])
    d["model"]["r"] = 0.25
    d["model"]["noise"]["M"] = 3.0
    cfg_path = write_config(tmp_path, d)
    rc = cli.main(["holdout", "--config", cfg_path, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "outer" in capsys.readouterr().err


SHIPPED_OUTER = str(Path(__file__).resolve().parents[1] / "configs" / "outer_r025_s05.json")


@pytest.mark.parametrize(
    "subcommand, config, message",
    [
        ("holdout", None, "outer regime"),
        ("rates", with_model(rho=10.0), "sup-norm"),
        ("rates", inner_dict(regime="outer"), "'regime'"),
        ("rates", inner_dict(theta_list=[0.1, 0.1000001]), "distinct"),
        ("rates", inner_dict(theta_list=[0.0, 0.5, 0.0]), "distinct"),
        ("rates", inner_dict(stopping={"kind": "holdout", "fraction": None}), "'fraction'"),
        ("holdout", inner_dict(stopping={"kind": "holdout", "fraction": None}), "'fraction'"),
        # A config whose model cannot be built does not load.
        ("rates", with_model(s=1.5), "s must lie in (0, 1)"),
        ("rates", with_model(J=5), "truncation must be at least 10"),
        ("rates", with_model(u_profile=999), "one-hot mode index 999"),
        ("rates", with_model(rho=-1.0), "rho must be positive"),
        # Out-of-range values and misshaped objects.
        ("rates", inner_dict(n_grid=[0, 4]), "n_grid entries must be positive"),
        ("rates", inner_dict(replicates=0), "replicates must be >= 1"),
        ("rates", inner_dict(tau_prime=0.0), "tau_prime must be positive"),
        ("rates", inner_dict(theta_list=[]), "theta_list must be non-empty"),
        ("rates", inner_dict(theta_list=[0.0, 0.6]), "theta_list entries must lie in [0, 1/2]"),
        ("rates", inner_dict(threshold="oracle"), "threshold must be 'calibrated' or 'literal'"),
        ("rates", [inner_dict()], "config must be a JSON object"),
        ("rates", inner_dict(model=[1.0]), "config field 'model' must be an object"),
        ("rates", inner_dict(stopping={"kind": "oracle"}), "must have kind='holdout'"),
    ],
)
def test_rejected_config_leaves_no_out_directory(tmp_path, capsys, subcommand, config, message):
    # The holdout override, the config and the model build are checked before --out exists.
    cfg_path = SHIPPED_OUTER if config is None else write_config(tmp_path, config)
    out = tmp_path / "out"
    rc = cli.main([subcommand, "--config", cfg_path, "--out", str(out)])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "base, tau_prime, message",
    [(None, 1.2, "tau_prime > 1.5"), (SHIPPED_OUTER, 5.0, "tau_prime > 6")],
    ids=["inner", "outer"],
)
def test_literal_threshold_below_its_floor_leaves_no_out_directory(
    tmp_path, capsys, base, tau_prime, message
):
    # The literal thresholds reject tau_prime at or below the regime floor;
    # the config check does so before --out exists, not on the first replicate.
    d = inner_dict() if base is None else json.loads(Path(base).read_text())
    d.update(threshold="literal", tau_prime=tau_prime)
    out = tmp_path / "out"
    rc = cli.main(["rates", "--config", write_config(tmp_path, d), "--out", str(out)])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["rates", "holdout"])
def test_holdout_split_without_training_data_leaves_no_out_directory(
    tmp_path, capsys, subcommand
):
    # 0.99 of the smallest grid point (32) is 32 validation points.
    d = json.loads(Path(SHIPPED_OUTER).with_name("inner_small.json").read_text())
    d["stopping"] = {"kind": "holdout", "fraction": 0.99}
    out = tmp_path / "out"
    rc = cli.main([subcommand, "--config", write_config(tmp_path, d), "--out", str(out)])
    assert rc == 1
    assert "leaves no training data" in capsys.readouterr().err
    assert not out.exists()


def test_compare_writes_partial_results_and_exits_two(tmp_path, capsys, monkeypatch):
    real_gram_fit = harness.gram_fit

    def gram_fit(system, *args, **kwargs):
        if system.n == 32:
            raise NumericalFailure("synthetic blow-up", iteration=1)
        return real_gram_fit(system, *args, **kwargs)

    monkeypatch.setattr(harness, "gram_fit", gram_fit)
    cfg_path = write_config(tmp_path, inner_dict())
    out = tmp_path / "out"
    rc = cli.main(["compare", "--config", cfg_path, "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert "partial results written" in captured.err
    assert "FAILED n=32 rep=0" in captured.out
    rows = list(csv.DictReader((out / "compare.csv").read_text().splitlines()[1:]))
    assert [(int(r["n"]), int(r["rep"])) for r in rows] == [(16, 0), (16, 1)]
    summary = json.loads((out / "compare_summary.json").read_text())
    assert summary["incomplete"] is True
    assert [f.split(" seed=")[0] for f in summary["failures"]] == ["n=32 rep=0", "n=32 rep=1"]
    assert all("synthetic blow-up" in f for f in summary["failures"])
    assert [row["n"] for row in summary["medians"]] == [16]


@pytest.mark.parametrize(
    "subcommand, csv_name, header",
    [
        ("rates", "rates.csv", "regime,n,rep,theta,error,m_hat,omega,seed"),
        ("compare", "compare.csv", "n,rep,seed,cg_m_hat,cg_error,cgme_m,cgme_error,"
         "cgme_matched,ridge_lambda,ridge_error"),
    ],
)
def test_every_replicate_failing_writes_header_only_csv(
    tmp_path, capsys, monkeypatch, subcommand, csv_name, header
):
    # With no record to read them from, the CSV columns come from the record class.
    def gram_fit(system, *args, **kwargs):
        raise NumericalFailure("synthetic blow-up", iteration=1)

    monkeypatch.setattr(harness, "gram_fit", gram_fit)
    out = tmp_path / "out"
    rc = cli.main([subcommand, "--config", write_config(tmp_path, inner_dict()), "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert "partial results written" in captured.err
    lines = (out / csv_name).read_text().splitlines()
    assert len(lines) == 2 and lines[0].startswith("# config_hash=")
    assert lines[1] == header
    if subcommand == "rates":
        assert "FAILED theta=0.0: fewer than 2 grid points survived" in captured.out
        assert not list(out.glob("plot_theta_*.tsv"))
        summary = json.loads((out / "rate_report.json").read_text())
        assert summary["per_point"] == [] and summary["slopes"] == []
    else:
        summary = json.loads((out / "compare_summary.json").read_text())
        assert summary["medians"] == []
    assert summary["incomplete"] is True
    assert len([f for f in summary["failures"] if "synthetic blow-up" in f]) == 4


def test_simulate_writes_samples_and_manifest(tmp_path):
    cfg_path = write_config(tmp_path, inner_dict())
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg_path, "--out", str(out), "--quiet"]) == 0
    payload = json.loads((out / "samples.json").read_text())
    assert payload["n"] == 16
    assert len(payload["samples"]) == 2
    assert len(payload["samples"][0]["X_labeled"]) == 16
    assert set(payload["seed_manifest"]) == {"16", "32"}
    assert payload["seed_manifest"]["16"][0] == derive_seed(11, 16, 0)
    # model block present for external reconstruction
    assert payload["model"]["s"] == 0.5


def test_compare_writes_artifacts(tmp_path, capsys):
    cfg_path = write_config(tmp_path, inner_dict(replicates=1, theta_list=[0.0]))
    out = tmp_path / "out"
    rc = cli.main(["compare", "--config", cfg_path, "--out", str(out)])
    assert rc == 0
    assert (out / "compare.csv").exists()
    summary = json.loads((out / "compare_summary.json").read_text())
    assert len(summary["lambda_grid"]) == 20
    assert {row["n"] for row in summary["medians"]} == {16, 32}
    stdout = capsys.readouterr().out
    assert "cg_m_hat=" in stdout and "match_rate=" in stdout


def test_numerical_failure_maps_to_exit_two(tmp_path, capsys, monkeypatch):
    cfg_path = write_config(tmp_path, inner_dict())

    def boom(cfg):
        raise NumericalFailure("synthetic blow-up", iteration=3)

    monkeypatch.setattr(cli, "run_experiment", boom)
    rc = cli.main(["rates", "--config", cfg_path, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "iteration 3" in err
    assert "master_seed=11" in err

    rc = cli.main(["rates", "--config", cfg_path, "--out", str(tmp_path / "o"), "--seed", "0"])
    assert rc == 2
    assert "master_seed=0" in capsys.readouterr().err


def test_module_entry_point_subprocess(tmp_path):
    cfg_path = write_config(tmp_path, inner_dict())
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "kernelcg.cli", "fit", "--config", cfg_path, "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "m_hat=" in proc.stdout
    assert (out / "fit.json").exists()


COLD_PATH_SCRIPT = """
import json, sys
import kernelcg
from kernelcg import cli, harness
cfg, out = sys.argv[1], sys.argv[2]
codes = [
    cli.main([name, "--config", cfg, "--out", f"{out}/{name}", "--quiet"])
    for name in ("fit", "simulate", "rates", "holdout", "compare")
]
loaded = sorted(
    m for m in sys.modules
    if m.split(".")[0] == "scipy" or m == "numpy.ma" or m.startswith("numpy.polynomial")
)
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_subcommands_never_import_scipy_or_numpy_ma(tmp_path):
    # The package does not depend on scipy, which would add about 0.5 s to
    # every start-up. numpy.ma (about 18 ms) comes with numpy's median and
    # percentile, which the sweeps do not use; numpy.polynomial serves only the
    # effective-dimension tail bound, which no subcommand calls.
    cfg_path = write_config(tmp_path, inner_dict())
    proc = subprocess.run(
        [sys.executable, "-c", COLD_PATH_SCRIPT, cfg_path, str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0, 0, 0]
    assert result["loaded"] == []
