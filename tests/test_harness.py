"""Tests for the rate-sweep harness, slope fitting, and file writers."""

from __future__ import annotations

import itertools
import json
import math
import os
import stat
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelcg import (
    GramSystem,
    InvalidInput,
    MercerKernel,
    ThresholdParams,
    UniformBounded,
    cg_fit,
    discrepancy_stop,
    draw_sample,
    error_norm,
    eval_target,
    holdout_select,
    lanczos_paths,
    make_model,
    spectral_error,
    threshold_inner,
    threshold_outer,
)
from kernelcg.harness import (
    COMPARE_MAX_ITER,
    HOLDOUT_MAX_ITER,
    ExperimentConfig,
    canonical_json,
    compare_solvers,
    config_hash,
    derive_seed,
    draw_replicate,
    fit_loglog_slope,
    fit_replicate,
    render_report,
    run_experiment,
    write_text_atomic,
    _median,
    _quantile,
)
from reference import dense, plain_cg

REDUCED_INNER = (
    Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "inner_r1_s05.reduced.json"
)


def inner_config(**overrides):
    base = dict(
        s=0.5,
        r=1.0,
        rho=1.0,
        J=60,
        noise=UniformBounded(1.0),
        n_grid=(32, 64, 128),
        replicates=3,
        gamma=0.05,
        tau_prime=2.0,
        theta_list=(0.0,),
        master_seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def outer_config(**overrides):
    base = dict(
        s=0.5,
        r=0.25,
        rho=1.0,
        J=60,
        noise=UniformBounded(3.0),
        n_grid=(16, 32),
        replicates=2,
        gamma=0.05,
        tau_prime=7.0,
        theta_list=(0.0,),
        master_seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_roundtrip_through_dict(self):
        cfg = inner_config(theta_list=(0.0, 0.5))
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg

    @pytest.mark.parametrize(
        "overrides", [dict(u_profile=3), dict(threshold="literal")], ids=["one_hot", "literal"]
    )
    def test_non_default_fields_roundtrip_and_enter_the_hash(self, overrides):
        cfg = inner_config(**overrides)
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg and config_hash(again) == config_hash(cfg)
        assert config_hash(cfg) != config_hash(inner_config())

    def test_whole_number_u_profile_reads_as_an_int(self):
        d = inner_config().to_dict()
        d["model"]["u_profile"] = 3.0
        cfg = ExperimentConfig.from_dict(d)
        assert cfg.u_profile == 3 and type(cfg.u_profile) is int
        assert cfg == inner_config(u_profile=3)

    def test_model_is_built_once_per_config(self):
        cfg = inner_config()
        assert cfg.model() is cfg.model()
        again = replace(cfg, master_seed=12)
        assert again.model() is not cfg.model()
        assert np.array_equal(again.model().target_coeffs, cfg.model().target_coeffs)

    @pytest.mark.parametrize(
        "model, message",
        [
            (dict(s=1.5), "s must lie in"),
            (dict(J=5), "truncation must be at least 10"),
            (dict(rho=20.0), "sup-norm"),
            (dict(u_profile=999), "one-hot mode index"),
            (dict(rho=-1.0), "rho must be positive"),
        ],
        ids=["s", "J", "uniform_M_below_sup_f", "u_profile", "rho"],
    )
    def test_config_whose_model_cannot_be_built_does_not_load(self, model, message):
        # Each used to load and hash, and failed only when its model was built.
        d = inner_config().to_dict()
        d["model"].update(model)
        with pytest.raises(InvalidInput, match=message):
            ExperimentConfig.from_dict(d)

    def test_holdout_roundtrip(self):
        cfg = inner_config(holdout_fraction=0.2)
        d = cfg.to_dict()
        assert d["stopping"] == {"kind": "holdout", "fraction": 0.2}
        assert ExperimentConfig.from_dict(d) == cfg

    def test_unknown_field_named_in_error(self):
        d = inner_config().to_dict()
        d["replicantes"] = 3
        with pytest.raises(InvalidInput, match="replicantes"):
            ExperimentConfig.from_dict(d)

    def test_unknown_model_field_named(self):
        d = inner_config().to_dict()
        d["model"]["bandwidth"] = 0.2
        with pytest.raises(InvalidInput, match="bandwidth"):
            ExperimentConfig.from_dict(d)

    def test_missing_field_named(self):
        d = inner_config().to_dict()
        del d["gamma"]
        with pytest.raises(InvalidInput, match="gamma"):
            ExperimentConfig.from_dict(d)

    def test_grid_must_increase(self):
        with pytest.raises(InvalidInput, match="increasing"):
            inner_config(n_grid=(64, 64))
        with pytest.raises(InvalidInput, match="2 points"):
            inner_config(n_grid=(64,))

    def test_regime_consistency(self):
        # r decides the regime; the JSON key is optional and, when given, must agree.
        for cfg, regime in ((inner_config(), "inner"), (outer_config(), "outer")):
            d = cfg.to_dict()
            assert cfg.regime == d["regime"] == regime
            del d["regime"]
            again = ExperimentConfig.from_dict(d)
            assert again == cfg and config_hash(again) == config_hash(cfg)
        assert inner_config(r=0.5).regime == "inner"
        d = inner_config().to_dict()
        d["regime"] = "outer"
        with pytest.raises(InvalidInput, match="'regime'"):
            ExperimentConfig.from_dict(d)
        # Named before the outer-regime checks, which this theta would fail.
        d = outer_config().to_dict()
        d.update(regime="inner", theta_list=[0.5])
        with pytest.raises(InvalidInput, match="'regime'"):
            ExperimentConfig.from_dict(d)
        with pytest.raises(TypeError, match="regime"):
            inner_config(regime="inner")
        with pytest.raises(InvalidInput, match="r \\+ s"):
            outer_config(r=0.2, s=0.2)
        with pytest.raises(InvalidInput, match="theta < r"):
            outer_config(theta_list=(0.25,))

    def test_tau_prime_must_be_finite(self):
        with pytest.raises(InvalidInput, match="'tau_prime' is invalid"):
            inner_config(tau_prime=math.inf)

    @pytest.mark.parametrize(
        "overrides, field",
        [
            (dict(n_grid=[32.9, 64]), "n_grid"),
            (dict(replicates=True), "replicates"),
            (dict(replicates=2.5), "replicates"),
            (dict(master_seed="7"), "master_seed"),
            (dict(gamma="0.05"), "gamma"),
            (dict(s="0.5"), "model.s"),
            (dict(theta_list=["0.0"]), "theta_list"),
            (dict(holdout_fraction="0.2"), "stopping.fraction"),
            (dict(noise={"kind": "uniform_bounded", "M": 1.0}), "model.noise"),
        ],
        ids=[
            "fractional_n_grid", "bool_replicates", "fractional_replicates",
            "string_master_seed", "string_gamma", "string_s", "string_theta",
            "string_holdout_fraction", "dict_noise",
        ],
    )
    def test_constructor_reads_fields_as_from_dict_does(self, overrides, field):
        with pytest.raises(InvalidInput, match=f"config field {field!r} is invalid"):
            inner_config(**overrides)

    @pytest.mark.parametrize("thetas", [(0.1, 0.1000001), (0.0, 0.5, 0.0), (0.0, -0.0)])
    def test_theta_list_entries_must_name_distinct_plot_files(self, thetas):
        # write_plot_tsv names its files plot_theta_{t:g}.tsv.
        with pytest.raises(InvalidInput, match="distinct"):
            inner_config(theta_list=thetas)

    def test_outer_holdout_rejected(self):
        with pytest.raises(InvalidInput, match="holdout"):
            outer_config(holdout_fraction=0.2)

    def test_holdout_needs_fraction(self):
        d = inner_config().to_dict()
        d["stopping"] = {"kind": "holdout"}
        with pytest.raises(InvalidInput, match="fraction"):
            ExperimentConfig.from_dict(d)
        for f in (0.0, 1.0):
            with pytest.raises(InvalidInput, match="fraction in \\(0, 1\\)"):
                inner_config(holdout_fraction=f)

    def test_discrepancy_is_the_only_stopping_string(self):
        d = inner_config().to_dict()
        assert d["stopping"] == "discrepancy"
        d["stopping"] = "holdout"
        with pytest.raises(InvalidInput, match="stopping"):
            ExperimentConfig.from_dict(d)

    def test_holdout_split_must_leave_training_data_at_the_smallest_n(self):
        # n_grid (32, 64, 128): a 0.97 split keeps round(31.04) = 31 of 32
        # points for validation and one for training; 0.99 keeps none
        assert inner_config(holdout_fraction=0.97).n_grid[0] == 32
        with pytest.raises(InvalidInput, match="leaves no training data at n=32"):
            inner_config(holdout_fraction=0.99)

    def test_hash_is_stable_and_sensitive(self):
        a = config_hash(inner_config())
        b = config_hash(inner_config())
        c = config_hash(inner_config(master_seed=12))
        assert a == b
        assert a != c
        assert len(a) == 64


class TestDeriveSeed:
    def test_documented_rule(self):
        import hashlib

        expected = int.from_bytes(
            hashlib.sha256(b"11:64:3").digest()[:8], "big"
        )
        assert derive_seed(11, 64, 3) == expected

    def test_distinct_across_cells(self):
        seeds = {derive_seed(1, n, rep) for n in (32, 64) for rep in range(10)}
        assert len(seeds) == 20


class TestFitLoglogSlope:
    def test_exact_power_law(self):
        ns = [32, 64, 128, 256]
        errors = [3.0 * n**-0.8 for n in ns]
        fit = fit_loglog_slope(ns, errors)
        assert fit.slope == pytest.approx(-0.8, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
        assert fit.residual == pytest.approx(0.0, abs=1e-20)

    def test_two_points(self):
        fit = fit_loglog_slope([10, 100], [1.0, 0.01])
        assert fit.slope == pytest.approx(-2.0, rel=1e-12)

    def test_multiplicative_noise_tolerance(self):
        # e^{+-0.1} factors on a 6-point dyadic grid keep the fitted slope
        # within 0.15 of the truth.
        rng = np.random.Generator(np.random.Philox(3))
        ns = [64 * 2**k for k in range(6)]
        worst = 0.0
        for _ in range(200):
            noise = rng.uniform(-0.1, 0.1, len(ns))
            errors = [2.0 * n**-0.8 * math.exp(e) for n, e in zip(ns, noise)]
            fit = fit_loglog_slope(ns, errors)
            worst = max(worst, abs(fit.slope + 0.8))
        assert worst <= 0.15

    def test_zero_error_clamped_with_warning(self):
        with pytest.warns(UserWarning, match="clamped"):
            fit = fit_loglog_slope([10, 100], [1.0, 0.0])
        assert np.isfinite(fit.slope)

    def test_bad_lengths(self):
        with pytest.raises(InvalidInput):
            fit_loglog_slope([10, 100], [1.0])
        with pytest.raises(InvalidInput):
            fit_loglog_slope([10], [1.0])

    @pytest.mark.parametrize("ns", [[0, 1, 2], [-4, 8, 16], [4, np.nan, 16], [4, 8, np.inf]])
    def test_rejects_sample_sizes_that_are_not_positive_and_finite(self, ns):
        # n = 0 used to stop on numpy's "divide by zero in log" warning.
        with pytest.raises(InvalidInput, match="sample sizes must be positive and finite"):
            fit_loglog_slope(ns, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_errors(self, bad):
        # NaN or inf used to give a NaN slope; -inf used to be clamped.
        with pytest.raises(InvalidInput, match="errors must be finite"):
            fit_loglog_slope([4, 8, 16], [1.0, bad, 0.5])


# Replicate sets as the sweeps aggregate them: stop indices, squared errors
# over many decades, and sets with ties.
_replicate_values = st.one_of(
    st.lists(st.integers(0, 4096), min_size=1, max_size=60),
    st.lists(st.floats(1e-20, 1e2), min_size=1, max_size=60),
    st.lists(st.floats(-46.0, 4.6).map(math.exp), min_size=1, max_size=60),
    st.lists(st.floats(1e-20, 1e2), min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=60)
    ),
)


@settings(max_examples=500, deadline=None)
@given(_replicate_values)
def test_sort_aggregation_matches_numpy_bit_for_bit(values):
    assert _median(values).hex() == float(np.median(values)).hex()
    assert _quantile(values, 0.25).hex() == float(np.percentile(values, 25)).hex()
    assert _quantile(values, 0.75).hex() == float(np.percentile(values, 75)).hex()


class TestRunExperiment:
    def test_determinism(self):
        cfg = inner_config(replicates=1)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a == b
        assert canonical_json(a.summary) == canonical_json(b.summary)

    def test_report_shape(self):
        cfg = inner_config(theta_list=(0.0, 0.5))
        report = run_experiment(cfg)
        summary = report.summary
        assert not summary["incomplete"]
        assert len(report.records) == len(cfg.n_grid) * cfg.replicates * 2
        assert len(summary["per_point"]) == len(cfg.n_grid) * 2
        assert len(summary["slopes"]) == 2
        by_theta = {s["theta"]: s for s in summary["slopes"]}
        assert by_theta[0.0]["theoretical_exponent"] == pytest.approx(-0.8)
        assert by_theta[0.5]["theoretical_exponent"] == pytest.approx(-0.4)
        for s in summary["slopes"]:
            assert s["slope_gap"] == pytest.approx(s["slope"] - s["theoretical_exponent"])

    def test_stop_index_bounded_by_n(self):
        report = run_experiment(inner_config())
        for row in report.records:
            assert 0 <= row.m_hat <= row.n
            assert row.omega is not None and row.omega > 0
            assert row.seed == derive_seed(11, row.n, row.rep)

    def test_stopped_error_beats_zero_estimator_in_median(self):
        cfg = inner_config(replicates=5)
        model = cfg.model()
        zero_sq = error_norm(
            np.zeros(4), np.linspace(0.1, 0.9, 4), model, 0.0
        ).error_value ** 2
        report = run_experiment(cfg)
        for p in report.summary["per_point"]:
            assert p["median_error"] <= zero_sq

    def test_outer_regime_runs_and_pads(self):
        report = run_experiment(outer_config())
        assert not report.summary["incomplete"]
        assert {row.regime for row in report.records} == {"outer"}
        assert len(report.summary["slopes"]) == 1

    def test_holdout_mode_emits_no_omega(self):
        cfg = inner_config(holdout_fraction=0.25)
        report = run_experiment(cfg)
        assert all(row.omega is None for row in report.records)
        assert all(row.m_hat >= 0 for row in report.records)

    def test_noiseless_tiny_threshold_interpolates(self):
        # With exact labels and a near-zero threshold the stop lands on the
        # terminal iterate, whose error is the pure approximation error;
        # it shrinks as the design fills in.
        model = make_model(s=0.5, r=1.0, rho=1.0, truncation=40)
        errs = []
        for n in (16, 64, 256):
            rng = np.random.Generator(np.random.Philox(5))
            x = rng.random(n)
            y = eval_target(model, x)
            trace = cg_fit(dense(model.kernel, x), y, max_iter=n)
            m_hat = discrepancy_stop(trace, 1e-300)
            assert m_hat == trace.m_last
            errs.append(error_norm(trace.alphas[m_hat], x, model, 0.0).error_value)
        assert errs[-1] < errs[0]
        assert all(b <= a * 1.1 for a, b in zip(errs, errs[1:]))


class TestFitReplicate:
    def test_holdout_runs_on_the_gram_system_and_stops_as_the_dense_path(self):
        """Hold-out replicates run CG on the Gram system. Reorthogonalized
        CG makes all of their iterates independent of rounding, so the stop
        equals the hold-out choice on a dense-matrix trace."""
        cfg = inner_config(holdout_fraction=0.25, J=120)
        model = cfg.model()
        for n, rep in itertools.product((64, 128, 512), range(cfg.replicates)):
            fit = fit_replicate(cfg, n, rep)
            assert isinstance(fit.system, GramSystem)
            sample = draw_sample(model, n, seed=fit.seed)
            n_train = fit.system.n
            x, y = sample.X_labeled[:n_train], sample.Y[:n_train]
            x_val, y_val = sample.X_labeled[n_train:], sample.Y[n_train:]
            ref = cg_fit(dense(model.kernel, x), y, max_iter=HOLDOUT_MAX_ITER)
            cross = model.kernel.gram(x_val, x)
            expected = holdout_select(ref.alphas @ cross.T / n_train, y_val, model.noise.M)
            assert fit.m_hat == expected, (n, rep)

    def test_discrepancy_errors_match_error_norm(self):
        """The Gram-space stop and errors equal those of a full cg_fit run on
        the dense matrix, stopped by discrepancy_stop and measured by
        error_norm on alpha. The two routes share no arithmetic past the
        basis: the largest gap was 1.2e-14 on this config's grid, and 1.0e-13
        on the shipped configs."""
        cfg = inner_config()
        model = cfg.model()
        fit = fit_replicate(cfg, 64, 1)
        sample = draw_sample(model, 64, seed=fit.seed)
        ref = cg_fit(dense(model.kernel, sample.X_labeled), sample.Y)
        assert discrepancy_stop(ref, fit.omega) == fit.m_hat
        alpha = ref.alphas[fit.m_hat]
        for theta in (0.0, 0.5):
            err = error_norm(alpha, sample.X_labeled, model, theta).error_value
            assert fit.squared_error(theta) == pytest.approx(err * err, rel=1e-10)

    @pytest.mark.parametrize("cfg", [inner_config(), outer_config()], ids=["inner", "outer"])
    def test_discrepancy_trace_ends_at_the_stop(self, cfg):
        stops = []
        for n in cfg.n_grid:
            for rep in range(cfg.replicates):
                fit = fit_replicate(cfg, n, rep)
                # A breakdown ends the run at its exact minimizer, which is
                # then the stop even when it does not beat omega.
                assert fit.trace.m_last == fit.m_hat
                if fit.trace.breakdown_at is None:
                    assert fit.trace.residual_norms[-1] < fit.omega
                stops.append(fit.m_hat)
        assert max(stops) > 0

    def test_replicate_calls_neither_basis_nor_gram(self, monkeypatch):
        """The target values, the Gram system and the hold-out predictions
        all come from cosine moments: no basis, no cross-kernel matrix."""
        cfg = inner_config(holdout_fraction=0.25)
        sizes = []
        basis = MercerKernel.basis

        def counted(kernel, points):
            sizes.append(np.asarray(points).size)
            return basis(kernel, points)

        def no_gram(*args):
            raise AssertionError("cross-kernel matrix formed")

        monkeypatch.setattr(MercerKernel, "basis", counted)
        monkeypatch.setattr(MercerKernel, "gram", no_gram)
        fit = fit_replicate(cfg, 64, 0)
        assert sizes == []
        assert fit.system.n == 48

    @pytest.mark.parametrize(
        "cfg, rule",
        [
            (inner_config(threshold="literal"), threshold_inner),
            (outer_config(threshold="literal"), threshold_outer),
        ],
        ids=["inner", "outer"],
    )
    def test_literal_threshold_is_the_regime_formula(self, cfg, rule):
        model = cfg.model()
        for n in cfg.n_grid:
            fit = fit_replicate(cfg, n, 0)
            params = ThresholdParams(
                M=model.noise.M, kappa=model.kappa, D=model.ed_constant, n=n,
                gamma=cfg.gamma, r=model.r, s=model.s, tau_prime=cfg.tau_prime,
                rho=model.rho,
            )
            assert fit.omega == rule(params).omega

    def test_holdout_split_is_checked_at_each_n(self):
        # The config checks its smallest grid point; a smaller n gets the same check.
        cfg = inner_config(holdout_fraction=0.97)
        assert fit_replicate(cfg, 32, 0).system.n == 1
        with pytest.raises(InvalidInput, match="leaves no training data at n=16"):
            fit_replicate(cfg, 16, 0)

    def test_holdout_stop_matches_select_on_the_gram_matrix(self):
        """The Gram-space hold-out stop equals the choice among cg_fit's
        iterates on the dense matrix, predicted through the cross kernel."""
        cfg = inner_config(holdout_fraction=0.25)
        model = cfg.model()
        for rep in range(cfg.replicates):
            fit = fit_replicate(cfg, 64, rep)
            sample = draw_sample(model, 64, seed=fit.seed)
            n_train = fit.system.n
            x, y = sample.X_labeled[:n_train], sample.Y[:n_train]
            x_val, y_val = sample.X_labeled[n_train:], sample.Y[n_train:]
            ref = cg_fit(dense(model.kernel, x), y, max_iter=HOLDOUT_MAX_ITER)
            cross = model.kernel.gram(x_val, x)
            expected = holdout_select(ref.alphas @ cross.T / n_train, y_val, model.noise.M)
            assert fit.m_hat == expected
            scale = np.sqrt(model.eigenvalues / n_train)
            assert np.array_equal(fit.scale, scale)
            assert np.allclose(fit.spectrum, scale * fit.trace.alphas[fit.m_hat])


class TestCompareSolvers:
    def test_euclidean_run_matches_a_full_budget_reference(self):
        """The plain-residual iterates come from the replicate's Lanczos run
        and are searched up to the first match. Over a full-budget plain-CG
        run (``reference.plain_cg``), searched afterwards, the same iterate is
        picked, and its error agrees to rounding: the two reach it by
        different arithmetic."""
        cfg = ExperimentConfig.from_dict(json.loads(REDUCED_INNER.read_text()))
        cfg = replace(cfg, master_seed=3)
        model = cfg.model()
        report = compare_solvers(cfg)
        for rec in report.records:
            fit = fit_replicate(cfg, rec.n, rec.rep)
            y = draw_replicate(cfg, rec.n, rec.rep).Y
            euclid = plain_cg(fit.system, float(y @ y), COMPARE_MAX_ITER)
            scale = np.sqrt(model.eigenvalues / fit.system.n)
            errs = [
                spectral_error(scale * c, model, 0.0) ** 2 for c in euclid.alphas
            ]
            matched = [m for m, e in enumerate(errs) if e <= rec.cg_error]
            cgme_m = matched[0] if matched else int(np.argmin(errs))
            assert (rec.cgme_m, rec.cgme_matched) == (cgme_m, bool(matched)), rec.n
            assert rec.cgme_error == pytest.approx(errs[cgme_m], rel=1e-10), rec.n
            _, pls = lanczos_paths(fit.system, report.summary["lambda_grid"], COMPARE_MAX_ITER)
            assert rec.cgme_error == spectral_error(scale * pls[rec.cgme_m], model, 0.0) ** 2
        assert {rec.cgme_matched for rec in report.records} == {True, False}

    def test_identical_seeds_identical_tables(self):
        cfg = inner_config(n_grid=(24, 48), replicates=2)
        a = compare_solvers(cfg)
        b = compare_solvers(cfg)
        assert a == b

    def test_cgme_matches_or_reports_best(self):
        cfg = inner_config(n_grid=(24, 48), replicates=3)
        report = compare_solvers(cfg)
        assert len(report.summary["lambda_grid"]) == 20
        for rec in report.records:
            assert rec.cg_error >= 0
            if rec.cgme_matched:
                assert rec.cgme_error <= rec.cg_error
            assert rec.ridge_error >= 0

    def test_ridge_small_lambda_approaches_terminal_cg_on_clean_data(self):
        model = make_model(s=0.5, r=1.0, rho=1.0, truncation=40)
        rng = np.random.Generator(np.random.Philox(9))
        x = rng.random(32)
        y = eval_target(model, x)
        K = dense(model.kernel, x)
        trace = cg_fit(K, y, max_iter=32)
        cg_sq = error_norm(trace.alphas[trace.m_last], x, model, 0.0).error_value ** 2
        direct = np.linalg.solve(K.entries + 1e-10 * np.eye(K.n), y)
        ridge_sq = error_norm(direct, x, model, 0.0).error_value ** 2
        assert ridge_sq <= 4.0 * cg_sq + 1e-12
        system = GramSystem.from_design(model.kernel, x, y)
        (c,), _ = lanczos_paths(system, [1e-10])
        path_sq = spectral_error(np.sqrt(model.eigenvalues / x.size) * c, model, 0.0) ** 2
        assert path_sq <= 4.0 * cg_sq + 1e-12


class TestWriters:
    def test_csv_columns_and_provenance(self):
        cfg = inner_config(replicates=1)
        report = run_experiment(cfg)
        lines = render_report(report, "rates.csv", "r.json")["rates.csv"].splitlines()
        assert lines[0].startswith("# config_hash=")
        assert report.summary["config_hash"] in lines[0]
        assert lines[1] == "regime,n,rep,theta,error,m_hat,omega,seed"
        assert len(lines) == 2 + len(report.records)
        first = lines[2].split(",")
        assert first[0] == "inner"
        assert int(first[1]) == cfg.n_grid[0]

    def test_summary_json_byte_identical(self):
        cfg = inner_config(replicates=1)
        texts = [render_report(run_experiment(cfg), "r.csv", "r.json")["r.json"] for _ in range(2)]
        assert texts[0] == texts[1]
        parsed = json.loads(texts[0])
        assert parsed["config_hash"] == config_hash(cfg)
        assert [s["theta"] for s in parsed["slopes"]] == [0.0]

    def test_plot_tsv_theory_column(self):
        cfg = inner_config(theta_list=(0.0, 0.5), replicates=2)
        files = render_report(run_experiment(cfg), "r.csv", "r.json")
        assert list(files) == ["r.csv", "r.json", "plot_theta_0.tsv", "plot_theta_0.5.tsv"]
        lines = files["plot_theta_0.tsv"].splitlines()
        assert lines[1] == "log_n\tlog_median_error\ttheoretical_line"
        rows = [list(map(float, ln.split("\t"))) for ln in lines[2:]]
        assert len(rows) == len(cfg.n_grid)
        # theoretical column has exactly the theoretical slope
        slope = (rows[1][2] - rows[0][2]) / (rows[1][0] - rows[0][0])
        assert slope == pytest.approx(-0.8, rel=1e-9)

    def test_compare_csv_written(self):
        cfg = inner_config(n_grid=(24, 48), replicates=1)
        report = compare_solvers(cfg)
        files = render_report(report, "compare.csv", "c.json")
        assert list(files) == ["compare.csv", "c.json"]
        lines = files["compare.csv"].splitlines()
        assert lines[1].startswith("n,rep,seed,cg_m_hat")
        assert len(lines) == 2 + len(report.records)

    @pytest.mark.parametrize("umask", [0o022, 0o002, 0o077])
    def test_artifact_mode_matches_open(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            with open(tmp_path / "plain.txt", "w") as handle:
                handle.write("x\n")
            write_text_atomic(str(tmp_path / "artifact.csv"), "x\n")
        finally:
            os.umask(old)
        mode = stat.S_IMODE((tmp_path / "artifact.csv").stat().st_mode)
        assert mode == stat.S_IMODE((tmp_path / "plain.txt").stat().st_mode)
        assert mode == 0o666 & ~umask
        assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact.csv", "plain.txt"]

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        # Renaming a file over a directory fails after the text is written.
        (tmp_path / "artifact.csv").mkdir()
        with pytest.raises(OSError):
            write_text_atomic(str(tmp_path / "artifact.csv"), "x\n")
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.csv"]
