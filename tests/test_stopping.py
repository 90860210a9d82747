import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelcg import (
    InvalidInput,
    KernelMatrix,
    MercerKernel,
    NotReached,
    cg_fit,
)
from kernelcg import stopping
from kernelcg.stopping import (
    ThresholdParams,
    discrepancy_stop,
    holdout_select,
    threshold_calibrated,
    threshold_inner,
    threshold_outer,
)
from reference import dense
from test_solvers import random_psd_system


def inner_params(**overrides):
    base = dict(
        M=1.0, kappa=1.0, D=1.0, n=10_000, gamma=0.05, r=1.0, s=0.5, tau_prime=2.0
    )
    base.update(overrides)
    return ThresholdParams(**base)


def outer_params(**overrides):
    base = dict(
        M=1.0, kappa=1.0, D=1.0, n=4096, gamma=0.05, r=0.25, s=0.5,
        tau_prime=7.0, rho=1.0,
    )
    base.update(overrides)
    return ThresholdParams(**base)


class TestThresholdInner:
    def test_frozen_reference_value(self):
        # 2 * (0.04 * log 120) ** 1.2, checked on an independent calculator
        got = threshold_inner(inner_params())
        assert got.omega == pytest.approx(0.2752, abs=5e-5)
        assert got.admissible  # 10000 >= 16 * log(120)^2 ~ 366.6

    def test_linear_in_tau_prime(self):
        a = threshold_inner(inner_params(tau_prime=2.0)).omega
        b = threshold_inner(inner_params(tau_prime=4.0)).omega
        assert b == pytest.approx(2 * a, rel=1e-14)

    def test_exponent_degenerates_at_s_one(self):
        # as s -> 1 the exponent tends to 1 and the formula becomes linear
        # in the bracket
        p = inner_params(s=1 - 1e-12, n=400, kappa=2.0, M=3.0, D=1.5)
        got = threshold_inner(p).omega
        bracket = (4 * 1.5 / 20.0) * np.log(6 / 0.05)
        assert got == pytest.approx(2.0 * 3.0 * np.sqrt(2.0) * bracket, rel=1e-9)

    def test_monotone_in_n_and_gamma(self):
        omegas = [threshold_inner(inner_params(n=n)).omega for n in (100, 400, 1600)]
        assert omegas[0] > omegas[1] > omegas[2]
        tight = threshold_inner(inner_params(gamma=0.01)).omega
        loose = threshold_inner(inner_params(gamma=0.2)).omega
        assert tight > loose

    def test_admissibility_flag(self):
        assert not threshold_inner(inner_params(n=100)).admissible

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInput):
            threshold_inner(inner_params(tau_prime=1.5))
        with pytest.raises(InvalidInput):
            threshold_inner(inner_params(r=0.4))


class TestThresholdOuter:
    def test_frozen_reference_value(self):
        # 7 * ((4/64) * log 120) ** 1.5, checked on an independent calculator;
        # rounding the bracket to four decimals first gives 1.1456 instead
        got = threshold_outer(outer_params())
        assert got.omega == pytest.approx(1.1457243, abs=5e-5)

    def test_max_collapses_to_inner_scale(self):
        # with rho <= M the scale factor equals M, matching the inner formula
        # evaluated at the same (r, s) exponent
        p = outer_params(rho=0.5)
        q = outer_params(rho=1.0)
        assert threshold_outer(p).omega == threshold_outer(q).omega

    def test_linear_in_scale(self):
        base = threshold_outer(outer_params(rho=1.0)).omega
        double = threshold_outer(outer_params(rho=2.0)).omega
        assert double == pytest.approx(2 * base, rel=1e-14)

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInput):
            threshold_outer(outer_params(tau_prime=6.0))
        with pytest.raises(InvalidInput):
            threshold_outer(outer_params(r=0.5))
        with pytest.raises(InvalidInput):
            threshold_outer(outer_params(r=0.2, s=0.25))
        with pytest.raises(InvalidInput):
            threshold_outer(outer_params(rho=None))

    def test_admissibility_uses_its_own_log_constant(self):
        # boundary n sits between 16 log^2(4/g) and 16 log^2(6/g)
        gamma = 0.05
        lo = 16 * np.log(4 / gamma) ** 2
        hi = 16 * np.log(6 / gamma) ** 2
        n_mid = int((lo + hi) / 2)
        assert lo < n_mid < hi
        assert threshold_outer(outer_params(n=n_mid)).admissible


#: (threshold, parameter overrides, omega as float.hex, admissible), recorded
#: before the two literal formulas shared one implementation.
LITERAL_PINS = [
    (threshold_inner, inner_params, {}, "0x1.19cb3d04be39ep-2", True),
    (threshold_inner, inner_params,
     dict(M=0.5, kappa=2.5, D=1.7, n=300, gamma=0.1, r=0.75, s=0.3, tau_prime=1.6),
     "0x1.3903e01006ed8p+1", False),
    (threshold_inner, inner_params,
     dict(M=3.0, kappa=1.2, n=2048, gamma=0.01, r=2.0, s=0.9, tau_prime=5.0),
     "0x1.25dce4ade05d4p+3", True),
    (threshold_outer, outer_params, {}, "0x1.254e2fff7d51bp+0", True),
    (threshold_outer, outer_params,
     dict(M=3.0, kappa=0.8, D=2.2, n=100, gamma=0.2, r=0.1, s=0.6, tau_prime=6.5, rho=0.5),
     "0x1.6940bef2af6cfp+6", False),
    (threshold_outer, outer_params,
     dict(M=0.5, kappa=1.5, n=50000, r=0.4, s=0.2, tau_prime=12.0, rho=4.0),
     "0x1.68e6456dae60fp-1", True),
]


@pytest.mark.parametrize(
    "rule, params, overrides, omega_hex, admissible", LITERAL_PINS,
    ids=[f"{pin[0].__name__}-{i}" for i, pin in enumerate(LITERAL_PINS)],
)
def test_literal_thresholds_are_pinned_bit_for_bit(rule, params, overrides, omega_hex, admissible):
    got = rule(params(**overrides))
    assert got.omega.hex() == omega_hex
    assert got.admissible is admissible


class TestThresholdCalibrated:
    def test_anchor_value_at_reference(self):
        # At n = n_ref the threshold is (tau'/tau'_min) * C * noise floor.
        p = inner_params(n=256)
        got = threshold_calibrated(p, sigma=0.5, trace_k=4.0, n_ref=256.0)
        floor = 0.5 * np.sqrt(4.0 / 256)
        expected = (2.0 / stopping.TAU_PRIME_FLOOR_INNER) * (
            stopping.CALIBRATION_FRACTION * floor
        )
        assert got.omega == pytest.approx(expected, rel=1e-12)

    def test_outer_regime_uses_its_own_tau_floor(self):
        p = outer_params(n=100)
        got = threshold_calibrated(p, sigma=1.0, trace_k=1.0, n_ref=100.0)
        floor = np.sqrt(1.0 / 100)
        expected = (7.0 / stopping.TAU_PRIME_FLOOR_OUTER) * (
            stopping.CALIBRATION_FRACTION * floor
        )
        assert got.omega == pytest.approx(expected, rel=1e-12)

    def test_n_scaling_follows_theory_exponent(self):
        # Total decay in n: the 1/sqrt(n) noise floor times the excess
        # (1-s)/(2(2r+s)); together n^{-(2r+1)/(2(2r+s))}, the decay of the
        # closed-form thresholds.
        p1 = inner_params(n=64)
        p2 = inner_params(n=256)
        o1 = threshold_calibrated(p1, sigma=1.0, trace_k=2.0, n_ref=128.0).omega
        o2 = threshold_calibrated(p2, sigma=1.0, trace_k=2.0, n_ref=128.0).omega
        e = (2 * 1.0 + 1) / (2 * (2 * 1.0 + 0.5))
        assert o1 / o2 == pytest.approx(4.0**e, rel=1e-12)

    def test_linear_in_tau_prime(self):
        p1 = inner_params(tau_prime=2.0)
        p2 = inner_params(tau_prime=4.0)
        o1 = threshold_calibrated(p1, sigma=1.0, trace_k=1.0, n_ref=64.0).omega
        o2 = threshold_calibrated(p2, sigma=1.0, trace_k=1.0, n_ref=64.0).omega
        assert o2 == pytest.approx(2.0 * o1, rel=1e-12)

    @pytest.mark.parametrize("n", [320, 360])
    def test_admissibility_is_the_regimes_own(self, n):
        # 16 log^2(4/0.05) ~ 307 < n < 16 log^2(6/0.05) ~ 367: admissible only outer.
        for params, literal, admissible in (
            (outer_params, threshold_outer, True),
            (inner_params, threshold_inner, False),
        ):
            p = params(n=n)
            got = threshold_calibrated(p, sigma=1.0, trace_k=1.0, n_ref=100.0)
            assert got.admissible is literal(p).admissible is admissible

    def test_rejects_bad_scale_inputs(self):
        p = inner_params()
        with pytest.raises(InvalidInput):
            threshold_calibrated(p, sigma=0.0, trace_k=1.0, n_ref=10.0)
        with pytest.raises(InvalidInput):
            threshold_calibrated(p, sigma=1.0, trace_k=-1.0, n_ref=10.0)

    @pytest.mark.parametrize("name", ["sigma", "trace_k", "n_ref"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_rejects_non_finite_scale_inputs(self, name, value):
        # inf used to give an infinite omega, NaN a NaN one.
        scales = dict(sigma=1.0, trace_k=1.0, n_ref=10.0)
        scales[name] = value
        with pytest.raises(InvalidInput, match=f"{name} must be positive and finite"):
            threshold_calibrated(inner_params(), **scales)

    @pytest.mark.parametrize("tau_prime", [-2.0, 0.0, np.nan, np.inf])
    def test_params_reject_tau_prime_that_is_not_positive_and_finite(self, tau_prime):
        # -2.0 used to give a negative calibrated omega, NaN a NaN one.
        with pytest.raises(InvalidInput, match="tau_prime must be positive and finite"):
            inner_params(tau_prime=tau_prime)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("M", 0.0, "M must be positive"),
            ("kappa", -1.0, "kappa must be positive"),
            ("D", 0.5, "D must be at least 1"),
            ("n", 0, "n must be a positive integer"),
            ("gamma", 1.0, "gamma must lie in"),
            ("r", 0.0, "r must be positive"),
            ("s", 1.0, "s must lie in"),
            ("rho", -1.0, "rho must be positive"),
            # Infinite floats and an n that is not a whole number used to give
            # omega = inf or NaN, or 0.0 flagged admissible (n = inf).
            ("M", np.inf, "M must be positive and finite"),
            ("kappa", np.inf, "kappa must be positive and finite"),
            ("D", np.inf, "D must be at least 1 and finite"),
            ("r", np.inf, "r must be positive and finite"),
            ("rho", np.inf, "rho must be positive and finite"),
            ("n", 2.5, "n must be a positive integer"),
            ("n", True, "n must be a positive integer"),
            ("n", np.inf, "n must be a positive integer"),
        ],
    )
    def test_params_reject_out_of_range_values(self, field, value, message):
        with pytest.raises(InvalidInput, match=message):
            inner_params(**{field: value})


class FakeTrace:
    """Minimal stand-in carrying just what discrepancy_stop reads."""

    def __init__(self, residual_norms, breakdown_at=None, n=None):
        self.residual_norms = list(residual_norms)
        self.m_last = len(self.residual_norms) - 1
        self.breakdown_at = breakdown_at
        self.n = n or 10


class TestDiscrepancyStop:
    def test_stop_at_zero_when_initial_residual_is_small(self):
        assert discrepancy_stop(FakeTrace([0.5, 0.1]), omega=1.0) == 0

    def test_first_crossing(self):
        assert discrepancy_stop(FakeTrace([5.0, 3.0, 1.0, 0.0]), omega=2.0) == 2

    def test_strict_inequality(self):
        assert discrepancy_stop(FakeTrace([5.0, 2.0, 1.0]), omega=2.0) == 2

    def test_not_reached_signals_budget(self):
        with pytest.raises(NotReached) as exc:
            discrepancy_stop(FakeTrace([5.0, 3.0], n=10), omega=1.0)
        assert exc.value.m_last == 1
        assert exc.value.last_residual == 3.0

    def test_tiny_omega_on_exactly_solvable_system(self):
        # the reachable space is exhausted by breakdown, so the terminal
        # iterate is the exact minimizer and wins even below float scale
        K, y = random_psd_system(31, 6)
        trace = cg_fit(K, y)
        m_hat = discrepancy_stop(trace, omega=1e-300)
        assert m_hat == trace.m_last
        assert trace.residual_norms[m_hat] <= 1e-10 * trace.residual_norms[0]

    def test_larger_omega_never_stops_later(self):
        K, y = random_psd_system(37, 8)
        trace = cg_fit(K, y)
        omegas = np.geomspace(1e-12, 10, 25)
        stops = [discrepancy_stop(trace, w) for w in omegas]
        assert all(a >= b for a, b in zip(stops, stops[1:]))

    def test_prefix_stability_of_stop_index(self):
        K, y = random_psd_system(41, 8)
        trace = cg_fit(K, y)
        omega = trace.residual_norms[0] * 0.05
        m_hat = discrepancy_stop(trace, omega)
        rerun = cg_fit(K, y, max_iter=m_hat)
        assert discrepancy_stop(rerun, omega) == m_hat

    def test_rejects_nonpositive_omega(self):
        with pytest.raises(InvalidInput):
            discrepancy_stop(FakeTrace([1.0]), omega=0.0)

    def test_rejects_trace_without_residuals(self):
        with pytest.raises(InvalidInput, match="no residuals"):
            discrepancy_stop(FakeTrace([]), omega=1.0)


class TestHoldoutSelect:
    KERNEL = MercerKernel(decay_exponent=2.0, truncation=100)

    def _fitted_trace(self, seed=0, n=24):
        rng = np.random.default_rng(seed)
        x = rng.random(n)
        y = np.sin(2 * np.pi * x) + 0.1 * rng.standard_normal(n)
        return x, y, cg_fit(dense(self.KERNEL, x), y, max_iter=8)

    def _predictions(self, trace, x, val_x):
        """One row per iterate: the expansion of alpha_m over x, at val_x."""
        return trace.alphas @ self.KERNEL.gram(val_x, x).T / len(x)

    def test_single_candidate(self):
        short = cg_fit(
            KernelMatrix(entries=np.diag([1.0, 0.5]), n=2), np.zeros(2)
        )
        preds = self._predictions(short, np.array([0.1, 0.9]), np.array([0.5]))
        assert holdout_select(preds, [0.0], M_clip=1.0) == 0

    def test_zero_loss_witness(self):
        x, y, trace = self._fitted_trace(seed=3)
        rng = np.random.default_rng(9)
        val_x = rng.random(10)
        m_star = 4
        val_y = self.KERNEL.gram(val_x, x) @ trace.alphas[m_star] / x.size
        assert np.max(np.abs(val_y)) < 2.0  # clipping inactive
        got = holdout_select(self._predictions(trace, x, val_x), val_y, M_clip=2.0)
        assert got <= m_star
        preds = self.KERNEL.gram(val_x, x) @ trace.alphas[got] / x.size
        assert np.mean((preds - val_y) ** 2) <= 1e-20

    def test_tie_breaks_to_smallest(self):
        # rows 1 and 2 predict identically, and exactly
        preds = np.array([[0.0], [1.0], [1.0], [2.0]])
        assert holdout_select(preds, [1.0], M_clip=50.0) == 1

    def test_clipping_changes_choice(self):
        # an exploding iterate wins once its predictions are clamped back:
        # unclipped, 100 >> 1; clipped to 1 it is exact
        preds = np.array([[0.0], [100.0]])
        assert holdout_select(preds, [1.0], M_clip=1.0) == 1

    @given(
        st.integers(1, 70),
        st.integers(1, 600),
        st.booleans(),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_choice_is_the_argmin_of_the_two_dimensional_losses(
        self, rows, n, fortran, shuffled, seed
    ):
        # The rule works a few rows at a time; its losses are those of the
        # whole-array formula bit for bit, on C- and Fortran-ordered
        # predictions alike (MercerKernel.series returns the latter). Shuffled
        # rows hold the same values in other orders against constant labels,
        # so their losses tie but for rounding, which then decides the choice.
        rng = np.random.default_rng(seed)
        preds = rng.standard_normal((rows, n)) * rng.uniform(0.1, 3.0)
        val_y = rng.standard_normal(n)
        if shuffled:
            same = np.broadcast_to(preds[0], preds.shape)
            preds = np.ascontiguousarray(rng.permuted(same, axis=1))
            val_y[:] = val_y[0]
        # Ties: a repeated row must lose to its first copy.
        preds[rows // 2] = preds[0]
        reference = np.mean((np.clip(preds, -1.0, 1.0) - val_y) ** 2, axis=1)
        if fortran:
            preds = np.asfortranarray(preds)
        assert holdout_select(preds, val_y, M_clip=1.0) == int(np.argmin(reference))

    @pytest.mark.parametrize("bad_row", [0, 2])
    def test_rejects_non_finite_losses(self, bad_row):
        # A NaN prediction row used to win as index 0.
        preds = np.array([[0.0, 0.5], [1.0, 1.0], [0.2, 0.1]])
        preds[bad_row, 1] = np.nan
        with pytest.raises(InvalidInput, match="losses must be finite; iterate"):
            holdout_select(preds, [0.0, 1.0], M_clip=2.0)
        with pytest.raises(InvalidInput, match="losses must be finite; iterate"):
            holdout_select(np.zeros((3, 2)), [0.0, np.inf], M_clip=2.0)

    def test_rejects_empty_validation(self):
        with pytest.raises(InvalidInput, match="non-empty"):
            holdout_select(np.zeros((3, 0)), [], M_clip=1.0)

    def test_rejects_zero_candidate_rows(self):
        # numpy's argmin used to raise a bare ValueError on the empty loss list.
        with pytest.raises(InvalidInput, match="at least one candidate iterate"):
            holdout_select(np.zeros((0, 2)), [0.0, 1.0], M_clip=1.0)

    @pytest.mark.parametrize("M_clip", [0.0, -1.0, np.nan])
    def test_rejects_clip_that_is_not_positive(self, M_clip):
        with pytest.raises(InvalidInput, match="M_clip must be positive"):
            holdout_select(np.zeros((3, 2)), [0.0, 1.0], M_clip=M_clip)

    def test_rejects_mismatched_predictions(self):
        with pytest.raises(InvalidInput, match="do not fit 1 validation labels"):
            holdout_select(np.zeros((3, 2)), [0.0], M_clip=1.0)
        with pytest.raises(InvalidInput, match="shape"):
            holdout_select(np.zeros(3), [0.0, 1.0, 2.0], M_clip=1.0)

    def test_monotone_loss_transform_invariance(self):
        x, y, trace = self._fitted_trace(seed=5)
        rng = np.random.default_rng(11)
        val_x = rng.random(15)
        val_y = np.sin(2 * np.pi * val_x)
        got = holdout_select(self._predictions(trace, x, val_x), val_y, M_clip=3.0)
        cross = self.KERNEL.gram(val_x, x)
        losses = []
        for m in range(trace.m_last + 1):
            p = np.clip(cross @ trace.alphas[m] / x.size, -3.0, 3.0)
            losses.append(np.mean((p - val_y) ** 2))
        # argmin of any strictly increasing transform agrees
        assert int(np.argmin(np.sqrt(losses))) == got
