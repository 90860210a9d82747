"""Tests for spectral error norms and effective dimension."""

from __future__ import annotations

import dataclasses
import inspect
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelcg import (
    EffectiveDimension,
    ErrorReport,
    InvalidInput,
    UniformBounded,
    draw_sample,
    effective_dimension,
    error_norm,
    estimator_spectrum,
    eval_target,
    make_model,
    spectral_error,
)
from reference import dense, quad

INNER = make_model(s=0.5, r=1.0, rho=1.0, truncation=60)
OUTER = make_model(
    s=0.5, r=0.25, rho=1.0, truncation=60, noise=UniformBounded(3.0)
)


def spectrum_matching_alpha(model, n=64, seed=5):
    """An alpha whose expansion reproduces the target coefficients.

    The coefficient map alpha -> c_hat is linear and underdetermined for
    n > J + 1, so least squares recovers an exact preimage up to rounding.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    x = rng.random(n)
    phi = model.kernel.basis(x)
    rhs = n * model.target_coeffs / model.eigenvalues
    alpha, *_ = np.linalg.lstsq(phi.T, rhs, rcond=None)
    return alpha, x


class TestEstimatorSpectrum:
    def test_zero_alpha_gives_zero_spectrum(self):
        x = np.linspace(0.05, 0.95, 7)
        c_hat = estimator_spectrum(np.zeros(7), x, INNER)
        assert c_hat.shape == INNER.eigenvalues.shape
        assert np.all(c_hat == 0.0)

    def test_single_atom_expansion(self):
        x0 = 0.37
        c_hat = estimator_spectrum([1.0], [x0], INNER)
        expected = INNER.eigenvalues * INNER.kernel.basis(np.array([x0]))[0]
        np.testing.assert_allclose(c_hat, expected, rtol=1e-14)

    def test_pointwise_reconstruction(self):
        # The expansion kernel is the truncated series itself, so summing
        # the recovered coefficients against the eigenfunctions must
        # reproduce the expansion through the Gram matrix with no truncation gap.
        sample = draw_sample(INNER, 40, seed=11)
        rng = np.random.Generator(np.random.Philox(99))
        alpha = rng.normal(0.0, 1.0, 40)
        c_hat = estimator_spectrum(alpha, sample.X_labeled, INNER)
        grid = np.linspace(0.0, 1.0, 200)
        direct = INNER.kernel.gram(grid, sample.X_labeled) @ alpha / 40
        via_spectrum = INNER.kernel.series(grid, c_hat)
        assert np.max(np.abs(direct - via_spectrum)) <= 1e-8

    def test_dimension_mismatch(self):
        # An empty design would divide 0 by 0.
        for alpha, points in (([1.0, 2.0], [0.5]), ([], [])):
            with pytest.raises(InvalidInput):
                estimator_spectrum(alpha, points, INNER)

    def test_linear_in_alpha(self):
        rng = np.random.Generator(np.random.Philox(31))
        x = rng.random(20)
        a, b = rng.normal(0.0, 1.0, (2, 20))
        combined = estimator_spectrum(2.0 * a - 3.0 * b, x, INNER)
        parts = 2.0 * estimator_spectrum(a, x, INNER) - 3.0 * estimator_spectrum(b, x, INNER)
        np.testing.assert_allclose(combined, parts, rtol=1e-12, atol=1e-15)


class TestErrorNorm:
    def test_zero_estimator_recovers_target_norm(self):
        x = np.linspace(0.1, 0.9, 9)
        report = error_norm(np.zeros(9), x, INNER, theta=0.0)
        expected = math.sqrt(float(np.sum(INNER.target_coeffs**2)))
        assert report.error_value == pytest.approx(expected, rel=1e-12)

    def test_perfect_spectral_match_is_zero(self):
        alpha, x = spectrum_matching_alpha(INNER)
        report = error_norm(alpha, x, INNER, theta=0.0)
        scale = math.sqrt(float(np.sum(INNER.target_coeffs**2)))
        assert report.error_value <= 1e-9 * scale

    def test_one_hot_target_half_norm_closed_form(self):
        # One-hot source concentrates everything on a single mode, so the
        # theta-weighted distance of the zero estimator collapses to a
        # single closed-form term.
        model = make_model(s=0.5, r=1.0, rho=1.0, truncation=30, u_profile=3)
        x = np.linspace(0.1, 0.9, 5)
        report = error_norm(np.zeros(5), x, model, theta=0.5)
        xi3 = model.eigenvalues[3]
        expected = xi3 ** (model.r - 0.5) * model.kappa ** (-model.r)
        assert report.error_value == pytest.approx(expected, rel=1e-12)

    def test_report_carries_theta_and_value_only(self):
        x = np.linspace(0.1, 0.9, 3)
        report = error_norm(np.ones(3), x, INNER, 0)
        assert report == ErrorReport(0.0, report.error_value)
        assert type(report.theta) is float
        assert [f.name for f in dataclasses.fields(ErrorReport)] == ["theta", "error_value"]
        assert list(inspect.signature(error_norm).parameters) == [
            "alpha", "train_points", "model", "theta"
        ]

    def test_empty_design_rejected(self):
        # Formerly 0/0 in the spectrum, reported as a nan error.
        with pytest.raises(InvalidInput):
            error_norm([], [], INNER, 0.0)

    def test_theta_range_checks(self):
        x = np.linspace(0.1, 0.9, 4)
        with pytest.raises(InvalidInput):
            error_norm(np.zeros(4), x, INNER, theta=-0.01)
        with pytest.raises(InvalidInput):
            error_norm(np.zeros(4), x, INNER, theta=0.51)
        # Low-smoothness targets only admit theta strictly below r.
        with pytest.raises(InvalidInput):
            error_norm(np.zeros(4), x, OUTER, theta=0.25)
        with pytest.raises(InvalidInput):
            error_norm(np.zeros(4), x, OUTER, theta=0.3)
        ok = error_norm(np.zeros(4), x, OUTER, theta=0.2)
        assert ok.error_value > 0.0

    def test_reversed_summation_agrees(self):
        rng = np.random.Generator(np.random.Philox(23))
        x = rng.random(25)
        alpha = rng.normal(0.0, 1.0, 25)
        for theta in (0.0, 0.25, 0.5):
            c_hat = estimator_spectrum(alpha, x, INNER)
            delta = c_hat - INNER.target_coeffs
            mask = delta != 0.0
            terms = INNER.eigenvalues[mask] ** (-2 * theta) * delta[mask] ** 2
            forward = math.fsum(terms)
            backward = math.fsum(terms[::-1])
            assert backward == pytest.approx(forward, rel=1e-12)
            report = error_norm(alpha, x, INNER, theta=theta)
            assert report.error_value**2 == pytest.approx(forward, rel=1e-12)

    def test_spectral_error_is_error_norm_of_the_spectrum(self):
        rng = np.random.Generator(np.random.Philox(29))
        x = rng.random(30)
        alpha = rng.normal(0.0, 1.0, 30)
        c_hat = estimator_spectrum(alpha, x, INNER)
        for theta in (0.0, 0.25, 0.5):
            report = error_norm(alpha, x, INNER, theta=theta)
            assert spectral_error(c_hat, INNER, theta) == report.error_value
        assert spectral_error(INNER.target_coeffs, INNER, 0.5) == 0.0
        with pytest.raises(InvalidInput):
            spectral_error(c_hat[:-1], INNER, 0.0)
        with pytest.raises(InvalidInput):
            spectral_error(c_hat, OUTER, 0.25)

    def test_h_norm_matches_quadratic_form(self):
        # theta = 1/2 distance to the zero function is the H-norm of the
        # expansion, which the Gram quadratic form computes independently.
        sample = draw_sample(INNER, 35, seed=41)
        K = dense(INNER.kernel, sample.X_labeled)
        rng = np.random.Generator(np.random.Philox(42))
        alpha = rng.normal(0.0, 1.0, 35)
        c_hat = estimator_spectrum(alpha, sample.X_labeled, INNER)
        spectral_sq = math.fsum(c_hat**2 / INNER.eigenvalues)
        quadratic_sq = quad(alpha, alpha, K)
        assert spectral_sq == pytest.approx(quadratic_sq, rel=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_identity_reversal_property(self, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        x = rng.random(12)
        alpha = rng.normal(0.0, 2.0, 12)
        c_hat = estimator_spectrum(alpha, x, INNER)
        delta = c_hat - INNER.target_coeffs
        mask = delta != 0.0
        terms = INNER.eigenvalues[mask] ** (-1.0) * delta[mask] ** 2
        assert math.fsum(terms[::-1]) == pytest.approx(
            math.fsum(terms), rel=1e-12
        )


class TestEffectiveDimension:
    def test_quadratic_decay_closed_form(self):
        # For eigenvalues j**-2 at lambda = 1 the series sums to
        # (pi*coth(pi) - 1)/2; the truncated sum must bracket it together
        # with the integral tail bound.
        closed = (math.pi / math.tanh(math.pi) - 1.0) / 2.0
        j = np.arange(1, 2001, dtype=float)
        ed = effective_dimension(j**-2.0, 1.0, tail_decay=2.0, tail_from=2000)
        assert ed.truncated_sum <= closed <= ed.value
        assert ed.tail_bound < 1e-3
        assert ed.value == pytest.approx(closed, abs=ed.tail_bound)

    def test_tail_far_below_the_knee_is_the_complete_integral_less_t0(self):
        # lam * t0**d = 1.6e-9, so the integrand is 1 to that accuracy on
        # [0, t0]: the tail is the complete integral minus t0 up to ~1e-17.
        d, lam, t0 = 1.2, 1e-10, 10
        ed = effective_dimension(np.arange(1, 11.0) ** -d, lam, tail_decay=d, tail_from=t0)
        exact = lam ** (-1 / d) * (math.pi / d) / math.sin(math.pi / d) - t0
        assert ed.tail_bound == pytest.approx(exact, rel=1e-9)

    @pytest.mark.parametrize("a", [1e-3, 0.5, 1 - 1e-9, 1 + 1e-9, 7.0, 1e4])
    @pytest.mark.parametrize("lam", [1e-10, 1e-2, 1.0, 1e3])
    def test_quadratic_tail_matches_arctan(self, lam, a):
        # d = 2: the integral of 1/(1 + lam t**2) over [t0, inf) is
        # atan(1/(sqrt(lam) t0))/sqrt(lam); a = sqrt(lam) t0 splits the two branches.
        t0 = a / math.sqrt(lam)
        tail = effective_dimension([1.0], lam, tail_decay=2.0, tail_from=t0).tail_bound
        assert tail == pytest.approx(math.atan(1.0 / a) / math.sqrt(lam), rel=1e-12)

    @pytest.mark.parametrize("a", [1e-3, 0.5, 1 - 1e-9, 1 + 1e-9, 2.0, 10.0])
    @pytest.mark.parametrize("lam", [1e-10, 1.0, 1e3])
    def test_cubic_tail_matches_antiderivative(self, lam, a):
        # The integral of 1/(1 + v**3) over [a, inf), from the elementary
        # antiderivative log(1+v)/3 - log(v*v - v + 1)/6 + atan((2v-1)/sqrt(3))/sqrt(3).
        r3 = math.sqrt(3.0)
        tail_v = (
            math.atan2(r3, 2 * a - 1) / r3
            - math.log1p(3 * a / (a * a - a + 1)) / 6
        )
        t0 = a * lam ** (-1 / 3)
        tail = effective_dimension([1.0], lam, tail_decay=3.0, tail_from=t0).tail_bound
        assert tail == pytest.approx(lam ** (-1 / 3) * tail_v, rel=1e-12)

    @pytest.mark.parametrize("d", [1.2, 4 / 3, 1.5, 3.0, 4.0])
    @pytest.mark.parametrize("lam", [1e-6, 1.0, 1e3])
    def test_tail_from_near_zero_is_the_complete_integral(self, d, lam):
        tail = effective_dimension([1.0], lam, tail_decay=d, tail_from=1e-300).tail_bound
        complete = lam ** (-1 / d) * (math.pi / d) / math.sin(math.pi / d)
        assert tail == pytest.approx(complete, rel=1e-12)

    @pytest.mark.parametrize("d", [1.05, 1.2, 4 / 3, 2.0, 2.5, 4.0])
    def test_tail_is_continuous_where_the_branches_meet(self, d):
        lam = 1e-4
        below, above = (
            effective_dimension([1.0], lam, tail_decay=d, tail_from=a * lam ** (-1 / d)).tail_bound
            for a in (1 - 1e-12, 1 + 1e-12)
        )
        assert below == pytest.approx(above, rel=1e-11)

    def test_tail_bound_needs_no_scipy(self):
        script = (
            "import sys; sys.modules['scipy'] = None\n"
            "from kernelcg import effective_dimension\n"
            "print(effective_dimension([1.0], 1.0, tail_decay=4 / 3, tail_from=2).tail_bound)"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        here = effective_dimension([1.0], 1.0, tail_decay=4 / 3, tail_from=2)
        assert float(proc.stdout) == here.tail_bound > 0.0

    def test_single_eigenvalue_balance_point(self):
        ed = effective_dimension([0.7], 0.7)
        assert ed.truncated_sum == pytest.approx(0.5, rel=1e-15)
        assert ed.tail_bound == 0.0

    def test_dominated_limit(self):
        xi = INNER.eigenvalues
        lam = 1e6 * INNER.kappa
        ed = effective_dimension(xi, lam)
        assert ed.value <= float(np.sum(xi)) / lam * (1.0 + 1e-12)

    def test_strictly_decreasing_in_lambda(self):
        xi = INNER.eigenvalues
        lams = np.logspace(-4, 2, 13)
        values = [effective_dimension(xi, lam).value for lam in lams]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_upper_bounds(self):
        xi = OUTER.eigenvalues
        trace = float(np.sum(xi))
        for lam in (1e-3, 1e-1, 1.0, 10.0):
            ed = effective_dimension(xi, lam)
            assert ed.truncated_sum <= min(xi.size, trace / lam) * (1 + 1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInput):
            effective_dimension([1.0], 0.0)
        with pytest.raises(InvalidInput):
            effective_dimension([1.0], -1.0)
        with pytest.raises(InvalidInput):
            effective_dimension([], 1.0)
        with pytest.raises(InvalidInput):
            effective_dimension([1.0], 1.0, tail_decay=2.0)

    @pytest.mark.parametrize("tail", [None, 2.0], ids=["no_tail", "tail"])
    @pytest.mark.parametrize("lam", [np.inf, np.nan, "1"])
    def test_rejects_non_finite_lambda(self, lam, tail):
        # inf used to return 0.0 without a tail and raise ZeroDivisionError with
        # one; "1" was a bare TypeError.
        with pytest.raises(InvalidInput, match="lambda must be positive and finite"):
            effective_dimension([1.0, 0.5], lam, tail_decay=tail, tail_from=3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_eigenvalues(self, bad):
        # A NaN eigenvalue used to give a NaN sum.
        with pytest.raises(InvalidInput, match="eigenvalues must be finite"):
            effective_dimension([1.0, bad, 0.25], 1.0)

    def test_rejects_negative_eigenvalue(self):
        # [-1.0] at lam = 1.0 used to divide by zero.
        with pytest.raises(InvalidInput, match="eigenvalues must be finite and nonnegative"):
            effective_dimension([-1.0], 1.0)

    @pytest.mark.parametrize(
        "tail_decay, tail_from, message",
        [
            (2.0, 0, "tail_from must be positive"),
            (1.0, 3, "tail_decay must exceed 1"),
            # An infinite decay used to raise ZeroDivisionError from 0.5 on
            # and to return a NaN tail bound from 3 on.
            (np.inf, 0.5, "tail_decay must exceed 1 and be finite"),
            (np.inf, 3, "tail_decay must exceed 1 and be finite"),
        ],
    )
    def test_rejects_bad_tail(self, tail_decay, tail_from, message):
        with pytest.raises(InvalidInput, match=message):
            effective_dimension([1.0, 0.5], 1.0, tail_decay=tail_decay, tail_from=tail_from)
