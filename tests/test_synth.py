import hashlib
import json
import math

import numpy as np
import pytest

from kernelcg import InvalidInput, synth
from kernelcg.harness import noise_from_dict
from kernelcg.synth import (
    GaussianBernstein,
    UniformBounded,
    draw_sample,
    eval_target,
    make_model,
    model_to_dict,
    padded_total,
    sample_to_dict,
)


def small_model(**overrides):
    base = dict(s=0.5, r=1.0, rho=1.0, truncation=200, noise=UniformBounded(M=1.0))
    base.update(overrides)
    return make_model(**base)


class TestMakeModel:
    def test_kappa_partial_sum_close_to_limit(self):
        # s = 1/2: kappa = 1 + 2 * sum j^-2 -> 1 + pi^2/3 as J grows
        model = make_model(s=0.5, r=1.0, rho=1.0, truncation=2000)
        assert model.kappa == pytest.approx(4.2890, abs=5e-4)
        limit = 1 + math.pi**2 / 3
        assert abs(model.kappa - limit) <= model.kernel.kappa_tail

    def test_source_norm_saturated(self):
        for profile in ("inverse_index", 1, 0):
            model = small_model(u_profile=profile)
            norm = float(np.linalg.norm(model.source_coeffs))
            assert norm == pytest.approx(model.kappa ** (-model.r) * model.rho, rel=1e-12)

    def test_target_coeffs_relation(self):
        model = small_model()
        expected = model.eigenvalues**model.r * model.source_coeffs
        assert np.array_equal(model.target_coeffs, expected)

    def test_one_hot_gives_single_cosine(self):
        model = small_model(u_profile=1)
        x = np.linspace(0, 1, 7)
        xi1 = 1.0  # first cosine eigenvalue is 1
        scale = model.kappa ** (-model.r) * model.rho
        expected = scale * xi1**model.r * np.sqrt(2) * np.cos(np.pi * x)
        assert eval_target(model, x) == pytest.approx(expected, rel=1e-12)

    def test_ed_constant_bounds_spectrum(self):
        model = small_model(truncation=2000)
        d = model.ed_constant
        assert d >= 1.0
        for k in range(7):
            lam = model.kappa * 10.0 ** (-k)
            n_lam = float(np.sum(model.eigenvalues / (model.eigenvalues + lam)))
            assert n_lam <= d**2 * (lam / model.kappa) ** (-model.s) + 1e-9

    def test_rejects_bad_params(self):
        with pytest.raises(InvalidInput):
            make_model(s=1.0, r=1.0, rho=1.0)
        with pytest.raises(InvalidInput):
            make_model(s=0.5, r=0.0, rho=1.0)
        with pytest.raises(InvalidInput, match="finite"):
            make_model(s=0.5, r=math.inf, rho=1.0)
        with pytest.raises(InvalidInput, match="finite"):
            make_model(s=0.5, r=1.0, rho=math.inf, noise=GaussianBernstein(1.0))
        # make_model's r=None and a noise law's M=None used to be a bare
        # TypeError; M=True was read as 1.
        with pytest.raises(InvalidInput, match="r must be positive and finite"):
            make_model(0.5, None, 1.0, 20)
        for noise in (UniformBounded, GaussianBernstein):
            for M in (math.inf, None, True):
                with pytest.raises(InvalidInput, match="finite"):
                    noise(M=M)
        with pytest.raises(InvalidInput):
            make_model(s=0.5, r=1.0, rho=1.0, truncation=5)
        # An infinite truncation used to raise a bare OverflowError.
        with pytest.raises(InvalidInput, match="truncation"):
            make_model(s=0.5, r=1.0, rho=1.0, truncation=math.inf)
        # None and "12" used to be a bare TypeError from `truncation < 10`.
        for truncation in (None, "12", 2.5, True):
            with pytest.raises(InvalidInput, match="truncation must be an integer"):
                make_model(s=0.5, r=1.0, rho=1.0, truncation=truncation)
        with pytest.raises(InvalidInput):
            small_model(u_profile="mystery")

    @pytest.mark.parametrize("index", [-1, 201])
    def test_one_hot_index_must_name_a_mode(self, index):
        # truncation 200 gives 201 modes, indices 0..200.
        with pytest.raises(InvalidInput, match="one-hot mode index"):
            small_model(u_profile=index)

    def test_uniform_noise_needs_headroom(self):
        # rho large enough pushes sup|f| past M = 1
        with pytest.raises(InvalidInput):
            small_model(rho=20.0)

    def test_sup_norm_is_a_bound(self):
        model = small_model()
        x = np.linspace(0, 1, 2001)
        assert np.max(np.abs(eval_target(model, x))) <= model.sup_f + 1e-12


class TestEvalTarget:
    def test_one_hot_cosine_zero_at_half(self):
        model = small_model(u_profile=1)
        assert eval_target(model, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_endpoint_series_sum(self):
        model = small_model()
        c = model.target_coeffs
        expected = c[0] + math.sqrt(2) * float(np.sum(c[1:]))
        assert eval_target(model, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_linear_in_source_scale(self):
        a = small_model(rho=0.5)
        b = small_model(rho=1.0)
        x = np.linspace(0, 1, 9)
        assert eval_target(b, x) == pytest.approx(2 * eval_target(a, x), rel=1e-12)

    def test_rejects_points_outside_interval(self):
        model = small_model()
        with pytest.raises(InvalidInput):
            eval_target(model, 1.5)
        with pytest.raises(InvalidInput):
            eval_target(model, [-0.1, 0.5])

    @pytest.mark.parametrize("x", [np.nan, [0.2, np.nan, 0.7], [np.nan, 1.5]])
    def test_rejects_nan_points(self, x):
        # NaN used to pass the range check and come back as a NaN value.
        with pytest.raises(InvalidInput, match="must lie in"):
            eval_target(small_model(), x)

    def test_scalar_in_scalar_out(self):
        model = small_model()
        out = eval_target(model, 0.25)
        assert isinstance(out, float)


class TestDrawSample:
    def test_deterministic_bit_exact(self):
        model = small_model()
        a = draw_sample(model, 50, seed=123)
        b = draw_sample(model, 50, seed=123)
        assert np.array_equal(a.X_labeled, b.X_labeled)
        assert np.array_equal(a.Y, b.Y)
        assert a.model_ref == b.model_ref

    def test_different_seeds_differ(self):
        model = small_model()
        a = draw_sample(model, 50, seed=1)
        b = draw_sample(model, 50, seed=2)
        assert not np.array_equal(a.Y, b.Y)

    def test_bounded_noise_keeps_response_in_range(self):
        model = small_model()
        sample = draw_sample(model, 2000, seed=7)
        assert np.max(np.abs(sample.Y)) <= model.noise.M

    def test_noiseless_limit_via_tiny_headroom(self):
        # shrink rho so the target is tiny, then noise dominates: the
        # complementary check is the pure-target evaluation below
        model = small_model()
        sample = draw_sample(model, 100, seed=3)
        f = eval_target(model, sample.X_labeled)
        eps = sample.Y - f
        half_width = model.noise.M - model.sup_f
        assert np.max(np.abs(eps)) <= half_width

    def test_noise_mean_law_of_large_numbers(self):
        model = small_model(noise=GaussianBernstein(M=1.0))
        sample = draw_sample(model, 1_000_000, seed=11)
        eps = sample.Y - eval_target(model, sample.X_labeled)
        sigma = model.noise_std
        assert sigma == pytest.approx(1 / math.sqrt(2), rel=1e-12)
        assert abs(float(np.mean(eps))) <= 3 * sigma / 1000

    def test_unlabeled_padding_shape_and_scale(self):
        model = make_model(
            s=0.5, r=0.25, rho=1.0, truncation=100, noise=UniformBounded(M=3.0)
        )
        n = 64
        sample = draw_sample(model, n, unlabeled=True, seed=5)
        total = padded_total(n, model.r, model.s)
        assert total >= math.ceil(n ** ((1 + 0.5) / (2 * 0.25 + 0.5)))
        assert sample.X_unlabeled.size == total - n
        assert sample.Y_padded.size == total
        assert sample.Y_padded[:n] == pytest.approx((total / n) * sample.Y, rel=1e-15)
        assert np.array_equal(sample.Y_padded[n:], np.zeros(total - n))

    def test_inner_params_padding_degenerates_to_n(self):
        model = small_model()  # r = 1: exponent (1+s)/(2r+s) = 0.6 < 1
        sample = draw_sample(model, 32, unlabeled=True, seed=9)
        assert sample.X_unlabeled.size == 0
        assert sample.Y_padded == pytest.approx(sample.Y)

    def test_rejects_bad_n(self):
        with pytest.raises(InvalidInput):
            draw_sample(small_model(), 0)

    @pytest.mark.parametrize("n", [2.5, True, "8", -3, math.inf])
    def test_rejects_n_that_is_not_a_positive_integer(self, n):
        # 2.5 and True used to reach numpy as a TypeError. padded_total used
        # to take 2.5 and True, and to raise a bare TypeError on "8" and -3 (a
        # complex power) and a bare OverflowError on inf.
        for call in (lambda: draw_sample(small_model(), n), lambda: padded_total(n, 0.25, 0.5)):
            with pytest.raises(InvalidInput, match="n must be a positive integer"):
                call()

    @pytest.mark.parametrize("seed", [-1, 2.5, True])
    def test_rejects_seed_that_is_not_a_nonnegative_integer(self, seed):
        # -1 used to reach numpy's Philox as a ValueError.
        with pytest.raises(InvalidInput, match="seed must be a nonnegative integer"):
            draw_sample(small_model(), 4, seed=seed)

    def test_accepts_numpy_integers(self):
        a = draw_sample(small_model(), np.int64(4), seed=np.uint64(7))
        assert np.array_equal(a.X_labeled, draw_sample(small_model(), 4, seed=7).X_labeled)


class TestSerialization:
    def test_model_roundtrip(self):
        # The model dict keeps only generating parameters; they regenerate it.
        model = small_model(u_profile=2, truncation=150)
        d = model_to_dict(model)
        again = make_model(
            s=d["s"], r=d["r"], rho=d["rho"], truncation=d["truncation"],
            noise=noise_from_dict(d["noise"]), u_profile=d["u_profile"],
        )
        assert np.array_equal(again.target_coeffs, model.target_coeffs)
        assert again.identifier() == model.identifier()

    def test_identifier_is_computed_once_per_model(self, monkeypatch):
        # Every draw stamps the identifier; the hash of the model's dict is
        # taken on first use and kept, and samples carry the same reference.
        model = small_model(truncation=60)
        payload = json.dumps(model_to_dict(model), sort_keys=True)
        expected = "mercer-" + hashlib.sha256(payload.encode()).hexdigest()[:12]
        assert draw_sample(model, 4, seed=1).model_ref == expected

        def fail(_model):
            raise AssertionError("identifier recomputed")

        monkeypatch.setattr(synth, "model_to_dict", fail)
        assert draw_sample(model, 4, seed=2).model_ref == expected
        assert model.identifier() == expected

    def test_model_dict_keys(self):
        # Generating parameters and derived scalars, nothing else.
        assert set(model_to_dict(small_model())) == {
            "s", "r", "rho", "truncation", "noise", "u_profile",
            "kappa", "kappa_tail", "sup_f", "ed_constant",
        }

    def test_sample_roundtrip(self):
        # JSON keeps every float of a sample bit for bit.
        sample = draw_sample(small_model(), 20, unlabeled=False, seed=42)
        again = json.loads(json.dumps(sample_to_dict(sample)))
        assert np.array_equal(again["X_labeled"], sample.X_labeled)
        assert np.array_equal(again["Y"], sample.Y)
        assert again["seed"] == 42
        assert again["rng"] == "numpy-philox-4x64"

    def test_dict_is_json_ready(self):
        model = small_model()
        s = json.dumps(model_to_dict(model), sort_keys=True)
        assert "uniform_bounded" in s
