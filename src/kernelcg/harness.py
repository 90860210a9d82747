"""Rate-sweep experiments over an n-grid with seeded replicates.

Runs the solver plus a stopping rule across sample sizes, aggregates
replicate medians, fits log-log slopes, and compares them with the
theoretical exponents. Also houses the solver comparison (weighted CG
vs. plain-residual CG vs. ridge on a lambda grid). Both run one replicate
loop, ``_sweep``, and return one ``SweepReport``: records plus the summary
dict; ``render_report`` turns a report into the text of its artifacts.

Error columns everywhere hold SQUARED distances, so fitted slopes are
comparable with the exponent -2(r - theta)/(2r + s).
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial

import numpy as np

from .errors import InvalidInput, NumericalFailure, finite_number, whole_number
from .evaluation import ERROR_FLOOR, spectral_error
from .kernels import GramSystem
from .solvers import CgTrace, gram_fit, lanczos_paths
from .stopping import (
    TAU_PRIME_FLOOR_INNER,
    TAU_PRIME_FLOOR_OUTER,
    ThresholdParams,
    discrepancy_stop,
    holdout_select,
    threshold_calibrated,
    threshold_inner,
    threshold_outer,
)
from .synth import (
    GaussianBernstein,
    MercerModel,
    NoiseSpec,
    Sample,
    UniformBounded,
    draw_sample,
    make_model,
    noise_to_dict,
)

#: Iteration cap for hold-out traces: the validation curve bottoms out
#: within a few dozen iterations at desk scale, and full-length traces
#: on the largest grids would dominate the runtime.
HOLDOUT_MAX_ITER = 64

#: Iteration budget of ``compare``'s plain-residual (kernel PLS) iterates.
COMPARE_MAX_ITER = 64

#: Number of ridge penalties in the comparison grid (log-spaced).
RIDGE_GRID_SIZE = 20


# --- configuration -----------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one rate experiment.

    The JSON form documented in the README mirrors these fields, with the
    model parameters nested under "model" and the hold-out fraction under
    "stopping". ``__post_init__`` reads and checks every field, whether the
    config comes from ``from_dict`` or this constructor; a bad value is an
    InvalidInput naming its JSON path. Last it builds the model (``make_model``
    checks it), so a config that loads runs. ``r`` decides the regime.
    """

    s: float
    r: float
    rho: float
    J: int
    noise: NoiseSpec
    n_grid: tuple[int, ...]
    replicates: int
    gamma: float
    tau_prime: float
    theta_list: tuple[float, ...]
    master_seed: int
    holdout_fraction: float | None = None  # None: the discrepancy rule
    threshold: str = "calibrated"
    u_profile: str | int = "inverse_index"
    _model: MercerModel = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name, (path, read) in _READERS.items():
            object.__setattr__(self, name, _field(path, partial(read, path), getattr(self, name)))
        if not isinstance(self.noise, NoiseSpec):
            raise InvalidInput(
                f"config field 'model.noise' is invalid ({self.noise!r}): not a noise spec"
            )
        grid = self.n_grid
        if len(grid) < 2:
            raise InvalidInput("n_grid needs at least 2 points")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise InvalidInput(f"n_grid must be strictly increasing, got {grid}")
        if grid[0] < 1:
            raise InvalidInput(f"n_grid entries must be positive, got {grid}")
        if self.replicates < 1:
            raise InvalidInput(f"replicates must be >= 1, got {self.replicates}")
        if not 0.0 < self.gamma < 1.0:
            raise InvalidInput(f"gamma must lie in (0, 1), got {self.gamma}")
        if not self.tau_prime > 0:
            raise InvalidInput(f"tau_prime must be positive, got {self.tau_prime}")
        thetas = self.theta_list
        if not thetas:
            raise InvalidInput("theta_list must be non-empty")
        for t in thetas:
            if not 0.0 <= t <= 0.5:
                raise InvalidInput(f"theta_list entries must lie in [0, 1/2], got {t}")
        # Each names a plot file; + 0.0 reads -0.0 as 0.0, as the file name should.
        if len({f"{t + 0.0:g}" for t in thetas}) < len(thetas):
            raise InvalidInput(f"theta_list entries must be distinct to 6 digits: {thetas}")
        outer = self.regime == "outer"
        if outer:
            if self.r + self.s < 0.5:
                raise InvalidInput(
                    f"outer regime requires r + s >= 1/2, got {self.r + self.s}"
                )
            if max(thetas) >= self.r:
                raise InvalidInput(
                    f"outer regime requires theta < r, got theta={max(thetas)}, r={self.r}"
                )
        f = self.holdout_fraction
        if f is not None:
            if outer:
                raise InvalidInput(
                    "holdout stopping is not defined for the outer regime: "
                    "the padded responses are rescaled and zero-filled"
                )
            if not 0.0 < f < 1.0:
                raise InvalidInput(
                    f"holdout stopping needs holdout_fraction in (0, 1), got {f}"
                )
            # n - n_val never decreases with n, so the smallest grid point decides.
            if _n_val(f, grid[0]) >= grid[0]:
                raise InvalidInput(
                    f"holdout fraction {f} leaves no training data at n={grid[0]}"
                )
        if self.threshold not in ("calibrated", "literal"):
            raise InvalidInput(
                f"threshold must be 'calibrated' or 'literal', got {self.threshold!r}"
            )
        floor = TAU_PRIME_FLOOR_OUTER if outer else TAU_PRIME_FLOOR_INNER
        if self.threshold == "literal" and not self.tau_prime > floor:
            raise InvalidInput(
                f"literal threshold requires tau_prime > {floor:g}, got {self.tau_prime}"
            )
        model = make_model(self.s, self.r, self.rho, self.J, self.noise, self.u_profile)
        object.__setattr__(self, "_model", model)

    @property
    def regime(self) -> str:
        """'inner' when r >= 1/2 puts the target in the RKHS, else 'outer'."""
        return _regime(self.r)

    def model(self) -> MercerModel:
        """The model every replicate of this config draws from, built once."""
        return self._model

    def to_dict(self) -> dict:
        model: dict = {
            "s": self.s,
            "r": self.r,
            "rho": self.rho,
            "J": self.J,
            "noise": noise_to_dict(self.noise),
        }
        if self.u_profile != "inverse_index":
            model["u_profile"] = self.u_profile
        stopping: object = "discrepancy"
        if self.holdout_fraction is not None:
            stopping = {"kind": "holdout", "fraction": self.holdout_fraction}
        out = {
            "model": model,
            "regime": self.regime,
            "n_grid": list(self.n_grid),
            "replicates": self.replicates,
            "gamma": self.gamma,
            "tau_prime": self.tau_prime,
            "theta_list": list(self.theta_list),
            "master_seed": self.master_seed,
            "stopping": stopping,
        }
        if self.threshold != "calibrated":
            out["threshold"] = self.threshold
        return out

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        """Map a JSON config onto the fields; ``__post_init__`` reads the values."""
        if not isinstance(d, dict):
            raise InvalidInput("config must be a JSON object")
        numbers = {"n_grid", "replicates", "gamma", "tau_prime", "theta_list", "master_seed"}
        _check_keys(d, "config", numbers | {"model"}, {"regime", "stopping", "threshold"})
        model = d["model"]
        if not isinstance(model, dict):
            raise InvalidInput("config field 'model' must be an object")
        _check_keys(model, "model", {"s", "r", "rho", "J", "noise"}, {"u_profile"})
        # Before the outer-regime checks, so a stated regime that r contradicts is named.
        if "regime" in d and d["regime"] != _field("model.r", _regime, model["r"]):
            raise InvalidInput(
                f"config field 'regime' is {d['regime']!r}, but r={model['r']!r} decides it: "
                "r >= 1/2 is 'inner', r < 1/2 is 'outer'"
            )
        stopping = d.get("stopping", "discrepancy")
        holdout_fraction = None
        if isinstance(stopping, dict):
            if stopping.get("kind") != "holdout":
                raise InvalidInput(
                    "config field 'stopping' object must have kind='holdout'"
                )
            _check_keys(stopping, "stopping", {"kind"}, {"fraction"})
            if stopping.get("fraction") is None:  # null would read as discrepancy
                raise InvalidInput("stopping field 'fraction' is required for holdout")
            holdout_fraction = stopping["fraction"]
        elif stopping != "discrepancy":
            raise InvalidInput(
                f"config field 'stopping' must be 'discrepancy' or a holdout object, "
                f"got {stopping!r}"
            )
        return ExperimentConfig(
            s=model["s"],
            r=model["r"],
            rho=model["rho"],
            J=model["J"],
            noise=_field("model.noise", noise_from_dict, model["noise"]),
            n_grid=d["n_grid"],
            replicates=d["replicates"],
            gamma=d["gamma"],
            tau_prime=d["tau_prime"],
            theta_list=d["theta_list"],
            master_seed=d["master_seed"],
            holdout_fraction=holdout_fraction,
            threshold=d.get("threshold", "calibrated"),
            u_profile=model.get("u_profile", "inverse_index"),
        )


def _regime(r: float) -> str:
    """The regime ``r`` puts a target in: the RKHS holds it when r >= 1/2."""
    return "inner" if r >= 0.5 else "outer"


def _check_keys(obj: dict, what: str, required: set, optional: set) -> None:
    """Refuse keys of config object ``what`` that are unknown or missing."""
    unknown = set(obj) - required - optional
    if unknown:
        raise InvalidInput(f"unknown {what} field(s): {', '.join(sorted(unknown))}")
    missing = required - set(obj)
    if missing:
        raise InvalidInput(f"missing {what} field(s): {', '.join(sorted(missing))}")


def _n_val(fraction: float, n: int) -> int:
    """Validation points a hold-out split of ``n`` points keeps: at least one."""
    return max(1, round(fraction * n))


def _field(name: str, convert, value):
    """``convert(value)``; a malformed value is an InvalidInput naming field ``name``."""
    try:
        return convert(value)
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise InvalidInput(f"config field {name!r} is invalid ({value!r}): {exc}") from exc


#: A finite JSON number as a float; the range checks come after the read.
_real = partial(finite_number, positive=False)


def noise_from_dict(d: dict) -> NoiseSpec:
    """The noise law of a config's ``model.noise`` object: its kind and bound M."""
    kind = d.get("kind")
    law = {"uniform_bounded": UniformBounded, "gaussian_bernstein": GaussianBernstein}
    if kind not in law:
        raise InvalidInput(f"unknown noise kind {kind!r}")
    _check_keys(d, "model.noise", {"kind", "M"}, set())
    return law[kind](M=_real("M", d["M"]))


#: JSON path and reader ``read(path, value)`` of each field that holds numbers,
#: in field order. Integers come without a bound: the range checks follow.
_READERS = dict(
    s=("model.s", _real),
    r=("model.r", _real),
    rho=("model.rho", _real),
    J=("model.J", whole_number),
    n_grid=("n_grid", lambda p, v: tuple(whole_number(p, x) for x in v)),
    replicates=("replicates", whole_number),
    gamma=("gamma", _real),
    tau_prime=("tau_prime", _real),
    theta_list=("theta_list", lambda p, v: tuple(_real(p, x) for x in v)),
    master_seed=("master_seed", whole_number),
    holdout_fraction=("stopping.fraction", lambda p, v: None if v is None else _real(p, v)),
    u_profile=("model.u_profile", lambda p, v: v if v == "inverse_index" else whole_number(p, v)),
)


def canonical_json(obj) -> str:
    """Deterministic JSON serialization: sorted keys, two-space indent."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    """Hex digest identifying the configuration for provenance stamps."""
    return hashlib.sha256(canonical_json(cfg.to_dict()).encode()).hexdigest()


def derive_seed(master_seed: int, n: int, rep: int) -> int:
    """Per-replicate seed: first 8 bytes of sha256 over 'master:n:rep', each read as
    an integer first (``whole_number``; n >= 1, rep >= 0), so rep=1.0 is rep 1."""
    master_seed = whole_number("master_seed", master_seed)
    n, rep = whole_number("n", n, 1), whole_number("rep", rep, 0)
    digest = hashlib.sha256(f"{master_seed}:{n}:{rep}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# --- results -----------------------------------------------------------------


@dataclass(frozen=True)
class RunRecord:
    """One replicate at one theta; mirrors the CSV column order."""

    regime: str
    n: int
    rep: int
    theta: float
    error: float  # squared distance at the stopped iterate
    m_hat: int
    omega: float | None  # None under hold-out stopping
    seed: int


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    residual: float  # sum of squared log-scale OLS residuals


@dataclass(frozen=True)
class SweepReport:
    """What ``run_experiment`` or ``compare_solvers`` reports.

    ``records`` holds one ``record_type`` per CSV row; the class names the
    columns, also when every replicate failed. ``summary`` is the dict the
    summary JSON holds: provenance, ``incomplete`` and ``failures``, plus the
    sweep's aggregates as plain entries (``per_point`` and ``slopes`` of a
    rate sweep, ``lambda_grid`` and ``medians`` of the comparison).
    """

    record_type: type
    records: tuple
    summary: dict


def fit_loglog_slope(ns, errors) -> SlopeFit:
    """Ordinary least squares of log(error) on log(n).

    Non-positive errors cannot be logged; they are clamped to the spectral
    resolution floor with a warning, since an exactly-zero measured error
    only means the exact norm bottomed out. Sample sizes that are not
    positive and finite, and non-finite errors, are an InvalidInput.
    """
    ns = np.asarray(ns, dtype=float).ravel()
    errors = np.asarray(errors, dtype=float).ravel()
    if ns.size != errors.size:
        raise InvalidInput(
            f"length mismatch: {ns.size} sample sizes vs {errors.size} errors"
        )
    if ns.size < 2:
        raise InvalidInput("slope fit needs at least 2 grid points")
    if not np.all((ns > 0.0) & (ns < np.inf)):  # NaN fails both
        raise InvalidInput(f"sample sizes must be positive and finite, got {ns.tolist()}")
    if not np.all(np.isfinite(errors)):
        raise InvalidInput(f"errors must be finite, got {errors.tolist()}")
    if np.any(errors <= 0.0):
        warnings.warn(
            "non-positive errors clamped to the spectral floor before log-log fit",
            stacklevel=2,
        )
        errors = np.where(errors <= 0.0, ERROR_FLOOR, errors)
    x = np.log(ns)
    y = np.log(errors)
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sum((y - (slope * x + intercept)) ** 2))
    return SlopeFit(slope=float(slope), intercept=float(intercept), residual=resid)


def _threshold_for(cfg: ExperimentConfig, n: int) -> float:
    model = cfg.model()
    n_ref = float(np.exp(np.mean(np.log(np.asarray(cfg.n_grid, dtype=float)))))
    trace_k = float(np.sum(model.eigenvalues))
    params = ThresholdParams(
        M=model.noise.M, kappa=model.kappa, D=model.ed_constant, n=n, gamma=cfg.gamma,
        r=model.r, s=model.s, tau_prime=cfg.tau_prime, rho=model.rho,
    )
    if cfg.threshold == "calibrated":
        return threshold_calibrated(params, model.noise_std, trace_k, n_ref).omega
    if cfg.regime == "inner":
        return threshold_inner(params).omega
    return threshold_outer(params).omega


def _squared_error(spectrum, model: MercerModel, theta: float) -> float:
    err = spectral_error(spectrum, model, theta)
    return err * err


@dataclass(frozen=True)
class ReplicateFit:
    """One seeded replicate of ``model``: its Gram system, CG trace, stop index and estimator.

    ``system`` is what CG ran on: the (J+1) x (J+1) Gram system of the
    factor B = Phi * scale, with scale = sqrt(xi / system.n) over the design
    points (labeled plus unlabeled with padded responses in the outer regime,
    only the training part of the split under hold-out stopping). The rows of
    ``trace`` are c_m = B.T alpha_m under either stopping rule, and
    ``spectrum`` = scale * c_m_hat holds the stopped estimator's
    coefficients on the model's eigenfunctions, which fix every error norm.
    ``omega`` is the discrepancy threshold, None under hold-out stopping.
    """

    model: MercerModel
    n: int
    rep: int
    seed: int
    system: GramSystem
    trace: CgTrace
    m_hat: int
    omega: float | None
    scale: np.ndarray

    @property
    def spectrum(self) -> np.ndarray:
        return self.scale * self.trace.alphas[self.m_hat]

    def squared_error(self, theta: float) -> float:
        """Squared theta-norm distance of the stopped estimator from the target."""
        return _squared_error(self.spectrum, self.model, theta)


def draw_replicate(cfg: ExperimentConfig, n: int, rep: int) -> Sample:
    """Replicate ``rep`` of ``cfg.model()`` at sample size ``n``, seeded by ``derive_seed``;
    in the outer regime it adds the unlabeled points of the padded design."""
    seed = derive_seed(cfg.master_seed, n, rep)
    return draw_sample(cfg.model(), n, unlabeled=cfg.regime == "outer", seed=seed)


def fit_replicate(cfg: ExperimentConfig, n: int, rep: int) -> ReplicateFit:
    """Draw replicate ``rep`` at sample size ``n`` (``draw_replicate``), run CG and stop it.

    ``cfg.holdout_fraction`` picks the rule: None for the discrepancy
    principle, else hold-out on that share of the points. The design enters
    through its cosine moments, which give the Gram system G = B.T B,
    b = B.T y (``GramSystem.from_design``) without the basis, and both rules
    run ``gram_fit`` on it. Under the discrepancy rule the run ends inside
    the loop at the stop index, so the trace holds ``m_hat + 1`` iterates.
    Under hold-out it runs up to ``HOLDOUT_MAX_ITER`` steps, and
    ``holdout_select`` picks among the validation predictions of the spectra
    scale * c_m, summed by ``MercerKernel.series``. Raises
    InvalidInput when the hold-out split leaves no training data at this
    ``n``, and NumericalFailure from the solver.
    """
    n, rep = whole_number("n", n, 1), whole_number("rep", rep, 0)
    model = cfg.model()
    sample = draw_replicate(cfg, n, rep)
    if cfg.regime == "outer":
        x = np.concatenate([sample.X_labeled, sample.X_unlabeled])
        y = sample.Y_padded
    else:
        x, y = sample.X_labeled, sample.Y
    holdout = cfg.holdout_fraction is not None
    if holdout:
        n_val = _n_val(cfg.holdout_fraction, n)
        if n_val >= n:
            raise InvalidInput(
                f"holdout fraction {cfg.holdout_fraction} leaves no training data at n={n}"
            )
        x, x_val = x[: n - n_val], x[n - n_val :]
        y, y_val = y[: n - n_val], y[n - n_val :]

    system = GramSystem.from_design(model.kernel, x, y)
    scale = np.sqrt(model.eigenvalues / x.size)
    if holdout:
        omega = None
        trace = gram_fit(system, max_iter=HOLDOUT_MAX_ITER)
        predictions = model.kernel.series(x_val, trace.alphas * scale)
        m_hat = holdout_select(predictions, y_val, model.noise.M)
    else:
        omega = _threshold_for(cfg, n)
        trace = gram_fit(system, omega=omega)
        m_hat = discrepancy_stop(trace, omega)
    return ReplicateFit(model, n, rep, sample.seed, system, trace, m_hat, omega, scale)


def _sweep(cfg: ExperimentConfig, records) -> tuple[list, list[str]]:
    """Fit every replicate of the n-grid and collect the rows ``records(fit)`` returns.

    A replicate that fails numerically, in either call, adds a failure line
    instead; each fit is released before the next replicate draws.
    """
    rows: list = []
    failures: list[str] = []
    for n in cfg.n_grid:
        for rep in range(cfg.replicates):
            try:
                rows.extend(records(fit_replicate(cfg, n, rep)))
            except NumericalFailure as exc:
                failures.append(
                    f"n={n} rep={rep} seed={derive_seed(cfg.master_seed, n, rep)}: {exc}"
                )
    return rows, failures


def _median(values) -> float:
    """Median of a non-empty sequence, bit for bit as numpy's.

    Aggregation sorts: numpy's median and percentile import numpy.ma on first
    use, about 18 ms of every fresh ``rates``, ``holdout`` or ``compare``.
    """
    v = sorted(values)
    h = len(v) // 2
    if len(v) % 2:
        return float(v[h])
    return (float(v[h - 1]) + float(v[h])) / 2


def _quantile(values, t: float) -> float:
    """t-quantile of a non-empty sequence, bit for bit as numpy's percentile at 100 t."""
    v = sorted(values)
    pos = (len(v) - 1) * t
    i = int(pos)
    a, b = float(v[i]), float(v[min(i + 1, len(v) - 1)])
    g = pos - i
    return b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g


def _report(cfg: ExperimentConfig, record_type: type, rows, failures, **entries) -> SweepReport:
    """The report of a sweep: its summary is ``entries`` plus the provenance and
    failure keys every summary shares."""
    summary = {
        "config_hash": config_hash(cfg),
        "master_seed": cfg.master_seed,
        "incomplete": bool(failures),
        "failures": failures,
        **entries,
    }
    return SweepReport(record_type, tuple(rows), summary)


def run_experiment(cfg: ExperimentConfig) -> SweepReport:
    """Sweep the n-grid with seeded replicates and fit log-log slopes.

    The summary holds one ``per_point`` entry per (n, theta) with surviving
    replicates (median and quartiles of the squared error, median stop
    index) and one ``slopes`` entry per theta with at least 2 such points.
    Replicates that fail numerically, and thetas left without a slope, are
    listed in ``failures``, which flags the report incomplete.
    """

    def records(fit: ReplicateFit) -> list[RunRecord]:
        return [
            RunRecord(cfg.regime, fit.n, fit.rep, theta, fit.squared_error(theta),
                      fit.m_hat, fit.omega, fit.seed)
            for theta in cfg.theta_list
        ]

    rows, failures = _sweep(cfg, records)

    per_point = []
    for n in cfg.n_grid:
        for theta in cfg.theta_list:
            group = [r for r in rows if r.n == n and r.theta == theta]
            if not group:
                continue
            errs = [r.error for r in group]
            per_point.append({
                "n": n, "theta": theta, "median_error": _median(errs),
                "iqr_low": _quantile(errs, 0.25), "iqr_high": _quantile(errs, 0.75),
                "median_m_hat": _median([r.m_hat for r in group]),
            })

    slopes = []
    for theta in cfg.theta_list:
        stats = [p for p in per_point if p["theta"] == theta]
        theo = -2.0 * (cfg.r - theta) / (2.0 * cfg.r + cfg.s)
        if len(stats) < 2:
            failures.append(f"theta={theta}: fewer than 2 grid points survived")
            continue
        fit = fit_loglog_slope([p["n"] for p in stats], [p["median_error"] for p in stats])
        slopes.append({
            "theta": theta, **asdict(fit), "theoretical_exponent": theo,
            "slope_gap": fit.slope - theo, "n_points": len(stats),
        })

    return _report(
        cfg, RunRecord, rows, failures, regime=cfg.regime, per_point=per_point, slopes=slopes
    )


# --- solver comparison -------------------------------------------------------


@dataclass(frozen=True)
class CompareRecord:
    n: int
    rep: int
    seed: int
    cg_m_hat: int
    cg_error: float
    cgme_m: int
    cgme_error: float
    cgme_matched: bool
    ridge_lambda: float
    ridge_error: float


#: CompareRecord fields whose replicate median ``compare_summary.json`` reports.
_COMPARE_MEDIANS = ("cg_m_hat", "cg_error", "cgme_m", "cgme_error", "ridge_error")


def compare_solvers(cfg: ExperimentConfig) -> SweepReport:
    """Weighted CG vs. plain-residual CG vs. ridge on identical samples.

    The weighted run is ``fit_replicate``'s under the discrepancy rule, whatever
    ``cfg.holdout_fraction`` says, so its errors equal the rate sweep's. The
    plain-residual (kernel PLS) iterates and the ridge grid come from one
    Lanczos run on that fit's Gram system (``lanczos_paths``), with no basis.
    Reported are the first plain iterate as accurate as the weighted stop (or
    the best within ``COMPARE_MAX_ITER`` when none is) and ridge's best penalty
    on a log-spaced grid, with squared errors as in ``ReplicateFit.squared_error``.
    The summary holds the ``lambda_grid`` and one ``medians`` row per n with
    surviving replicates; failures are kept as in ``run_experiment``.
    """
    model = cfg.model()
    discrepancy_cfg = replace(cfg, holdout_fraction=None)
    lam_grid = (model.kappa * np.logspace(-6.0, 0.0, RIDGE_GRID_SIZE)).tolist()

    def records(fit: ReplicateFit) -> list[CompareRecord]:
        cg_error = fit.squared_error(0.0)
        sq = lambda c: _squared_error(fit.scale * c, model, 0.0)

        ridge, pls = lanczos_paths(fit.system, lam_grid, COMPARE_MAX_ITER)
        errs: list[float] = []
        for c in pls:
            errs.append(sq(c))
            if errs[-1] <= cg_error:
                break
        cgme_matched = errs[-1] <= cg_error
        cgme_m = len(errs) - 1 if cgme_matched else int(np.argmin(errs))
        ridge_lambda, ridge_error = min(zip(lam_grid, map(sq, ridge)), key=lambda t: t[1])
        return [CompareRecord(
            fit.n, fit.rep, fit.seed, fit.m_hat, cg_error, cgme_m, errs[cgme_m],
            cgme_matched, ridge_lambda, ridge_error,
        )]

    rows, failures = _sweep(discrepancy_cfg, records)

    medians = []
    for n in cfg.n_grid:
        group = [r for r in rows if r.n == n]
        if not group:
            continue
        medians.append({
            "n": n,
            **{k: _median([getattr(r, k) for r in group]) for k in _COMPARE_MEDIANS},
            "match_rate": sum(r.cgme_matched for r in group) / len(group),
        })
    return _report(cfg, CompareRecord, rows, failures, lambda_grid=lam_grid, medians=medians)


# --- persistence -------------------------------------------------------------


def write_text_atomic(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see partials.

    The temp file is created with mode 0o666 like ``open()`` (not 0o600 like
    ``tempfile.mkstemp``), so the umask gives the artifact its usual mode.
    """
    tmp = f"{os.path.abspath(path)}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _table(head: str, columns, rows, sep: str = ",") -> str:
    """Provenance line, header, then one line of ``_fmt`` values per row."""
    lines = [head, sep.join(columns)]
    lines += [sep.join(map(_fmt, row)) for row in rows]
    return "\n".join(lines) + "\n"


def render_report(report: SweepReport, csv_name: str, json_name: str) -> dict[str, str]:
    """The artifacts of a sweep as {file name: text}, in writing order.

    ``csv_name`` gets one row per record and one column per field of
    ``report.record_type``, in field order (the column order is part of the
    contract); ``json_name`` gets the summary as ``canonical_json``. Each
    fitted slope adds ``plot_theta_<theta>.tsv``: log n, log median error and
    the theoretical line, which has the exact exponent as slope and is
    anchored on the fitted line at the center of the grid, so the two columns
    are directly comparable in any plotting tool.
    """
    summary = report.summary
    head = f"# config_hash={summary['config_hash']} master_seed={summary['master_seed']}"
    names = [f.name for f in fields(report.record_type)]
    files = {
        csv_name: _table(head, names, ([getattr(r, k) for k in names] for r in report.records)),
        json_name: canonical_json(summary),
    }
    for s in summary.get("slopes", ()):
        stats = [p for p in summary["per_point"] if p["theta"] == s["theta"]]
        log_n = np.log([p["n"] for p in stats])
        log_err = np.log([p["median_error"] for p in stats])
        center = float(np.mean(log_n))
        anchor = s["slope"] * center + s["intercept"]
        theory = anchor + s["theoretical_exponent"] * (log_n - center)
        rows = zip(log_n.tolist(), log_err.tolist(), theory.tolist())
        columns = ("log_n", "log_median_error", "theoretical_line")
        files[f"plot_theta_{s['theta']:g}.tsv"] = _table(head, columns, rows, sep="\t")
    return files
