"""Command-line front end: seeded experiments in, CSV/JSON artifacts out.

Every artifact is stamped with the master seed and a hash of the effective
configuration, and JSON output is canonical (sorted keys), so identical
invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import InvalidInput, NumericalFailure
from .harness import (
    ExperimentConfig,
    canonical_json,
    compare_solvers,
    config_hash,
    derive_seed,
    draw_replicate,
    fit_replicate,
    render_report,
    run_experiment,
    write_text_atomic,
)
from .synth import model_to_dict, sample_to_dict

EXIT_OK = 0
EXIT_INVALID_CONFIG = 1
EXIT_NUMERICAL = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as config-class failures.

    The default parser calls sys.exit(2); exit code 2 is reserved here for
    numerical failures, so usage errors are rerouted to exit code 1.
    """

    def error(self, message):
        raise _UsageError(message)


#: One line per subcommand, listed by ``kernelcg --help``.
_SUBCOMMAND_HELP = {
    "fit": "fit one sample and print the stop index and residuals",
    "simulate": "draw and persist synthetic samples",
    "rates": "run the rate sweep and fit log-log slopes",
    "holdout": "run the rate sweep with hold-out stopping",
    "compare": "compare the two CG modes and ridge on shared samples",
}


def _build_parser() -> _Parser:
    # One flat parser: every subcommand takes the same four options, and
    # building a subparser for each costs more than parsing them.
    parser = _Parser(
        prog="kernelcg",
        description=__doc__,
        epilog="subcommands:\n"
        + "\n".join(f"  {name:<10}{text}" for name, text in _SUBCOMMAND_HELP.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "subcommand", choices=_SUBCOMMAND_HELP, metavar="subcommand", help="one of those below"
    )
    parser.add_argument("--config", required=True, help="path to a JSON config file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override master_seed")
    parser.add_argument("--quiet", action="store_true", help="suppress progress lines")
    return parser


def _effective_config(args) -> ExperimentConfig:
    """The config file with ``--seed`` and the hold-out default written in,
    loaded once, so the model is built once."""
    path = args.config
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"config file {path} is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInput(f"config file {path} cannot be read: {exc}") from exc
    if isinstance(raw, dict):
        # A missing key stays missing, so it is refused as without the override.
        if args.seed is not None and "master_seed" in raw:
            raw["master_seed"] = args.seed
        # Any other stopping value, a malformed one included, is read as written.
        if args.subcommand == "holdout" and raw.get("stopping", "discrepancy") == "discrepancy":
            raw["stopping"] = {"kind": "holdout", "fraction": 0.2}
    return ExperimentConfig.from_dict(raw)


def _emit(args, text: str) -> None:
    if not args.quiet:
        print(text)


def _exit_code(args, failures: list[str]) -> int:
    """Name each failure; a run with any exits 2, its partial results written."""
    for f in failures:
        _emit(args, f"FAILED {f}")
    if not failures:
        return EXIT_OK
    print("partial results written; failures: " + "; ".join(failures), file=sys.stderr)
    return EXIT_NUMERICAL


#: (rows CSV, summary JSON) written by each sweep subcommand.
_SWEEP_ARTIFACTS = {
    "rates": ("rates.csv", "rate_report.json"),
    "holdout": ("holdout.csv", "holdout_report.json"),
    "compare": ("compare.csv", "compare_summary.json"),
}


def _cmd_sweep(args, cfg: ExperimentConfig) -> int:
    report = compare_solvers(cfg) if args.subcommand == "compare" else run_experiment(cfg)
    for name, text in render_report(report, *_SWEEP_ARTIFACTS[args.subcommand]).items():
        write_text_atomic(os.path.join(args.out, name), text)
    summary = report.summary
    for p in summary.get("per_point", ()):
        _emit(
            args,
            f"{summary['regime']} n={p['n']} theta={p['theta']:g} "
            f"median_error={p['median_error']:.6g} "
            f"iqr=[{p['iqr_low']:.6g}, {p['iqr_high']:.6g}] m_hat={p['median_m_hat']:g}",
        )
    for s in summary.get("slopes", ()):
        _emit(
            args,
            f"theta={s['theta']:g}: slope={s['slope']:+.4f} "
            f"theory={s['theoretical_exponent']:+.4f} gap={s['slope_gap']:+.4f}",
        )
    for row in summary.get("medians", ()):
        _emit(
            args,
            f"n={row['n']} cg_m_hat={row['cg_m_hat']:g} cg_error={row['cg_error']:.6g} "
            f"cgme_m={row['cgme_m']:g} match_rate={row['match_rate']:.2f} "
            f"ridge_error={row['ridge_error']:.6g}",
        )
    return _exit_code(args, summary["failures"])


def _cmd_fit(args, cfg: ExperimentConfig) -> int:
    fit = fit_replicate(cfg, cfg.n_grid[0], 0)
    errors = {repr(theta): fit.squared_error(theta) for theta in cfg.theta_list}
    payload = {
        "config_hash": config_hash(cfg),
        "master_seed": cfg.master_seed,
        "seed": fit.seed,
        "n": fit.n,
        "m_hat": fit.m_hat,
        "omega": fit.omega,
        "residual_norms": [float(v) for v in fit.trace.residual_norms],
        "errors": errors,
    }
    write_text_atomic(os.path.join(args.out, "fit.json"), canonical_json(payload))
    omega_text = "holdout" if fit.omega is None else f"{fit.omega:.6g}"
    _emit(args, f"n={fit.n} seed={fit.seed} omega={omega_text} m_hat={fit.m_hat}")
    _emit(
        args,
        "residuals: " + " ".join(f"{v:.6g}" for v in fit.trace.residual_norms),
    )
    return EXIT_OK


def _cmd_simulate(args, cfg: ExperimentConfig) -> int:
    n0 = cfg.n_grid[0]
    samples = [sample_to_dict(draw_replicate(cfg, n0, rep)) for rep in range(cfg.replicates)]
    manifest = {
        str(n): [derive_seed(cfg.master_seed, n, rep) for rep in range(cfg.replicates)]
        for n in cfg.n_grid
    }
    payload = {
        "config_hash": config_hash(cfg),
        "master_seed": cfg.master_seed,
        "model": model_to_dict(cfg.model()),
        "n": n0,
        "samples": samples,
        "seed_manifest": manifest,
    }
    write_text_atomic(os.path.join(args.out, "samples.json"), canonical_json(payload))
    _emit(args, f"wrote {cfg.replicates} samples at n={n0} plus the grid seed manifest")
    return EXIT_OK


_COMMANDS = {
    "fit": _cmd_fit,
    "simulate": _cmd_simulate,
    "rates": _cmd_sweep,
    "holdout": _cmd_sweep,
    "compare": _cmd_sweep,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_INVALID_CONFIG
    try:
        cfg = _effective_config(args)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            print(f"cannot create output directory {args.out}: {exc}", file=sys.stderr)
            return EXIT_INVALID_CONFIG
        return _COMMANDS[args.subcommand](args, cfg)
    except InvalidInput as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_INVALID_CONFIG
    except NumericalFailure as exc:
        print(
            f"numerical failure at iteration {exc.iteration} "
            f"(master_seed={cfg.master_seed}): {exc}",
            file=sys.stderr,
        )
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
