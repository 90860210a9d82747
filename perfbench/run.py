"""Benchmark of the kernelcg CLI: time, throughput, memory and set-up per workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload outer_rates --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --all --seed 1

One run calls ``kernelcg.cli.main`` in this process as a closed loop with one
client: the next call starts when the previous one returns, with the
workload's subcommand, its config and the run's seed, until the next call
would end past ``--seconds`` (at least ``MIN_CALLS`` calls). Before the loop
come ``SETUP_REPEATS`` fresh processes, each timing the import of kernelcg,
the config load and the model build, and one untimed warm-up call. After it, the output check recomputes a
seeded subset of replicates (see ``outcheck.py``) and every call's CSV must
be byte-identical to the first.

With ``--trace 0`` the run reports the end-to-end metrics. With ``--trace 1``
it alternates untraced and traced calls; the traced ones wrap each module's
public functions (see ``spans.py``) and give the per-layer metrics, and the
difference of the two medians is the tracing overhead. Metric names and
units come from BENCHMARK.json; ``layers.json`` says which end-to-end metric
each layer metric should move, on which workload.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Lines before it
record the environment, per-call timings and the check. A JSON record of the
run, with the spans of traced calls, is written under ``perfbench/out/``.
``--all`` runs every workload untraced and traced, each in its own process,
and prints every metric by name and unit.
"""

from __future__ import annotations

import os

#: BLAS threads, pinned before numpy loads: timings of the same workload
#: differ by up to a third between one and two threads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

#: numpy asks for transparent huge pages on large arrays by default. Whether
#: a process gets them depends on the host's free memory, and per-process
#: medians of one workload spread 10% with them against 3% without, so the
#: benchmark runs without them (about 8% slower).
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import argparse
import dataclasses
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

#: Fresh-process set-ups measured per run; setup_s is their median.
SETUP_REPEATS = 3

#: Fewest timed CLI calls a run makes, even past --seconds.
MIN_CALLS = 3


@dataclasses.dataclass(frozen=True)
class Workload:
    subcommand: str
    config: str  # relative to the checkout root


#: Why each workload was chosen is recorded in BENCHMARK.json. The configs
#: under perfbench/configs/ equal the shipped ones except for one replicate
#: per grid point (of 40 and 20): every replicate at one n costs the same,
#: so the layer shares hold, and a run holds many calls, whose median is
#: steadier than that of a few long ones.
WORKLOADS = {
    "outer_rates": Workload("rates", "perfbench/configs/outer_r025_s05.reduced.json"),
    "inner_compare": Workload("compare", "perfbench/configs/inner_r1_s05.reduced.json"),
    "inner_holdout": Workload("holdout", "perfbench/configs/inner_r1_s05.reduced.json"),
}

SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
import kernelcg
t1 = time.perf_counter()
with open(sys.argv[1]) as handle:
    cfg = kernelcg.ExperimentConfig.from_dict(json.load(handle))
t2 = time.perf_counter()
cfg.model()
t3 = time.perf_counter()
print(json.dumps([t1 - t0, t2 - t1, t3 - t2]))
"""


def load_definition() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        vendor = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "blas_threads": BLAS_THREADS,
        "numpy_madvise_hugepage": os.environ["NUMPY_MADVISE_HUGEPAGE"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
    }


def measure_setup(config: str) -> list[float]:
    """[import, config load, model build] seconds in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, config],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def digest(out_dir: str) -> tuple[str, int]:
    """Hash of the CSV artifacts and the byte total of everything written."""
    h = hashlib.sha256()
    size = 0
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        size += os.path.getsize(path)
        if name.endswith(".csv"):
            with open(path, "rb") as handle:
                h.update(handle.read())
    return h.hexdigest(), size


def median(values: list):
    """Median; a count that is equal on every call stays a whole number."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def spread(values: list[float]) -> str:
    return (
        f"median {statistics.median(values):.6g} "
        f"[min {min(values):.6g}, max {max(values):.6g}] n={len(values)}"
    )


def run_workload(name: str, workload: Workload, args, definition: dict) -> int:
    if not os.path.isfile(os.path.join(SRC, "kernelcg", "__init__.py")):
        print(f"error: no kernelcg sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from kernelcg import ExperimentConfig, cli

    import outcheck
    import spans

    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    config = os.path.join(ROOT, workload.config)
    setups = [measure_setup(config) for _ in range(SETUP_REPEATS)]
    with open(config) as handle:
        cfg = dataclasses.replace(
            ExperimentConfig.from_dict(json.load(handle)), master_seed=args.seed
        )

    run_dir = os.path.join(OUT, f"{name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    out_dir = os.path.join(run_dir, "call")
    argv = [
        workload.subcommand, "--config", config, "--out", out_dir,
        "--seed", str(args.seed), "--quiet",
    ]
    # One untimed call first: the allocator keeps large blocks only after
    # they have been freed once, and the first call of a process is about 5%
    # slower than the next ones.
    cli.main(argv)

    calls = []  # dicts: wall, traced, rc, digest, bytes
    traces = []  # (spans, wall) of traced calls
    missing = []  # names the tracer did not find
    start = time.perf_counter()
    while len(calls) < MIN_CALLS or (
        time.perf_counter() - start + calls[-1]["wall"] <= args.seconds
    ):
        traced = bool(args.trace) and len(calls) % 2 == 1
        tracer = spans.Tracer()
        t0 = time.perf_counter()
        if traced:
            with tracer.installed(), tracer.span("cli.main"):
                rc = cli.main(argv)
        else:
            rc = cli.main(argv)
        wall = time.perf_counter() - t0
        csv_hash, size = digest(out_dir) if rc == 0 else ("", 0)
        calls.append({"wall": wall, "traced": traced, "rc": rc, "digest": csv_hash, "bytes": size})
        if traced:
            traces.append((tracer.spans, wall))
            missing = tracer.missing
    elapsed = time.perf_counter() - start
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    per_call = len(cfg.n_grid) * cfg.replicates
    problems = [f"call {i} exited {c['rc']}" for i, c in enumerate(calls) if c["rc"] != 0]
    problems += [
        f"call {i} wrote different CSV bytes than call 0"
        for i, c in enumerate(calls) if c["digest"] != calls[0]["digest"]
    ]
    outcome = None
    if calls[-1]["rc"] == 0:
        outcome = outcheck.check_outputs(workload.subcommand, cfg, out_dir, args.seed)
        problems += list(outcome.mismatches)
    failed_each = per_call if outcome is None else outcome.failed + len(outcome.mismatches)
    failed = sum(
        per_call if c["rc"] != 0 or c["digest"] != calls[0]["digest"] else failed_each
        for c in calls
    )
    attempted = per_call * len(calls)

    untraced = [c["wall"] for c in calls if not c["traced"]]
    setup_total = [sum(s) for s in setups]
    wall_s = statistics.median(untraced)
    print(
        f"workload {name}: {workload.subcommand} on {workload.config}, seed {args.seed}, "
        f"{per_call} replicates per call, {len(calls)} calls in {elapsed:.3f} s"
    )
    print(f"wall_s untraced {spread(untraced)}")
    print(f"setup_s {spread(setup_total)}")
    if outcome is not None:
        picked = ", ".join(f"n={n} rep={r}" for n, r in outcome.checked)
        print(f"check: recomputed {len(outcome.checked)} replicates ({picked})")
    for line in problems:
        print(f"check FAILED: {line}")
    print(f"failed {failed} of {attempted} replicates (failed_fraction {failed / attempted:.6g})")

    if args.trace:
        traced_walls = [c["wall"] for c in calls if c["traced"]]
        print(f"wall_s traced {spread(traced_walls)}")
        layers = [spans.layer_metrics(s, w) for s, w in traces]
        values = {key: median([d[key] for d in layers]) for key in layers[0]}
        values["harness.artifact_bytes"] = calls[-1]["bytes"]
        for i, key in enumerate(("cli.setup_import_s", "cli.setup_config_s", "cli.setup_model_s")):
            values[key] = statistics.median(s[i] for s in setups)
        values["trace.overhead_s"] = statistics.median(traced_walls) - wall_s
        for target in missing:
            print(f"trace: {target} not found, not wrapped")
        totals = spans.span_totals([s for s, _ in traces])
        for key, (inclusive, own) in sorted(totals.items()):
            print(
                f"share {key} inclusive {inclusive / sum(traced_walls):.3f} "
                f"self {own / sum(traced_walls):.3f} of traced wall_s"
            )
        names = definition["per_layer"]
    else:
        values = {
            "wall_s": wall_s,
            "replicates_per_s": (per_call - failed_each) / wall_s,
            "setup_s": statistics.median(setup_total),
            "peak_rss_mib": peak_rss_mib,
        }
        names = definition["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    for key, metric in metrics.items():
        print(f"metric {key} {metric['value']!r} {metric['unit']}")

    record = {
        "env": env,
        "calls": calls,
        "setups": setups,
        "checked": [] if outcome is None else outcome.checked,
        "problems": problems,
        "metrics": metrics,
        "spans": [[span.to_list() for span in s] for s, _ in traces],
    }
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(OUT, exist_ok=True)
    with open(run_dir + ".json", "w") as handle:
        json.dump(record, handle)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(args, definition: dict) -> int:
    """Every workload untraced and traced, each in a fresh process."""
    status = 0
    for workload in definition["workloads"]:
        for trace in (0, 1):
            cmd = [
                sys.executable, os.path.abspath(__file__), "--workload", workload["name"],
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            print(f"== {workload['name']} trace={trace} exit={done.returncode}")
            if done.returncode != 0 or not lines:
                print(done.stderr)
                status = 1
                continue
            for line in lines[:-1]:
                if line.startswith(("check", "failed", "share", "trace:")):
                    print("  " + line)
            result = json.loads(lines[-1])
            status |= int(not result["correct"] or result["failed"] > 0)
            print(
                f"  correct={result['correct']} attempted={result['attempted']} "
                f"failed={result['failed']}"
            )
            for key, metric in result["metrics"].items():
                print(f"  {key:32s} {metric['value']:>16.6g} {metric['unit']}")
    return status


def main(argv=None) -> int:
    definition = load_definition()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=definition["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args, definition)
    if args.workload is None:
        parser.error("--workload or --all is required")
    return run_workload(args.workload, WORKLOADS[args.workload], args, definition)


if __name__ == "__main__":
    sys.exit(main())
