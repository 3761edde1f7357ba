"""Benchmark of the pitaron-lab CLI on three seeded experiment workloads.

    python3 benchmarks/run.py --workload drive --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The benchmark writes a seeded
pool of configs for the workload (see ``workloads.py``), then runs them
in a closed loop, one client in one process, through
``pitaron_lab.cli.main(["run", <config>, "--out", <dir>])`` for
``--seconds`` seconds.  BLAS threads are left as installed.  After the
loop, every experiment's output is checked against an independent route
(``checks.py``); an experiment fails if it exits nonzero or a check
fails.

``--trace 0`` prints the end-to-end metrics: median and tail experiment
time, experiments per second, set-up time and peak resident memory.  The
times and the rate are host-normalised: a fixed reference kernel runs
between experiments, and each time is scaled by the kernel's local speed
(``calibration.py``), so that the host's own speed drifts cancel.  The
wall values are printed beside them.
``--trace 1`` runs the same loop with the public functions of each
module wrapped (``spans.py``), then the same experiments untraced, and
prints per-layer metrics per experiment plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Working files go
to ``.bench_work/`` in the checkout; the spans of a traced run are kept
there as ``spans-<workload>-<seed>.npz``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 7        # the run's own set-up plus six in fresh processes
TAIL_BEYOND = 10         # the tail percentile has this many samples beyond it
MIN_EXPERIMENTS = TAIL_BEYOND + 1
ORDER_CHECKS = 4         # drive configs whose final U is checked against expm factors
TRACED_SHARE = 0.5       # share of --seconds spent in the traced loop
SPEED_SAMPLES = 3        # host-speed kernel samples around each set-up and the loop


def import_cli():
    """Import ``pitaron_lab.cli`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "pitaron_lab" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no pitaron_lab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from pitaron_lab import cli
    if SRC not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"benchmark: imported pitaron_lab from {cli.__file__}, not {SRC}")
    return cli


def set_up(workload: str, seed: int, directory: Path):
    """Import the package, write the config pool and run one warm-up experiment.

    Returns the CLI module, the configs, their paths and the seconds it took.
    """
    started = time.perf_counter()
    cli = import_cli()
    from workloads import make_configs

    configs = make_configs(workload, seed)
    directory.mkdir(parents=True)
    paths = []
    for config in configs:
        path = directory / f"{config['output_path']}.json"
        path.write_text(json.dumps(config))
        paths.append(path)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        code = cli.main(["run", str(paths[0]), "--out", str(directory / "warmup")])
    if code != 0:
        raise SystemExit(f"benchmark: warm-up experiment exited with {code}")
    return cli, configs, paths, time.perf_counter() - started


def setup_in_fresh_process(workload: str, seed: int, directory: Path) -> float:
    """Set-up time measured inside a new interpreter, excluding its start-up."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only", str(directory)],
        capture_output=True, text=True, timeout=150, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"benchmark: set-up process failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


def closed_loop(cli, paths, out_root: Path, seconds=None, count=None, first=0, tracer=None,
                speed=None):
    """Run configs in pool order, one after another, for ``seconds`` or ``count`` runs.

    Returns the records (experiment id, pool index, exit code, seconds),
    the loop's wall time and each experiment's start.  With ``speed``, the
    host-speed kernel is sampled between experiments, outside their timing.
    """
    records = []
    starts = []

    def more() -> bool:
        if count is not None:
            return len(records) < count
        return len(records) < MIN_EXPERIMENTS or time.perf_counter() - loop_start < seconds

    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        loop_start = time.perf_counter()
        while more():
            exp_id = first + len(records)
            k = len(records) % len(paths)
            if tracer is not None:
                tracer.begin_experiment(exp_id)
            if speed is not None:
                speed.sample_if_due()
            started = time.perf_counter()
            try:
                code = cli.main(["run", str(paths[k]), "--out", str(out_root / str(exp_id))])
            except Exception:  # an escaping exception is a failed experiment, not a stop
                traceback.print_exc(file=sys.stderr)
                code = -1
            records.append((exp_id, k, code, time.perf_counter() - started))
            starts.append(started)
        wall = time.perf_counter() - loop_start
    return records, wall, starts


def check_outputs(workload, seed, configs, records, out_root) -> dict[int, list[str]]:
    """Problems per experiment id; experiments without problems are absent."""
    import numpy as np
    import pitaron_lab
    from checks import Checker, check_final_u, PROFILES

    checker = Checker()
    problems = {}
    for exp_id, k, code, _ in records:
        found = [f"exit code {code}"] if code != 0 else checker.check(
            k, configs[k], out_root / str(exp_id))
        if found:
            problems[exp_id] = found
    if workload == "drive":
        rng = np.random.default_rng([seed, 99])
        ran = sorted({k for _, k, _, _ in records})
        for k in rng.choice(ran, size=min(ORDER_CHECKS, len(ran)), replace=False):
            p = configs[k]["params"]
            spec = pitaron_lab.pauli_hamiltonian(*(
                PROFILES[p[f]] if isinstance(p[f], str) else p[f] for f in ("f1", "f2", "f3")))
            traj = pitaron_lab.evolve_trajectory(spec, p["t0"], p["t1"], p["grid_points"],
                                                 p["steps_per_cell"])
            found = check_final_u(configs[k], traj.snapshots[-1].U)
            for exp_id, kk, _, _ in records:
                if kk == k and found:
                    problems.setdefault(exp_id, []).extend(found)
    return problems


def blas_threads():
    """OpenBLAS's own thread count when numpy bundles it, else the environment's."""
    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for lib in glob.glob(libs):
        try:
            get = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        return get()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def environment() -> str:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} blas={blas['name']} {blas['version']} "
            f"blas_threads={blas_threads()}")


def metric(value, unit):
    return {"value": value, "unit": unit}


def print_variants(configs, records) -> None:
    from workloads import variant_of

    groups: dict[str, list[float]] = {}
    for _, k, _, dt in records:
        groups.setdefault(variant_of(configs[k]), []).append(dt)
    for name, times in sorted(groups.items()):
        print(f"  {name:<24} n={len(times):<4} median {statistics.median(times):.4f} s")


def timing_metrics(times, setups) -> dict:
    """Median, tail and rate of the experiment times, and the median set-up."""
    times = sorted(times)
    n = len(times)
    return {
        "exp_s.p50": metric(statistics.median(times), "s"),
        "exp_s.tail": metric(times[n - TAIL_BEYOND - 1], "s"),
        "exp_per_s": metric(n / sum(times), "1/s"),
        "setup_s": metric(statistics.median(setups), "s"),
    }


def end_to_end(args, cli, configs, paths, run_dir, setup_s) -> tuple[dict, list, dict]:
    from calibration import REFERENCE_S, HostSpeed

    speed = HostSpeed()
    speed.sample(SPEED_SAMPLES)
    setups = [(setup_s, setup_s * REFERENCE_S / statistics.median(speed.seconds))]

    def fresh(i):
        speed.sample(SPEED_SAMPLES)
        started = time.perf_counter()
        took = setup_in_fresh_process(args.workload, args.seed, run_dir / f"setup{i}")
        speed.sample(SPEED_SAMPLES)
        return took, took * REFERENCE_S / speed.local(started, time.perf_counter())

    # half of the fresh set-ups before the loop and half after, so that the
    # median spans the run rather than one moment of the host's speed
    half = SETUP_SAMPLES // 2
    setups += [fresh(i) for i in range(1, half + 1)]
    out_root = run_dir / "runs"
    speed.sample(SPEED_SAMPLES)
    records, wall, starts = closed_loop(cli, paths, out_root, seconds=args.seconds, speed=speed)
    speed.sample(SPEED_SAMPLES)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups += [fresh(i) for i in range(half + 1, SETUP_SAMPLES)]
    problems = check_outputs(args.workload, args.seed, configs, records, out_root)

    n = len(records)
    wall_times = [dt for *_, dt in records]
    wall_metrics = timing_metrics(wall_times, [raw for raw, _ in setups])
    metrics = timing_metrics([speed.normalise(t, dt) for t, dt in zip(starts, wall_times)],
                             [normalised for _, normalised in setups])
    metrics["peak_rss_mib"] = metric(peak_rss_mib, "MiB")
    print(f"workload {args.workload}, seed {args.seed}: {n} experiments in {wall:.2f} s, "
          "closed loop, 1 client, 1 process")
    print(f"host-speed kernel: {len(speed.seconds)} samples, median "
          f"{statistics.median(speed.seconds) * 1e3:.3f} ms, range "
          f"{min(speed.seconds) * 1e3:.3f}-{max(speed.seconds) * 1e3:.3f} ms; "
          f"times below are scaled to {REFERENCE_S * 1e3:.1f} ms (wall values in brackets)")
    for name, m in metrics.items():
        raw = f"  ({wall_metrics[name]['value']:.6g})" if name in wall_metrics else ""
        print(f"{name:<14} {m['value']:.6g} {m['unit']}{raw}")
    print(f"  exp_s.tail is the p{100.0 * (n - TAIL_BEYOND) / n:.1f} of {n} samples, "
          f"{TAIL_BEYOND} beyond it")
    print(f"  setup_s is the median of {', '.join(f'{s:.4f}' for _, s in setups)} s")
    print(f"fail_ratio     {len(problems) / n:.6g} ({len(problems)} of {n})")
    print_variants(configs, records)
    return metrics, records, problems


LAYER_METRICS = (
    # (metric, layer, quantity, unit); quantity is calls or self_s, per experiment
    ("linalg.mat_exp.calls", "linalg.mat_exp", "calls", "count"),
    ("linalg.mat_exp.self_s", "linalg.mat_exp", "self_s", "s"),
    ("hamiltonian.sample.calls", "hamiltonian.sample", "calls", "count"),
    ("hamiltonian.sample.self_s", "hamiltonian.sample", "self_s", "s"),
    ("propagation.evolve_trajectory.self_s", "propagation.evolve_trajectory", "self_s", "s"),
    ("propagation.pitaron.calls", "propagation.pitaron", "calls", "count"),
    ("propagation.pitaron.self_s", "propagation.pitaron", "self_s", "s"),
    ("propagation.step_propagator.self_s", "propagation.step_propagator", "self_s", "s"),
    ("propagation.z_factor.self_s", "propagation.z_factor", "self_s", "s"),
    ("series.dyson_u.calls", "series.dyson_u", "calls", "count"),
    ("series.dyson_u.self_s", "series.dyson_u", "self_s", "s"),
    ("series.general_pitaron_expansion.self_s", "series.general_pitaron_expansion",
     "self_s", "s"),
    ("singular_dynamics.smeared_second_order.self_s",
     "singular_dynamics.smeared_second_order", "self_s", "s"),
    ("singular_dynamics.SmearedDelta.density.calls", "singular_dynamics.SmearedDelta.density",
     "calls", "count"),
    ("singular_dynamics.SmearedDelta.density.self_s", "singular_dynamics.SmearedDelta.density",
     "self_s", "s"),
    ("singular_dynamics.comb.self_s", "singular_dynamics.comb", "self_s", "s"),
    ("singular_dynamics.dominated_convergence_demos.self_s",
     "singular_dynamics.dominated_convergence_demos", "self_s", "s"),
    ("picard.picard_iterate.calls", "picard.picard_iterate", "calls", "count"),
    ("picard.picard_iterate.self_s", "picard.picard_iterate", "self_s", "s"),
    ("picard.picard_delta_breakdown.self_s", "picard.picard_delta_breakdown", "self_s", "s"),
    ("cli.main.self_s", "cli.main", "self_s", "s"),
    ("cli.load_config.self_s", "cli.load_config", "self_s", "s"),
    ("cli.run_experiment.self_s", "cli.run_experiment", "self_s", "s"),
)


def bytes_written(out_root: Path, records) -> int:
    return sum(f.stat().st_size for exp_id, *_ in records
               for f in (out_root / str(exp_id)).rglob("*") if f.is_file())


def per_layer(args, cli, configs, paths, run_dir) -> tuple[dict, list, dict]:
    from spans import Tracer

    tracer = Tracer()
    out_root = run_dir / "runs"
    with tracer.installed():
        traced, traced_wall, _ = closed_loop(cli, paths, out_root, tracer=tracer,
                                          seconds=args.seconds * TRACED_SHARE)
    n = len(traced)
    plain, plain_wall, _ = closed_loop(cli, paths, out_root, count=n, first=n)
    records = traced + plain
    problems = check_outputs(args.workload, args.seed, configs, records, out_root)

    totals = tracer.layer_totals()
    metrics = {name: metric(totals[layer][quantity] / n, unit)
               for name, layer, quantity, unit in LAYER_METRICS}
    metrics["linalg.mat_exp.distinct_ratio"] = metric(
        sum(tracer.distinct_exp_args.values()) / max(totals["linalg.mat_exp"]["calls"], 1),
        "ratio")
    metrics["hamiltonian.sample.distinct_ratio"] = metric(
        sum(tracer.distinct_sample_times.values())
        / max(totals["hamiltonian.sample"]["calls"], 1), "ratio")
    metrics["propagation.pitaron.max_cond_U"] = metric(tracer.max_cond_U, "1")
    metrics["propagation.pitaron.worst_defect_P"] = metric(tracer.worst_defect_P, "1")
    metrics["series.nodes"] = metric(tracer.samples_under("series.") / n, "count")
    metrics["cli.bytes_written"] = metric(bytes_written(out_root, traced) / n, "B")
    metrics["trace.overhead_ratio"] = metric(plain_wall / traced_wall, "ratio")

    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"spans-{args.workload}-{args.seed}.npz"
    tracer.save(spans_path)

    traced_s = sum(dt for *_, dt in traced)
    print(f"workload {args.workload}, seed {args.seed}: {n} traced experiments in "
          f"{traced_wall:.2f} s, then the same {n} untraced in {plain_wall:.2f} s; "
          f"{len(tracer.start)} spans written to {spans_path.relative_to(ROOT)}")
    print("self time per experiment, by layer (share of traced experiment time):")
    for layer, total in sorted(totals.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {layer:<48} {total['self_s'] / n:10.6f} s  {total['self_s'] / traced_s:6.1%}"
              f"  {total['calls'] / n:10.1f} calls")
    for name, m in metrics.items():
        print(f"{name:<54} {m['value']:.6g} {m['unit']}")
    print_distinct_by_variant(tracer, configs, traced)
    return metrics, records, problems


def print_distinct_by_variant(tracer, configs, traced) -> None:
    """mat_exp distinct arguments per call, per experiment family."""
    import numpy as np
    from workloads import variant_of

    a = tracer.arrays()
    is_exp = a["layer"] == tracer.layers.index("linalg.mat_exp")
    calls = np.bincount(a["experiment"][is_exp], minlength=len(traced) + 1)
    groups: dict[str, list[int]] = {}
    for exp_id, k, _, _ in traced:
        group = groups.setdefault(variant_of(configs[k]), [0, 0])
        group[0] += tracer.distinct_exp_args[exp_id]
        group[1] += int(calls[exp_id])
    for name, (distinct, total) in sorted(groups.items()):
        ratio = distinct / total if total else float("nan")
        print(f"  {name:<24} linalg.mat_exp.distinct_ratio {ratio:.4f} ({distinct}/{total})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("drive", "lattice", "quadrature"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR",
                        help="set up in DIR, print the seconds it took and exit")
    args = parser.parse_args(argv)

    if args.setup_only:
        print(set_up(args.workload, args.seed, Path(args.setup_only))[3])
        return 0

    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        cli, configs, paths, setup_s = set_up(args.workload, args.seed, run_dir)
        print(f"environment: {environment()}")
        if args.trace:
            metrics, records, problems = per_layer(args, cli, configs, paths, run_dir)
        else:
            metrics, records, problems = end_to_end(args, cli, configs, paths, run_dir, setup_s)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for exp_id, found in sorted(problems.items())[:10]:
        print(f"experiment {exp_id} failed: {'; '.join(found)}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": len(records),
                      "failed": len(problems), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
