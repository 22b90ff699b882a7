"""End-to-end benchmark of lorot, with an optional traced run for per-layer numbers.

Usage, from the repository root:

    python3 perfbench/run.py --workload strict_dense --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table

One run sets up its workload, then repeats certified passes back to back
(closed loop, one process, BLAS and OpenMP pinned to one thread) until the
next pass would end after ``--seconds``. The last line of standard output is
a JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``. A traced run alternates untraced and traced
passes, so it also reports the tracing overhead. Every reported time is
rescaled to a reference core speed (see ``speed.py``); the raw seconds are
kept in the result file.

Everything the run writes goes under ``perfbench/out/``: the workload's
problem files, CLI outputs, a result file with the environment, exact counts
and output digest, and with ``--trace 1`` the recorded spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BASELINE = HERE / "baseline.json"
WORKLOAD_NAMES = ("line_refine", "strict_dense", "rays_monge", "cylinder_cli")
SETUP_REPEATS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="with --workload all: store the results in perfbench/baseline.json")
    parser.add_argument("--small", action="store_true",
                        help="smallest size of each workload, for the self-test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def metric_units(kind):
    return {m["name"]: m["unit"] for m in benchmark_spec()[kind]}


def environment(seed):
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "seed": seed,
    }


def out_dir(args):
    return OUT / (args.workload + ("-small" if args.small else ""))


def setup(args, probe=None):
    """Import lorot, build the workload's instances and write its problem files."""
    import workloads

    build, _ = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES["small" if args.small else "full"]
    if probe is None:
        inputs = build(args.seed, size)
    else:
        with probe.span("experiments.instance_build"):
            inputs = build(args.seed, size)
    workloads.write_inputs(inputs, out_dir(args))
    return inputs


def setup_child(args):
    """Time one cold set-up in this fresh process and print the seconds."""
    t0 = time.perf_counter()
    setup(args)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


def time_setup(args, speed):
    """Median of several cold set-ups, each in a fresh interpreter.

    Returns the median at reference speed and the raw seconds.
    """
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)]
            + (["--small"] if args.small else []),
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        raw.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
        scaled.append(raw[-1] * speed.scale(t0, time.perf_counter()))
    return statistics.median(scaled), raw


def run_passes(args, inputs, probe, speed):
    """Back-to-back passes until the next one would end after --seconds.

    Returns one record per pass, with the factor that takes its times to
    reference core speed. A traced run first makes an unrecorded
    warm-up pass, so that the first-pass costs (file creation, lazy
    initialisation) do not land on one side of the overhead comparison, then
    alternates an untraced and a traced pass.
    """
    import workloads

    _, run_pass = workloads.WORKLOADS[args.workload]
    modes = (False, True) if args.trace else (False,)
    if args.trace:
        run_pass(inputs, workloads.Tally(probe), out_dir(args))
    records = []
    t_run = time.perf_counter()
    while True:
        for tracing in modes:
            probe.tracing = tracing
            first = len(probe.spans)
            tally = workloads.Tally(probe)
            t0 = time.perf_counter()
            with probe.span("bench.pass"):
                run_pass(inputs, tally, out_dir(args))
            t1 = time.perf_counter()
            probe.tracing = False
            records.append({"traced": tracing, "wall": t1 - t0, "scale": speed.scale(t0, t1),
                            "tally": tally, "spans": (first, len(probe.spans))})
        cycle = sum(r["wall"] for r in records[-len(modes):])
        if time.perf_counter() - t_run + cycle > args.seconds:
            return records


def layer_metrics(records, probe, build_s):
    """Per-layer metrics: medians over the traced passes, times at reference speed.

    Which end-to-end metric each should move, and where:
    solver.*       wall_s on line_refine and strict_dense (share >= 0.9), and on
                   rays_monge through per-call cost; nothing on cylinder_cli (0 calls).
                   The gap and residual feed certified_frac everywhere.
    dual.*         wall_s on line_refine, once the solver is fast; small on strict_dense.
    diagnostics.*  wall_s and certified_frac on line_refine and strict_dense.
    transport.*    wall_s on rays_monge only. monge_map_s and restrict_s are self
                   times: the solves they make are charged to solver.solve_s.
    spacetime.*    wall_s and peak_rss_mb on every solver workload.
    experiments.instance_build_s   setup_s.
    experiments.*  wall_s on line_refine (the line study) and cylinder_cli (the rest).
    cli.*          wall_s on cylinder_cli only; cli.self_s is cli.main_s minus
                   run_cylinder_example.
    A layer a workload never calls reads 0 there.
    """
    from probe import span_totals

    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    per_pass = []
    for r in traced:
        lo, hi = r["spans"]
        totals = span_totals(probe.spans[lo:hi])
        wall = totals["bench.pass"]["incl"]
        tally = r["tally"]

        def incl(name):
            return totals.get(name, {}).get("incl", 0.0)

        def self_time(name):
            return totals.get(name, {}).get("self", 0.0)

        audits = tally.counts["diagnostics.audits"]
        attempts = tally.counts["transport.monge_attempts"]
        solve = totals.get("solver.solve", {"incl": 0.0, "max": 0.0, "calls": 0})
        per_pass.append({
            "solver.solve_s": solve["incl"],
            "solver.solve_max_s": solve["max"],
            "solver.solve_calls": solve["calls"],
            "solver.share": solve["incl"] / wall,
            "solver.finite_arcs": tally.counts["solver.finite_arcs"],
            "solver.support_entries": tally.counts["solver.support_entries"],
            "solver.denominator_bits_max": tally.peaks["solver.denominator_bits_max"],
            "solver.dual_gap_max": tally.peaks["solver.dual_gap_max"],
            "solver.dual_residual_max": tally.peaks["solver.dual_residual_max"],
            "dual.chain_potential_s": incl("dual.chain_potential"),
            "dual.c_transform_s": incl("dual.c_transform"),
            "dual.dkp_verify_s": incl("dual.dkp_verify"),
            "dual.dkp_max_violation": tally.peaks["dual.dkp_max_violation"],
            "dual.spread_error_max": tally.peaks["dual.spread_error_max"],
            "diagnostics.audit_s": incl("diagnostics.audit"),
            "diagnostics.lightlike_fraction":
                tally.counts["diagnostics.lightlike_sum"] / audits if audits else 0.0,
            "diagnostics.monotonicity_violations":
                tally.counts["diagnostics.monotonicity_violations"],
            "transport.ray_decomposition_s": incl("transport.ray_decomposition"),
            "transport.monge_map_s": self_time("transport.monge_map"),
            "transport.interpolate_s": incl("transport.interpolate"),
            "transport.restrict_s": self_time("transport.restrict"),
            "transport.monge_found_frac":
                tally.counts["transport.monge_found"] / attempts if attempts else 0.0,
            "transport.rays_total": tally.counts["transport.rays_total"],
            "spacetime.cost_matrix_s": incl("spacetime.cost_matrix"),
            "spacetime.cost_matrix_mb_computed": tally.counts["spacetime.cost_matrix_mb_computed"],
            "experiments.run_line_counterexample_s": incl("experiments.run_line_counterexample"),
            "experiments.subdifferential_field_s": incl("experiments.subdifferential_field"),
            "experiments.cylinder_potential_s": incl("experiments.cylinder_potential"),
            "experiments.run_cylinder_example_s": incl("experiments.run_cylinder_example"),
            "experiments.skipped_thetas": tally.counts["experiments.skipped_thetas"],
            "cli.main_s": incl("cli.main"),
            "cli.self_s": self_time("cli.main"),
            "cli.bytes_written": tally.counts["cli.bytes_written"],
        })
        for k in per_pass[-1]:
            if k.endswith("_s"):
                per_pass[-1][k] *= r["scale"]
    out = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    out["experiments.instance_build_s"] = build_s
    out["trace.overhead_frac"] = (
        statistics.median(r["wall"] * r["scale"] for r in traced)
        / statistics.median(r["wall"] * r["scale"] for r in plain)
        - 1.0
    )
    return out


def high_percentile(samples):
    """Highest percentile with at least ten samples beyond it.

    Below 21 samples no percentile above the median has that support, so
    the median is returned.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 20:
        return 50.0, statistics.median(ordered)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def compare_digest(name, seed, digest):
    if not BASELINE.is_file():
        return "no baseline"
    runs = json.loads(BASELINE.read_text(encoding="utf-8")).get("runs", {})
    known = runs.get(f"{name}/seed{seed}/trace0", {}).get("digest")
    if known is None:
        return "no baseline for this seed"
    return "same as baseline" if known == digest else "DIFFERS from baseline"


def run_one(args):
    import workloads  # noqa: F401  (imports lorot and lorot.cli before patching)
    from probe import Probe
    from speed import SpeedProbe, pin_to_one_cpu

    pin_to_one_cpu()
    probe = Probe()
    probe.install()
    try:
        with SpeedProbe() as speed:
            setup_s, setup_samples = (None, []) if args.trace else time_setup(args, speed)
            probe.tracing = bool(args.trace)
            inputs = setup(args, probe)
            probe.tracing = False
            build_s = next(
                ((s["end"] - s["start"]) * speed.scale(s["start"], s["end"])
                 for s in probe.spans if s["name"] == "experiments.instance_build"),
                None,
            )
            records = run_passes(args, inputs, probe, speed)
    finally:
        probe.uninstall()

    tallies = [r["tally"] for r in records]
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    digests = {t.digest.hexdigest() for t in tallies}
    failures = [f for t in tallies for f in t.failures]
    if len(digests) > 1:
        failures.append(f"outputs differ between passes: {len(digests)} digests")
    first = tallies[0]
    counts = {k: first.counts[k] for k in (
        "solver.finite_arcs", "solver.support_entries", "transport.rays_total",
        "experiments.skipped_thetas", "cli.bytes_written")}
    counts["solver.denominator_bits_max"] = first.peaks["solver.denominator_bits_max"]
    digest = first.digest.hexdigest()

    plain = [r for r in records if not r["traced"]]
    walls = [r["wall"] * r["scale"] for r in plain]
    pct, wall_hi = high_percentile(walls)
    if args.trace:
        values = layer_metrics(records, probe, build_s)
        units = metric_units("per_layer")
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": setup_s,
            "certified_frac": 1.0 - failed / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = metric_units("end_to_end")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    env = environment(args.seed)
    result = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": env,
        "metrics": metrics,
        "wall_samples_s": walls,
        "wall_hi": {"percentile": pct, "value": wall_hi},
        "raw_wall_samples_s": [r["wall"] for r in plain],
        "raw_setup_samples_s": setup_samples,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "counts": counts,
        "digest": digest,
    }
    stem = f"{out_dir(args).name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    if args.trace:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(probe.spans) + "\n", encoding="utf-8")

    print(f"{args.workload} seed={args.seed} trace={args.trace} passes={len(records)} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"nproc={env['nproc']} commit={env['git_commit']}")
    raw = statistics.median(r["wall"] for r in plain)
    print(f"  wall_s median={statistics.median(walls):.4f} s  p{pct:.0f}={wall_hi:.4f} s "
          f"(n={len(walls)}, at reference speed; raw median {raw:.4f} s)  "
          f"failed_frac={failed}/{attempted}={failed / attempted:.4f}")
    for k, m in metrics.items():
        print(f"  {k} = {m['value']:.6g} {m['unit']}")
    print(f"  counts {json.dumps(counts)}")
    print(f"  digest {digest[:16]} ({compare_digest(args.workload, args.seed, digest)})")
    for f in failures[:5]:
        print(f"  FAILED {f}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args):
    """Each workload in a fresh process; print one table of the results."""
    summary = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout[: proc.stdout.rstrip().rfind("\n") + 1])
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        summary[name] = json.loads(proc.stdout.splitlines()[-1])
    print(f"{'metric':<40}" + "".join(f"{name:>15}" for name in summary) + "  unit")
    for key, metric in summary[WORKLOAD_NAMES[0]]["metrics"].items():
        cells = "".join(f"{res['metrics'][key]['value']:>15.6g}" for res in summary.values())
        print(f"{key:<40}{cells}  {metric['unit']}")
    cells = "".join(f"{res['failed']:>9}/{res['attempted']:<5}" for res in summary.values())
    print(f"{'failed/attempted':<40}{cells}")
    if args.record:
        base = json.loads(BASELINE.read_text(encoding="utf-8")) if BASELINE.is_file() else {}
        runs = base.setdefault("runs", {})
        for name in WORKLOAD_NAMES:
            stem = f"{name}-seed{args.seed}-trace{args.trace}"
            res = json.loads((OUT / f"{stem}.json").read_text(encoding="utf-8"))
            runs[f"{name}/seed{args.seed}/trace{args.trace}"] = {
                k: res[k] for k in ("environment", "metrics", "wall_samples_s", "wall_hi",
                                    "attempted", "failed", "counts", "digest")
            }
        base["runs"] = dict(sorted(runs.items()))
        BASELINE.write_text(json.dumps(base, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({name: res for name, res in summary.items()}))
    return 0


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "lorot" / "__init__.py").is_file():
        print(f"perfbench: no lorot sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(parents=True, exist_ok=True)
    if args.setup_only:
        return setup_child(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
