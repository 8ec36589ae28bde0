"""Benchmark of the barenheat CLI, end to end and by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload's CLI command in this process through
``barenheat.cli.main``, round after round in a closed loop (each command
starts after the previous one returns), until ``--seconds`` have passed.  A
round runs the command once per CLI seed derived from ``--seed``; every
round repeats those seeds, so each command must write CSV files
byte-identical to the first command with its seed, and those first files are
checked against the independent oracle in ``oracle.py``.  One untimed
command warms up first.  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics (means over the timed
rounds); with ``--trace 1`` untraced and traced rounds alternate and the
line holds the per-layer metrics of the traced ones.  Metric names and units come from ``BENCHMARK.json`` at the
repository root.  The program is imported from ``src/`` of the same
checkout.
"""

import argparse
import collections
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np

import checks
import oracle
from spans import Probe, Tracer, count_under, summarize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")

CONVERGE_PATHS = 4

WORKLOADS = {
    "converge-1d-linear": {
        "command": "converge",
        "config": os.path.join(ROOT, "demos", "configs", "additive.ini"),
        "flags": ["--paths", str(CONVERGE_PATHS)],
        "csvs": ["rates.csv"],
        # Below the slope threshold the command exits 2: a statistical verdict.
        "exit_codes": (0, 2),
        "round": 1,
    },
    "solve-2d-saturating": {
        "command": "solve",
        "config": os.path.join(HERE, "configs", "solve2d.ini"),
        "flags": [],
        "csvs": ["trajectory.csv"],
        "exit_codes": (0,),
        "round": 1,
    },
    "picard-1d-affine": {
        "command": "picard",
        "config": os.path.join(HERE, "configs", "picard.ini"),
        "flags": [],
        "csvs": ["picard.csv", "trajectory.csv"],
        "exit_codes": (0,),
        # The Picard iteration count (5 or 6) depends on the path, so a
        # round averages over enough seeds that its total varies little
        # with the benchmark seed.
        "round": 16,
    },
}

NORMS = ("grids.l2_norm", "grids.h1_seminorm", "grids.l2_inner")
ALPHA_TILDE = "nonlinearity.Nonlinearity.alpha_tilde"
LAYERS = ("grids", "noise", "nonlinearity", "stepper", "multiplicative", "diagnostics",
          "config", "expressions", "cli")


def load_program():
    """Import barenheat from this checkout's src/ and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import barenheat.cli
    except ImportError as exc:
        raise SystemExit(f"cannot import barenheat from {src}: {exc}")
    if not os.path.abspath(barenheat.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"barenheat was imported from {barenheat.cli.__file__}, not {src}")
    return barenheat.cli


def path_steps(name, config):
    """Path-steps one command asks for."""
    if name == "converge-1d-linear":
        return CONVERGE_PATHS * sum(config.level_steps())
    return config.steps


def command_totals(spans, counts):
    """Calls, total and self seconds per span name, plus the counters."""
    totals = collections.Counter(counts)
    for name, (calls, total_s, self_s) in summarize(spans).items():
        totals["calls:" + name] += calls
        totals["total_s:" + name] += total_s
        totals["self_s:" + name] += self_s
    totals["newton_solves"] += count_under(spans, "grids.solve_shifted", "stepper.solve_chi")
    totals["newton_residuals"] += count_under(spans, ALPHA_TILDE, "stepper.solve_chi")
    totals["picard_iterations"] += count_under(
        spans, "stepper.run_additive", "multiplicative.picard_solve")
    return totals


def exact_counts(totals):
    """The numbers that must repeat exactly between two traced rounds."""
    return {key: value for key, value in totals.items()
            if not key.startswith(("total_s:", "self_s:")) and key != "cli.write.bytes"}


def layer_metrics(totals):
    """Per-layer metrics from the totals of one traced round."""

    def calls(*names):
        return sum(totals["calls:" + n] for n in names)

    def self_s(*names):
        return sum(totals["self_s:" + n] for n in names)

    solves, residuals = totals["newton_solves"], totals["newton_residuals"]
    sample_s = totals["total_s:diagnostics.mc_sample"]
    mc_s = totals["total_s:diagnostics.mc_expectation"]
    metrics = {
        "grids.solve_shifted.calls": calls("grids.solve_shifted"),
        "grids.solve_shifted.self_s": self_s("grids.solve_shifted"),
        "grids.cg.iterations": totals["grids.cg.iterations"],
        "grids.norms.calls": calls(*NORMS),
        "grids.norms.self_s": self_s(*NORMS),
        "stepper.run_additive.calls": calls("stepper.run_additive"),
        "stepper.step.self_s": self_s("stepper.step"),
        "stepper.solve_theta.self_s": self_s("stepper.solve_theta"),
        "stepper.solve_chi.self_s": self_s("stepper.solve_chi"),
        "stepper.inner_iterations": totals["stepper.inner_iterations"],
        "stepper.newton_solves": solves,
        "stepper.newton_solves_per_residual": solves / residuals if residuals else 0.0,
        "nonlinearity.alpha_tilde.calls": calls(ALPHA_TILDE),
        "noise.sample_path.self_s": self_s("noise.sample_path"),
        "noise.aggregate_path.self_s": self_s("noise.aggregate_path"),
        "noise.partial_sums.self_s": self_s("noise.partial_sums"),
        "noise.discretize_integrand.self_s": self_s("noise.discretize_integrand"),
        "config.parse_config.self_s": self_s("config.parse_config"),
        "nonlinearity.check_properties.self_s": self_s("nonlinearity.check_properties"),
        "diagnostics.mc_sample.calls": calls("diagnostics.mc_sample"),
        "diagnostics.mc_sample.s": sample_s,
        "diagnostics.mc_expectation.s": mc_s,
        "diagnostics.mc_sample_s_per_wall_s": sample_s / mc_s if mc_s else 0.0,
        "multiplicative.picard_iterations": totals["picard_iterations"],
        "multiplicative.evaluate_H.self_s": self_s("multiplicative.evaluate_H"),
        "multiplicative.weighted_norm.self_s": self_s("multiplicative.weighted_norm"),
        "cli.write.self_s": self_s("cli.write"),
        "cli.write.bytes": totals["cli.write.bytes"],
    }
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = sum(
            value for key, value in totals.items()
            if key.startswith(f"self_s:{layer}."))
    return metrics


def round_seeds(seed, count):
    """The CLI seeds of one round, derived from the benchmark seed."""
    return [int(v) for v in np.random.SeedSequence(seed).generate_state(count, np.uint64)]


def measure(cli, name, seed, seconds, trace, workdir):
    work = WORKLOADS[name]
    config = checks.Config(work["config"])
    seeds = round_seeds(seed, work["round"])
    probe = Probe()
    tracer = Tracer() if trace else None
    problems = []
    first = {}  # CLI seed -> (output dir, CSV bytes, exit code, probed trajectory)
    timed = []  # (command s, stepping s) of each command of the untraced rounds
    setups, traced = [], []
    rounds = plain_rounds = 0
    first_counts = None
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while not plain_rounds or (trace and not traced) or time.perf_counter() < deadline:
        # One untimed command first warms up imports and caches.
        warmup = not rounds
        tracing = trace and not warmup and plain_rounds > len(traced)
        hook = tracer if tracing else probe
        rounds += 1
        plain_rounds += not (warmup or tracing)
        round_s = 0.0
        round_totals = collections.Counter()
        for cli_seed in seeds[:1] if warmup else seeds:
            outdir = os.path.join(workdir, str(attempted))
            argv = [work["command"], "--config", work["config"], "--out", outdir,
                    "--seed", str(cli_seed)] + work["flags"]
            # Each command starts from a collected heap, as in a fresh process,
            # so that no collection left over from the last one lands in it.
            gc.collect()
            hook.reset()
            hook.install()
            try:
                start = time.perf_counter()
                code = cli.main(argv)
                end = time.perf_counter()
            finally:
                hook.restore()
            attempted += 1
            if code not in work["exit_codes"]:
                failed += 1
                continue
            csvs = {}
            for csv_name in work["csvs"]:
                with open(os.path.join(outdir, csv_name), "rb") as handle:
                    csvs[csv_name] = handle.read()
            if cli_seed not in first:
                first[cli_seed] = (outdir, csvs, code, probe.last)
            else:
                if (csvs, code) != first[cli_seed][1:3]:
                    problems.append(f"command {attempted} wrote other results than its "
                                    f"first run with seed {cli_seed}")
                shutil.rmtree(outdir)
            if warmup:
                continue
            round_s += end - start
            if tracing:
                if not traced and not round_totals:
                    tracer.write(os.path.join(OUT, f"spans-{name}.csv"))
                round_totals.update(command_totals(tracer.spans, tracer.counts))
            elif probe.first_step is None:
                problems.append("no call of run_additive or mc_expectation ended set-up")
            else:
                setups.append(probe.first_step - start)
                timed.append((end - start, end - probe.first_step))
        if tracing:
            if first_counts is None:
                first_counts = exact_counts(round_totals)
            elif exact_counts(round_totals) != first_counts:
                problems.append("a traced round counted other work than the first")
            traced.append((round_s, layer_metrics(round_totals)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems += oracle.self_test()
    if not first:
        problems.append("no command succeeded")
    for cli_seed, (outdir, _, code, trajectory) in first.items():
        if name == "converge-1d-linear":
            problems += checks.check_converge(outdir, config, cli_seed, CONVERGE_PATHS, code)
            print(f"converge seed {cli_seed}: exit code {code} (slope verdict)", file=sys.stderr)
        elif name == "solve-2d-saturating":
            problems += checks.check_solve(outdir, config, cli_seed, trajectory)
        else:
            problems += checks.check_picard(outdir, config, cli_seed)

    if not timed or (trace and not traced):
        raise SystemExit("no round completed without failures")
    # Means over whole rounds, so that every run weighs the same mix of
    # paths.  The host runs in slow and fast phases of tens of seconds; a
    # mean follows them in proportion where a median jumps between them.
    command_s = statistics.fmean(c for c, _ in timed)
    stepping_s = statistics.fmean(s for _, s in timed)
    if trace:
        metrics = {key: statistics.median(m[key] for _, m in traced) for key in traced[0][1]}
        metrics["trace.overhead_s"] = (statistics.median(s for s, _ in traced) / len(seeds)
                                       - command_s)
    else:
        metrics = {
            "command_s": command_s,
            "path_steps_per_s": path_steps(name, config) / stepping_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
    for line in problems:
        print(f"problem: {line}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be an unsigned 64-bit integer")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    # The program would let this variable override --seed.
    os.environ.pop("SOLVER_SEED", None)
    cli = load_program()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        result = measure(cli, args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(result["metrics"]) != set(units):
        raise SystemExit(f"metrics {sorted(result['metrics'])} differ from BENCHMARK.json")
    result["metrics"] = {key: {"value": value, "unit": units[key]}
                         for key, value in result["metrics"].items()}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
