"""sapdplus benchmark: time-to-epsilon, oracle throughput and a traced run.

Usage, from the repository root:

    python3 perfbench/run.py --workload quad-wcsc --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing: the median
of several set-ups, then solves with inputs drawn from ``--seed`` until
``--seconds`` are used.  Its timings are wall times rescaled to one
reference machine speed by a speed probe (see speed.py); the raw wall
times print beside them.  ``--trace 1`` instead alternates untraced and
traced solves on the same inputs and reports per-layer metrics from the
spans (see tracing.py), the tracing overhead, and whether the traced
iterates equal the untraced ones bit for bit.

Human-readable lines come first; the last line of stdout is one JSON object
with the metrics named in BENCHMARK.json.  Every gate (start far from
epsilon, closed-form or reference correctness, LMI certificate, traced ==
untraced) that fails counts in ``failed`` and makes the exit code 1.
The program is imported from ``src/`` of the checkout; without it the run
exits with code 2 before measuring anything.
"""

import argparse
import contextlib
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import speed
import tracing

ROOT = Path(__file__).resolve().parents[1]
SETUP_MIN_SAMPLES = 3  # set-ups before each solve: at least this many ...
SETUP_MIN_SECONDS = 0.02  # ... and until this much time is spent on them
clock = time.perf_counter


def tail_percentile(n):
    """Highest of p99.9/p99/p90 with at least 10 of n samples beyond it."""
    for q in (99.9, 99.0, 90.0):
        if n * (1.0 - q / 100.0) >= 10:
            return q
    return None


def percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


class SetupTimes:
    """Set-up timings, sampled in small batches spread over the whole run."""

    def __init__(self, wl):
        self.wl = wl
        self.totals, self.parts, self.intervals = [], [], []

    def sample(self):
        start, count = clock(), 0
        while count < SETUP_MIN_SAMPLES or clock() - start < SETUP_MIN_SECONDS:
            t = clock()
            setup = self.wl.setup()
            parts = (setup.instance_s, setup.schedule_s, setup.lmi_s)
            self.totals.append(sum(parts))
            self.parts.append(parts)
            self.intervals.append((t, clock()))
            count += 1
        return setup

    def medians(self):
        """(median total, [median instance, schedule, certificate]), raw seconds."""
        return (statistics.median(self.totals),
                [statistics.median(p[i] for p in self.parts) for i in range(3)])

    def scaled_median(self, probe):
        """Median total at the probe's reference speed."""
        return statistics.median(probe.scale(total, *interval)
                                 for total, interval in zip(self.totals, self.intervals))


def run_solves(wl, setup_times, seed, seconds, traced):
    """Solve fresh inputs until ``seconds`` are used.

    Untraced: returns [(wall, reps)].  Traced: each input is solved
    untraced, then traced; returns [(wall, reps, traced_wall, traced_reps)]
    and the Tracer.  Also returns the peak RSS after the counted solves:
    it grows with the number of solves, which depends on the machine's speed.
    """
    root = np.random.SeedSequence(seed)
    tracer = tracing.Tracer() if traced else None
    solves, start, peak_rss = [], clock(), None
    while True:
        setup = setup_times.sample()
        inputs = wl.inputs(root.spawn(1)[0])
        starts = wl.start_failures(setup, inputs)
        t = clock()
        reps = wl.solve(setup, inputs, in_process=traced)
        entry = [clock() - t, reps]
        if traced:
            with tracing.installed(tracer):
                t = clock()
                traced_reps = wl.solve(setup, inputs, tracer=tracer)
                entry += [clock() - t, traced_reps]
            wl.check(setup, inputs, traced_reps)
            if not wl.same_result(reps, traced_reps):
                traced_reps[0].failures.append("traced iterates differ from untraced")
        wl.check(setup, inputs, reps)
        for rep, fails in zip(reps, starts):
            rep.failures[:0] = fails
        solves.append(entry)
        if len(solves) == wl.count_solves:
            peak_rss = wl.peak_rss_mb()
        used = clock() - start
        per_solve = used / len(solves)
        if len(solves) >= (1 if traced else wl.count_solves) and used + per_solve > seconds:
            return setup, solves, tracer, peak_rss


def solve_interval(solve):
    """(start, end) of an untraced solve, from the intervals of its reps."""
    reps = solve[1]
    return reps[0].interval[0], reps[-1].interval[1]


def end_to_end(wl, setup_s, solves, peak_rss, probe):
    # every timing is at the probe's reference speed (see speed.py); rates
    # are medians over reps
    reps = [r for s in solves for r in s[1]]
    counted = [r for s in solves[:wl.count_solves] for r in s[1]]
    rep_s = [probe.scale(r.wall_s, *r.interval) for r in reps]
    return {
        "setup_s": setup_s,
        "solve_s": statistics.median(probe.scale(s[0], *solve_interval(s)) for s in solves),
        "draws_per_s": statistics.median(r.draws / t for r, t in zip(reps, rep_s)),
        "inner_iters_per_s": statistics.median(r.iterations / t for r, t in zip(reps, rep_s)),
        "oracle_calls_to_eps": statistics.mean(r.draws for r in counted),
        "stages_to_eps": statistics.mean(r.stages for r in counted),
        "peak_rss_mb": peak_rss,
    }


def per_layer(wl, setup, setup_parts, solves, tracer, start_stat):
    stats, counters = tracer.summary()
    empty = tracing.SpanStats()

    def get(name):
        return stats.get(name, empty)

    def durations(*names):
        return np.concatenate([np.asarray(get(n).durations) for n in names] or [[]])

    def us(values, q):
        return percentile(values, q) * 1e6

    traced_reps = [r for s in solves for r in s[3]]
    untraced_wall = sum(s[0] for s in solves)
    traced_wall = sum(s[2] for s in solves)
    stage = durations(*tracing.STAGE_SPANS)
    iterations = counters.get("sapd.iterations", 0) + counters.get("vr.iterations", 0)
    rep = get("rep")
    rep_total = rep.total_s or 1.0
    finals = [r.final_stationarity for r in traced_reps if r.final_stationarity is not None]
    if not finals and rep.metas:  # the CLI's iterates are only seen through the trace
        from sapdplus import moreau_stationarity

        finals = [moreau_stationarity(setup.problem, m["x"]).value
                  for m in rep.metas if "x" in m]
    first = traced_reps[0]
    stage0_frac = first.wall_ms[0] / first.wall_ms[-1] if first.wall_ms else 0.0
    x_or, y_or = durations(*tracing.X_ORACLES), durations(*tracing.Y_ORACLES)
    return {
        "sapd.guard.us_p50": us(get("guard").durations, 50),
        "sapd.guard.us_p99": us(get("guard").durations, 99),
        "sapd.guard.calls": get("guard").calls,
        "inner.self_us_per_iter": 1e6 * sum(get(n).self_s for n in tracing.STAGE_SPANS)
        / max(iterations, 1),
        "sapd.iterations": counters.get("sapd.iterations", 0),
        "vr.iterations": counters.get("vr.iterations", 0),
        "vr.refreshes": counters.get("vr.refreshes", 0),
        "problem.x_oracle.us_p50": us(x_or, 50),
        "problem.x_oracle.us_p99": us(x_or, 99),
        "problem.y_oracle.us_p50": us(y_or, 50),
        "problem.y_oracle.us_p99": us(y_or, 99),
        "problem.grad_x.calls": get("grad_x").calls,
        "problem.grad_y.calls": get("grad_y").calls,
        "problem.sgrad_x.calls": get("sgrad_x").calls,
        "problem.sgrad_y.calls": get("sgrad_y").calls,
        "problem.batch_grad_x.rows": counters.get("batch_grad_x.rows", 0),
        "problem.batch_grad_y.rows": counters.get("batch_grad_y.rows", 0),
        "problem.draws": counters.get("draws", 0),
        "problem.draws_mismatch": counters.get("draws", 0) - sum(r.draws for r in traced_reps),
        "problem.start_stationarity": start_stat,
        "problem.start_stationarity_over_eps": start_stat / wl.eps,
        "prox.prox_g.us_p50": us(get("prox_g").durations, 50),
        "prox.prox_g.us_p99": us(get("prox_g").durations, 99),
        "prox.prox_g.calls": get("prox_g").calls,
        "prox.prox_f.us_p50": us(get("prox_f").durations, 50),
        "outer.stage.ms_p50": percentile(stage, 50) * 1e3,
        "outer.stage.ms_p99": percentile(stage, 99) * 1e3,
        "outer.stages": len(stage),
        "outer.shifted_subproblem.us_p50": us(get("shifted_subproblem").durations, 50),
        "outer.smooth_dual.calls": get("smooth_dual").calls,
        "outer.rep.s_p50": percentile(rep.durations, 50),
        "outer.rep.gil_wait_frac": 1.0 - rep.cpu_s / rep_total,
        "outer.rep.threads": len(rep.threads),
        "evaluation.moreau_stationarity.calls": get("moreau_stationarity").calls,
        "evaluation.moreau_stationarity.inner_iterations":
            counters.get("moreau.inner_iterations", 0),
        "evaluation.moreau_stationarity.unreliable": counters.get("moreau.unreliable", 0),
        "evaluation.moreau_stationarity.share":
            get("moreau_stationarity").total_s / rep_total,
        "evaluation.final_stationarity": statistics.median(finals) if finals else 0.0,
        "params.schedule.ms": setup_parts[1] * 1e3,
        "params.build_lmi.us": setup_parts[2] * 1e6,
        "params.certificate_min_eig": setup.certificate.min_eigenvalue,
        "params.n_inner": setup.params.n_inner,
        "params.theory_n_inner": setup.theory_n_inner,
        "params.theory_vr_b": setup.theory_vr_b,
        "datasets.build_instance.ms": setup_parts[0] * 1e3,
        "datasets.robust_loss.calls": get("robust_loss").calls,
        "datasets.robust_loss.share": get("robust_loss").total_s / rep_total,
        "cli.stage0_wall_frac": stage0_frac,
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
    }


def describe(wl, setup, setup_times, solves, start_stat, probe):
    """Human-readable lines: per-rep time to epsilon and diagnostics."""
    reps = [r for s in solves for r in s[1]]
    lines = [f"{len(solves)} solves, {len(reps)} reps, "
             f"{sum(s[0] for s in solves):.2f} s in untraced solves",
             f"setup: median of {len(setup_times.totals)} set-ups spread over the run, "
             f"{setup_times.medians()[0]:.6g} s raw wall",
             f"certificate: min eigenvalue {setup.certificate.min_eigenvalue:.6g}, "
             f"feasible {bool(setup.certificate.feasible)}",
             f"start stationarity {start_stat:.6g} = {start_stat / wl.eps:.6g} eps"
             f" (eps = {wl.eps:g})",
             f"schedule N used {setup.params.n_inner}, theory N {setup.theory_n_inner}"
             + (f", theory VR batch b {setup.theory_vr_b}" if setup.theory_vr_b else "")]
    if probe is not None:
        blocks = probe.cpu_s
        lines.append(f"speed probe: {len(blocks)} blocks, CPU ms p10/p50/p90 "
                     + "/".join(f"{percentile(blocks, q) * 1e3:.4g}" for q in (10, 50, 90))
                     + f" (reference {speed.REFERENCE_S * 1e3:g} ms)")
        lines.append(f"solve_s raw wall: median {statistics.median(s[0] for s in solves):.6g} s")
    if wl.time_to_eps and probe is not None:
        times = [probe.scale(r.wall_s, *r.interval) for r in reps]
        q = tail_percentile(len(times))
        tail = f", p{q:g} {percentile(times, q):.6g} s" if q else ""
        lines.append(f"time_to_eps_s per rep at reference speed: "
                     f"p50 {percentile(times, 50):.6g} s{tail}, n = {len(times)}")
    finals = [r.final_stationarity for s in solves[:wl.count_solves] for r in s[1]
              if r.final_stationarity is not None]
    if finals:
        lines.append(f"final_stationarity (median of the counted reps) "
                     f"{statistics.median(finals):.17g}")
    if reps[0].wall_ms:
        lines.append(f"cli.stage0_wall_ms {reps[0].wall_ms[0]:.3f} of "
                     f"{reps[0].wall_ms[-1]:.3f} ms in rep 0 (stamped by the CLI)")
    return lines


def run(wl, seed, seconds, traced, units):
    # untraced timings are scaled by a speed probe; the traced run reports
    # raw times and runs no probe beside the tracer
    probe = None if traced else speed.SpeedProbe()
    with probe or contextlib.nullcontext():
        setup_times = SetupTimes(wl)
        setup = setup_times.sample()
        gates = {"certificate": [] if setup.certificate.feasible
                 else ["LMI certificate infeasible"]}
        if not traced:
            gates["reference"] = wl.reference_failures(setup)
        setup, solves, tracer, peak_rss = run_solves(wl, setup_times, seed, seconds, traced)
    first_inputs = wl.inputs(np.random.SeedSequence(seed).spawn(1)[0])
    start_stat = float(wl.start_diagnostic(setup, first_inputs))
    if traced:
        metrics = per_layer(wl, setup, setup_times.medians()[1], solves, tracer, start_stat)
    else:
        metrics = end_to_end(wl, setup_times.scaled_median(probe), solves, peak_rss, probe)
    reps = [r for s in solves for r in s[1] + (s[3] if traced else [])]
    lines = describe(wl, setup, setup_times, solves, start_stat, probe)
    lines += [f"{name} = {value!r} {units[name]}" for name, value in metrics.items()]
    failures = [f for fs in gates.values() for f in fs] + [f for r in reps for f in r.failures]
    failed = sum(1 for fs in gates.values() if fs) + sum(1 for r in reps if r.failures)
    attempted = len(gates) + len(reps)
    lines += [f"gate failed: {f}" for f in failures]
    lines.append(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} reps and "
                 "run-level gates)")
    return metrics, attempted, failed, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "sapdplus" / "__init__.py").is_file():
        print(f"perfbench: no sapdplus package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import sapdplus

    if Path(sapdplus.__file__).resolve().parent != (src / "sapdplus").resolve():
        print(f"perfbench: imported sapdplus from {sapdplus.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    wl = workloads.make(args.workload, ROOT)
    metrics, attempted, failed, lines = run(wl, args.seed, args.seconds, bool(args.trace), units)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match "
                           "BENCHMARK.json")
    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace}")
    for line in lines:
        print("  " + line)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": float(value), "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
