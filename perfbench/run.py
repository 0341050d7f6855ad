"""ratinglab benchmark: CLI pipelines, end-to-end timings and an outside-in trace.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload pipeline_regime --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One client calls ``ratinglab.cli.main(argv)`` for each step of a
workload's pipeline, in sequence and in one fresh child process, so this
is a closed loop with a single client.  The child has a wall-clock
limit; a call that hangs, fails, writes to stderr or writes wrong bytes
counts as failed, and the remaining calls and the metric printout still
happen.  BLAS runs on one thread.

``--trace 0`` reports end-to-end metrics; ``--trace 1`` reports the
per-layer metrics of the outside-in trace (see tracer.py).  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exits 2 without a result if the program's
source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

BLAS_THREADS = "1"
SETUP_REPEATS = 5
SETUP_LIMIT_S = 20
# Slack beyond --seconds for the measuring child: the last iteration
# overruns the deadline and the warm-up iteration precedes it.
MEASURE_SLACK_S = 90
RUN_LIMIT_S = 170


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def environment() -> str:
    import scipy

    return (f"python {platform.python_version()} numpy {np.__version__} scipy {scipy.__version__} "
            f"nproc {os.cpu_count()} OPENBLAS_NUM_THREADS={BLAS_THREADS}")


# -- inputs ----------------------------------------------------------


def scenario_band(scenario_file: Path) -> tuple[float, float]:
    """Band for the simulated transition count, valid for any random stream.

    Six standard deviations of a Poisson count around the expectation,
    plus 2% for day rounding.  For an excited scenario the expectation
    ranges from never excited to always excited.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from ratinglab.simulator import load_scenario

    scenario = load_scenario(scenario_file)
    start, end = (d.toordinal() for d in scenario.span)
    schedule = [(d.toordinal(), g.entries) for d, g in scenario.generators]
    low = high = checks.expected_transitions(
        schedule, scenario.initial_distribution, scenario.n_banks, start, end)
    if scenario.excitation is not None:
        excited = []
        for day, q in schedule:
            q = np.tril(q, -1) * scenario.excitation.gamma + np.triu(q, 1)
            np.fill_diagonal(q, -q.sum(axis=1))
            excited.append((day, q))
        high = checks.expected_transitions(
            excited, scenario.initial_distribution, scenario.n_banks, start, end)
    return (low - 6 * low ** 0.5 - 0.02 * low, high + 6 * high ** 0.5 + 0.02 * high)


def make_inputs(name: str, seed: int, work: Path) -> dict:
    """Write the workload's input files; returns what checking needs."""
    spec = workloads.WORKLOADS[name]
    if "scenario" in spec:
        scenario_file = work / "scenario.txt"
        scenario_file.write_text(workloads.scenario_text(spec["scenario"]), encoding="utf-8")
        return {"band": scenario_band(scenario_file)}
    text, truth = workloads.messy_panel(seed, **spec["messy"])
    (work / "panel.csv").write_text(text, encoding="utf-8")
    return {"truth": truth}


def _describe(exc: Exception) -> str:
    return str(exc) if isinstance(exc, checks.CheckError) else f"{type(exc).__name__}: {exc}"


def check_outputs(name: str, work: Path, inputs: dict) -> dict[str, str]:
    """Check the warm-up iteration's outputs; returns {command: error text}."""
    spec = workloads.WORKLOADS[name]
    out = work / "out0"
    if "scenario" in spec:
        s = spec["scenario"]
        try:
            inputs["truth"] = checks.simulated_truth(
                out / "panel.csv", s["n_banks"], workloads.day_ordinal(s["start"]),
                workloads.day_ordinal(s["end"]), inputs["band"])
        except Exception as exc:  # whatever the program wrote, report it and go on
            return {"simulate": _describe(exc)}  # nothing to check the rest against
    errors = {}
    for analysis in spec["analyses"]:
        try:
            checks.check_analysis(analysis, out / workloads.output_name(analysis), inputs["truth"])
        except Exception as exc:
            errors[analysis[0]] = _describe(exc)
    return errors


# -- child processes -------------------------------------------------


def measure_setup(work: Path, deadline: float) -> tuple[list[float], int, int]:
    """Fresh interpreters running the tiny pipeline; the first only warms up.

    Returns (timed seconds, calls attempted, calls failed).
    """
    times = []
    for k in range(SETUP_REPEATS + 1):
        limit = min(SETUP_LIMIT_S, max(deadline - time.monotonic(), 1))
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), "setup", str(work / "setup")],
                env=child_env(), cwd=ROOT, capture_output=True, timeout=limit)
            ok = proc.returncode == 0 and not proc.stderr
        except subprocess.TimeoutExpired:
            ok = False
        if not ok:  # counts as one failed call; leave the time to the workload
            return times, 5 * (k + 1), 1
        if k > 0:
            times.append(time.perf_counter() - start)
    return times, 5 * (SETUP_REPEATS + 1), 0


def run_child(spec_file: Path, limit: float) -> list[dict]:
    """Run the measuring child; returns its JSON records, also when it was killed."""
    try:
        stdout = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "measure", str(spec_file)],
            env=child_env(), cwd=ROOT, capture_output=True, timeout=limit).stdout
    except subprocess.TimeoutExpired as exc:
        stdout = exc.stdout or b""
    records = []
    for line in stdout.decode("utf-8", "replace").splitlines():
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            pass  # a line cut off by the kill
    return records


def account(records: list[dict]) -> tuple[int, int, list[str]]:
    """(calls attempted, calls failed, error texts) from the child's records."""
    started = sum(1 for r in records if "start" in r)
    results = [r for r in records if "call" in r]
    errors = [f"{r['call']} (iteration {r['i']}): {r['error']}" for r in results if r["error"]]
    if started > len(results):
        errors.append(f"{records[-1].get('start', 'call')}: hit the time limit or crashed")
    return started, started - len(results) + sum(1 for r in results if r["error"]), errors


def step_medians(records: list[dict], traced: bool) -> tuple[list[tuple[str, float]], int]:
    """Median seconds of each pipeline step over the timed iterations.

    Returns ([(command, median seconds)] in pipeline order, iterations).
    Summing per-step medians is steadier on a shared machine than the
    median of whole-iteration sums, because a slow spell then only
    shifts the steps it overlaps.
    """
    by_step: dict[int, list[dict]] = {}
    for r in records:
        if "call" in r and r["i"] > 0 and r["traced"] == traced:
            by_step.setdefault(r["k"], []).append(r)
    steps = [(calls[0]["call"], statistics.median(c["s"] for c in calls))
             for _, calls in sorted(by_step.items())]
    return steps, min((len(c) for c in by_step.values()), default=0)


# -- metrics ---------------------------------------------------------


def layer_metrics(done: dict, inputs: dict, name: str, untraced_s: float,
                  traced_s: float) -> dict[str, tuple[float, str]]:
    import tracer

    layers = done["layers"]
    metrics: dict[str, tuple[float, str]] = {}
    for span in tracer.SPAN_NAMES:
        row = layers[span]
        metrics[f"{span}.s"] = (row["s"], "s")
        metrics[f"{span}.self_s"] = (row["self_s"], "s")
        metrics[f"{span}.calls"] = (row["calls"], "count")
    for layer in tracer.LAYERS:
        metrics[f"layer.{layer}.self_s"] = (
            sum(row["self_s"] for span, row in layers.items() if span.startswith(layer + ".")), "s")

    spec = workloads.WORKLOADS[name]
    truth = inputs["truth"]
    n_analyses = len(spec["analyses"])
    passes = layers["ingest.infer_span"]["calls"] + layers["ingest.parse_panel"]["calls"]
    simulations = layers["simulator.simulate"]["calls"]
    windows = sum(len(checks.month_windows(truth["span"], 12 if a[2] == "year" else 1))
                  for a in spec["analyses"] if a[0] in ("homogeneity", "ck"))
    metrics["simulator.events"] = (simulations * truth["n_events"], "count")
    metrics["ingest.rows_read"] = (passes * truth["n_rows"], "count")
    metrics["ingest.passes_per_command"] = (passes / n_analyses, "ratio")
    metrics["diagnostics.windows"] = (windows, "count")
    metrics["panel.retained_bytes_per_event"] = (done["retained_bytes"] / truth["n_events"], "B/event")
    metrics["trace.pipeline_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.spans"] = (done["spans_per_iteration"], "count")
    return metrics


def run_workload(name: str, seed: int, seconds: int, trace: bool, start: float) -> dict:
    deadline = start + RUN_LIMIT_S
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = make_inputs(name, seed, work)
        attempted = failed = 0
        errors: list[str] = []
        setup_times: list[float] = []
        if not trace:
            setup_times, attempted, failed = measure_setup(work, deadline)
            if failed:
                errors.append(f"setup: {failed} of {attempted} calls failed")

        spec_file = work / "spec.json"
        spec = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                "workdir": str(work), "spans_file": str(WORK / f"trace_{name}.jsonl")}
        panel = "panel.csv" if "truth" in inputs else "out1/panel.csv"
        spec["panel_for_memory"] = str(work / panel)
        spec_file.write_text(json.dumps(spec), encoding="utf-8")
        records = run_child(
            spec_file, max(min(seconds + MEASURE_SLACK_S, deadline - time.monotonic()), 1))
        n, bad, call_errors = account(records)
        attempted, failed = attempted + n, failed + bad
        errors += call_errors
        check_errors = check_outputs(name, work, inputs)
        # A call that already failed in the warm-up is not counted twice.
        failed_warmup = {r["call"] for r in records if r.get("i") == 0 and r.get("error")}
        failed_warmup |= {r["start"] for r in records[-1:] if "start" in r and r["i"] == 0}
        failed += len(set(check_errors) - failed_warmup)
        errors += [f"{cmd} output check: {e}" for cmd, e in check_errors.items()]
        done = records[-1] if records and records[-1].get("done") else None
        if done is None:
            errors.append("measuring child did not finish")

        steps, samples = step_medians(records, traced=False)
        pipeline = sum(t for _, t in steps)
        result = {"name": name, "attempted": max(attempted, 1), "failed": failed,
                  "errors": errors, "samples": samples}
        if trace:
            traced_steps, traced_samples = step_medians(records, traced=True)
            if done is not None and samples and traced_samples and "truth" in inputs:
                result["metrics"] = layer_metrics(
                    done, inputs, name, pipeline, sum(t for _, t in traced_steps))
            return result
        # A workload that produced no timing reads as the time limit.
        limit = float(seconds + MEASURE_SLACK_S)
        result["metrics"] = {
            "pipeline_s": (pipeline if samples else limit, "s"),
            "analyze_s": (sum(t for cmd, t in steps if cmd != "simulate") if samples else limit, "s"),
            "peak_rss_mb": ((done or {}).get("maxrss_kb", 0) / 1024, "MiB"),
            "setup_s": (statistics.median(setup_times) if setup_times else limit, "s"),
        }
        if "scenario" in workloads.WORKLOADS[name]:
            result["simulate_s"] = sum(t for cmd, t in steps if cmd == "simulate") if samples else limit
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def summary_line(result: dict) -> str:
    parts = [f"{result['name']}:"]
    for key, (value, unit) in result.get("metrics", {}).items():
        # The JSON line carries every per-span figure; show the layer totals here.
        if not key.endswith((".s", ".self_s", ".calls")) or key.startswith(("layer.", "trace.")):
            parts.append(f"{key}={value:.6g} {unit}")
    if "simulate_s" in result:
        parts.append(f"simulate_s={result['simulate_s']:.6g} s")
    parts.append(f"failed_ratio={result['failed'] / result['attempted']:.6g} ratio "
                 f"({result['failed']}/{result['attempted']} calls)")
    parts.append(f"[per-step medians of {result['samples']} untraced iterations]")
    return " ".join(parts)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ratinglab" / "cli.py").is_file():
        print(f"perfbench: program source not found under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    print(f"environment: {environment()}")
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), time.monotonic())
        results.append(result)
        print(summary_line(result))
        for error in result["errors"][:20]:
            print(f"  error: {error}")

    prefix = len(results) > 1
    metrics = {}
    for r in results:
        for key, (value, unit) in r.get("metrics", {}).items():
            metrics[f"{r['name']}.{key}" if prefix else key] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": all(not r["errors"] and "metrics" in r for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
