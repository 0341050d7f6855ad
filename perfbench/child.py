"""Runs inside a fresh interpreter started by run.py; never imported by it.

``child.py setup DIR``
    Imports ``ratinglab.cli`` and puts a tiny simulated panel through
    every subcommand, writing into DIR.  Exits 0 if every call did.

``child.py measure SPEC``
    Runs the pipeline described by the JSON file SPEC over and over for
    ``seconds``.  Iteration 0 is the warm-up; its outputs stay in
    ``out0`` for run.py to check, and every later iteration must
    reproduce them byte for byte.  With ``trace`` set, the iterations
    after the warm-up alternate between untraced and traced.

Every result goes to stdout as one JSON line, so that run.py can still
account for each call when this process has to be killed.  A ``start``
line precedes each call; its ``call`` line follows once the call's
outputs have been compared.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import gc
import hashlib
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import workloads

_stdout = sys.stdout


def emit(record: dict) -> None:
    _stdout.write(json.dumps(record) + "\n")
    _stdout.flush()


def call_cli(cli, argv: list[str]) -> tuple[float, str]:
    """Run one CLI call; returns (seconds, error text or "")."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # a traceback is a failed call
        return time.perf_counter() - start, f"raised {exc!r}"
    elapsed = time.perf_counter() - start
    if code != 0:
        return elapsed, f"exit code {code}: {err.getvalue().strip()}"
    if err.getvalue():
        return elapsed, f"wrote to stderr: {err.getvalue().strip()}"
    return elapsed, ""


def digest(path: Path) -> str:
    files = sorted(path.iterdir()) if path.is_dir() else [path]
    h = hashlib.sha256()
    for f in files:
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def setup(directory: Path) -> int:
    import ratinglab.cli as cli

    directory.mkdir(parents=True, exist_ok=True)
    scenario = directory / "scenario.txt"
    scenario.write_text(workloads.scenario_text(workloads.SETUP_SCENARIO), encoding="utf-8")
    spec = {"scenario": workloads.SETUP_SCENARIO,
            "analyses": [["counts"], ["moments"], ["homogeneity"], ["ck"]]}
    calls = workloads.pipeline_calls(spec, directory, directory / "out", seed=1)
    errors = [call_cli(cli, argv)[1] for argv in calls]
    return 1 if any(errors) else 0


def retained_bytes(ingest, panel_csv: Path) -> int:
    """Bytes still allocated after parse_panel, with the parsed panel held."""
    import tracemalloc

    parse_panel = getattr(ingest, "parse_panel", None)
    if parse_panel is None:
        return 0
    days = [line.split(",")[1] for line in panel_csv.read_text(encoding="utf-8").splitlines()[1:]]
    dates = (dt.date.fromisoformat(min(days)), dt.date.fromisoformat(max(days)))
    del days
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        panel = parse_panel(panel_csv, dates)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del panel
    return held


def measure(spec_path: Path) -> int:
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    import ratinglab.cli as cli

    if spec["trace"]:
        import tracer as tracing
    layer_totals: dict[str, dict[str, float]] = {}
    traced_iterations = span_count = 0

    work = Path(spec["workdir"])
    workload = workloads.WORKLOADS[spec["workload"]]
    reference: list[str] = []
    deadline = time.perf_counter() + spec["seconds"]
    min_timed = 2 if spec["trace"] else 1
    iteration = 0
    while True:
        outdir = work / ("out0" if iteration == 0 else "out1")
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir()
        calls = workloads.pipeline_calls(workload, work, outdir, spec["seed"])
        traced = spec["trace"] and iteration > 0 and iteration % 2 == 0
        if traced:
            tracer = tracing.Tracer()
            tracer.install()
        for k, argv in enumerate(calls):
            emit({"start": argv[0], "i": iteration})
            elapsed, error = call_cli(cli, argv)
            output = Path(argv[argv.index("--output") + 1])
            if not error and not output.exists():
                error = f"{output.name} not written"
            if iteration == 0:
                reference.append("" if error else digest(output))
            elif not error and digest(output) != reference[k]:
                error = f"{output.name} differs from the warm-up iteration's bytes"
            emit({"call": argv[0], "i": iteration, "k": k, "s": elapsed, "error": error,
                  "traced": traced})
        if traced:
            tracer.uninstall()
            for name, row in tracing.aggregate(tracer).items():
                total = layer_totals.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
                for key in total:
                    total[key] += row[key]
            with open(spec["spans_file"], "w" if traced_iterations == 0 else "a",
                      encoding="utf-8") as f:
                for record in tracing.spans_as_records(tracer):
                    f.write(json.dumps(record) + "\n")
            traced_iterations += 1
            span_count += len(tracer.names)
        iteration += 1
        if iteration > min_timed and time.perf_counter() >= deadline:
            break

    done = {"done": True, "iterations": iteration,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if spec["trace"]:
        import ratinglab.ingest as ingest
        done["layers"] = {name: {key: value / traced_iterations for key, value in row.items()}
                          for name, row in layer_totals.items()}
        done["spans_per_iteration"] = span_count / traced_iterations
        done["retained_bytes"] = retained_bytes(ingest, Path(spec["panel_for_memory"]))
    emit(done)
    return 0


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "setup":
        return setup(Path(argv[1]))
    if len(argv) == 2 and argv[0] == "measure":
        return measure(Path(argv[1]))
    print("usage: child.py setup DIR | child.py measure SPEC", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
