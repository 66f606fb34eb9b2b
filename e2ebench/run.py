#!/usr/bin/env python3
"""End-to-end benchmark of the LbChat experiment cells.

Run from the repository root:

    python3 e2ebench/run.py --workload lbchat-quick [--seed 42] [--seconds 60] [--trace 0|1]
    python3 e2ebench/run.py --check        # every workload, seed 42 and held-out seed 7

The script builds `e2ebench` (a package of its own in this directory)
with cargo, then runs repetitions of the workload, each in a fresh
process so that its peak resident memory is the workload's alone.

--trace 0  repeats the untraced workload until --seconds is used up,
           checks every repetition's deterministic outputs against the
           first one, and reports the end-to-end metrics (medians). The
           times are rescaled to a reference core by the speed of a
           calibration kernel timed around each of them (NOTES.md says
           why).
--trace 1  runs one untraced and one traced repetition, checks that
           their outputs agree bit for bit and that the traced layers
           cover their wall times, and reports the per-layer metrics.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it print the same
metrics for a reader. Metric names and units come from BENCHMARK.json;
NOTES.md says what each one means and which layer should move it.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("lbchat-quick", "baselines-quick-j2")
HELD_OUT_SEED = 7
CHILD_TIMEOUT_S = 170.0
COVERAGE_RANGE = (0.95, 1.05)
# The end-to-end times are seconds on a reference core: one on which a
# block of the calibration kernel (src/calib.rs) takes this long, about an
# idle core of a 2-vCPU Xeon VM at 2.0 GHz.
REF_BLOCK_S = 0.040


class BenchError(Exception):
    """A failure that leaves no result to print."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = lambda key: {m["name"]: m["unit"] for m in spec[key]}
    return units("end_to_end"), units("per_layer")


def build():
    """Builds the benchmark binary and returns its path."""
    cmd = [
        "cargo", "build", "--release", "--offline",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--message-format=json-render-diagnostics",
    ]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=os.getcwd())
    except OSError as e:
        raise BenchError(f"cannot run cargo: {e}")
    if p.returncode != 0:
        raise BenchError(f"cargo build failed with code {p.returncode}")
    exe = None
    for line in p.stdout.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if msg.get("reason") == "compiler-artifact" and msg.get("target", {}).get("name") == "e2ebench":
            exe = msg.get("executable") or exe
    if not exe:
        raise BenchError("cargo build produced no e2ebench executable")
    return exe


def child(exe, args):
    """Runs one repetition in a fresh process. Returns its JSON report
    with `peak_rss_mb` (this process's high-water mark) added."""
    p = subprocess.Popen([exe] + args, stdout=subprocess.PIPE, text=True)
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        while True:
            pid, status, usage = os.wait4(p.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                raise BenchError(f"{' '.join(args)} timed out")
            time.sleep(0.02)
        p.returncode = os.waitstatus_to_exitcode(status)
        out = p.stdout.read()
    finally:
        if p.returncode is None:
            p.kill()
            p.wait()
        p.stdout.close()
    if p.returncode != 0:
        raise BenchError(f"e2ebench {' '.join(args)} exited with {p.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"e2ebench {' '.join(args)} printed nothing")
    report = json.loads(lines[-1])
    for err in [report.get("error")] + report.get("errors", []):
        if err:
            log(f"e2ebench {' '.join(args)}: cell error: {err}")
    report["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # Linux reports KiB
    return report


def cell_ok(cell):
    """Sanity of one cell's outputs, independent of any other run."""
    if cell is None or cell["final_loss"] is None:
        return False
    rates = cell["rates"]
    return (
        math.isfinite(cell["final_loss"])
        and len(rates) == cell["tasks"]
        and all(0.0 <= r <= 100.0 for r in rates)
        and 0.0 <= cell["receiving_rate"] <= 1.0
    )


def failed_cells(outputs, reference):
    """Cells that are missing, non-finite, out of range, or differ from the
    reference outputs. A differing `train.samples` count fails every cell."""
    cells = outputs["cells"]
    if outputs["train_samples"] != reference["train_samples"]:
        return len(cells)
    return sum(
        1 for c, r in zip(cells, reference["cells"]) if not cell_ok(c) or c != r
    )


def quality(outputs):
    """The deterministic quality numbers of a run's outputs (none when no
    cell produced outputs)."""
    cells = [c for c in outputs["cells"] if cell_ok(c)]
    if not cells:
        return {}
    return {
        "final_loss": statistics.mean(c["final_loss"] for c in cells),
        "success_pct": statistics.mean(r for c in cells for r in c["rates"]),
        "receiving_rate": statistics.mean(c["receiving_rate"] for c in cells),
    }


def rescaled(rep):
    """A repetition's set-up times and its run time on the reference core.
    Each set-up, and each harness call, is timed between two calibration
    samples; its wall time is multiplied by REF_BLOCK_S over their mean."""
    c = rep["calib_s"]
    scale = lambda i: REF_BLOCK_S / ((c[i] + c[i + 1]) / 2)
    setup = [t * scale(0) for t in rep["setup_s"]]
    run = sum(t * scale(k + 1) for k, t in enumerate(rep["stage_s"]))
    return setup, run


def run_e2e(exe, workload, seed, seconds):
    args = ["run", workload, "--seed", str(seed)]
    start = time.monotonic()
    reps = []
    while True:
        reps.append(child(exe, args))
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(reps) > seconds:
            break
    reference = reps[0]["outputs"]
    n_cells = len(reference["cells"])
    failed = sum(failed_cells(r["outputs"], reference) for r in reps)
    attempted = n_cells * len(reps)
    scaled = [rescaled(r) for r in reps]
    # A repetition cut short by a cell error ran fewer cells; its run time
    # counts only when no repetition is whole.
    whole = [run for (_, run), r in zip(scaled, reps) if r["error"] is None]
    metrics = {
        "setup_s": statistics.median(t for setup, _ in scaled for t in setup),
        "run_s": statistics.median(whole or [run for _, run in scaled]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "cells_ok": 1.0 - failed / attempted,
    }
    wall = [sum(r["stage_s"]) for r in reps]
    log(
        f"{workload}: {len(reps)} repetitions, run_s {[round(run, 3) for _, run in scaled]}, "
        f"wall {[round(t, 3) for t in wall]}"
    )
    # Printed for the reader only: the raw wall times, and the core's
    # speed relative to the reference core.
    shown = {
        "wall_run_s": (statistics.median(wall), "s"),
        "wall_setup_s": (statistics.median(t for r in reps for t in r["setup_s"]), "s"),
        "core_speed": (REF_BLOCK_S / statistics.median(c for r in reps for c in r["calib_s"]), "ratio"),
    }
    # Deterministic outputs: printed for the reader, gated by the output
    # check, but not end-to-end metrics (they vary with the seed).
    shown["failed_cells"] = (failed / attempted, "ratio")
    units = {"final_loss": "loss", "success_pct": "%", "receiving_rate": "ratio"}
    shown.update((k, (v, units[k])) for k, v in quality(reference).items())
    return attempted, failed, metrics, shown


def run_traced(exe, workload, seed):
    untraced = child(exe, ["run", workload, "--seed", str(seed)])
    traced = child(exe, ["trace", workload, "--seed", str(seed)])
    reference = untraced["outputs"]
    n_cells = len(reference["cells"])
    failed = failed_cells(reference, reference)
    failed = max(failed, failed_cells(traced["outputs"], reference))
    if traced["errors"] or not traced["repeat_matches"]:
        failed = n_cells
    coverage_ok = all(
        COVERAGE_RANGE[0] <= v <= COVERAGE_RANGE[1] for v in traced["coverage"].values()
    )
    if not coverage_ok:
        log(f"{workload}: trace coverage outside {COVERAGE_RANGE}: {traced['coverage']}")
    metrics = dict(traced["metrics"])
    metrics["obs.events"] = untraced["obs_events"]
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - sum(untraced["stage_s"])
    metrics.update((f"out.{k}", v) for k, v in quality(reference).items())
    log(f"{workload}: traced outputs {'match' if failed == 0 else 'DIFFER from'} the untraced run")
    return n_cells, failed, coverage_ok, metrics


def report(attempted, failed, correct, metrics, units, shown=None):
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise BenchError(f"metrics missing from the run: {missing}")
    for name, (value, unit) in (shown or {}).items():
        print(f"{name:32s} {value:16.6f} {unit}")
    out = {}
    for name, unit in units.items():
        value = float(metrics[name])
        print(f"{name:32s} {value:16.6f} {unit}")
        out[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}))


def check(exe):
    """Every workload on seed 42 and on the held-out seed: the traced run's
    output checks (untraced ≡ traced ≡ obs-disabled repeat) must pass."""
    ok = True
    for seed in (42, HELD_OUT_SEED):
        for workload in WORKLOADS:
            _, failed, coverage_ok, _ = run_traced(exe, workload, seed)
            passed = failed == 0 and coverage_ok
            print(f"check {workload} seed {seed}: {'pass' if passed else 'FAIL'}")
            ok = ok and passed
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", action="store_true", help="held-out seed check of every workload")
    a = ap.parse_args()
    if not a.check and not a.workload:
        ap.error("--workload is required")
    try:
        e2e_units, layer_units = load_spec()
        exe = build()
        if a.check:
            return 0 if check(exe) else 1
        if a.trace:
            attempted, failed, coverage_ok, metrics = run_traced(exe, a.workload, a.seed)
            report(attempted, failed, failed == 0 and coverage_ok, metrics, layer_units)
        else:
            attempted, failed, metrics, shown = run_e2e(exe, a.workload, a.seed, a.seconds)
            report(attempted, failed, failed == 0, metrics, e2e_units, shown)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"e2ebench: {e}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
