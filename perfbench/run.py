"""Whole-pipeline benchmark of the paritygame library.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload random --seed 1 --seconds 30 --trace 0

Each run starts one fresh interpreter for the workload (``child.py``) and
then a few import-only interpreters for the set-up samples, one after
another.  Every reported time is normalised by a reference workload timed
next to it (``reference.py``), so that the host's changes of speed cancel;
the median as measured is printed beside it.  It prints every metric by
name with its unit, then, as its last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the ``end_to_end`` metrics of ``BENCHMARK.json`` with
``--trace 0``, its ``per_layer`` metrics with ``--trace 1``.  It exits 1
when any output fails a correctness gate, and 2 when the library, the
metric list or a child process is missing or broken.  Per-run records
(samples, output digests, spans) go to ``.perfbench_out/``.

``perfbench/README.md`` describes the workloads and metrics and which layer
metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
# How long the workload process may take; a run must end inside 180 s.
CHILD_TIMEOUT_S = 170.0
PERCENTILES = (99.9, 99, 95, 90, 75)


def tail_percentile(samples):
    """The highest of PERCENTILES whose nearest-rank value has at least ten
    samples above it, with that value; ``None`` if none has."""
    ordered = sorted(samples)
    for p in PERCENTILES:
        rank = max(1, math.ceil(p / 100 * len(ordered)))
        if len(ordered) - rank >= 10:
            return p, ordered[rank - 1]
    return None


def spawn(args, timeout):
    """Run one child interpreter to completion; its last stdout line is
    JSON.  ``subprocess.run`` kills and reaps the child on timeout."""
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--spawned-at", repr(spawned), *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child exited with {proc.returncode}")
    return json.loads(lines[-1])


def summary(samples, raw):
    """Median of the normalised samples, and a note with their count and
    tail and the median of the samples as measured."""
    note = f"median of {len(samples)}"
    tail = tail_percentile(samples)
    if tail is not None:
        note += f"; p{tail[0]:g} {tail[1]:.6f}"
    note += f"; as measured {statistics.median(raw):.6f}"
    return statistics.median(samples), note


def end_to_end(result, setup, raw_setup):
    """End-to-end metrics: normalised medians, each noted with the median
    of the times as measured."""
    values = {"setup_s": summary(setup, raw_setup)}
    for route, samples in result["routes"].items():
        values[f"{route}_s"] = summary(samples, result["raw_routes"][route])
    values["peak_rss_mb"] = result["peak_rss_mb"], "ru_maxrss"
    return values


def per_layer(result):
    """Layer metrics of a traced run.  A call or layer time is the sum over
    routes of the route's median per-pass time in it; generator times are
    medians over the set-up repetitions.  The tracing overhead is the
    calibrated cost of one span times the spans one pass of every route
    records, counted as the route samples count them."""
    layers = result["layers"]

    def per_pass(name):
        return sum(statistics.median(s.get(name, 0.0) for s in samples)
                   for samples in layers.values())

    spans_per_pass = per_pass("spans")
    generate = [g * REFERENCE_S / r for g, r in zip(result["generate_s"], result["setup_reference_s"])]
    values = {
        "generators.generate_s": summary(generate, result["generate_s"]),
        "generators.self_s": summary(generate, result["generate_s"]),
    }
    for name in sorted({n for samples in layers.values() for s in samples for n in s} - {"spans"}):
        values[name] = per_pass(name), "per pass"
    values["trace.overhead_s"] = (spans_per_pass * result["span_cost_s"],
                                  f"{spans_per_pass:.0f} spans x {result['span_cost_s']:.3g} s")
    for name, value in (result["counts"] or {}).items():
        values[name] = value, "exact"
    for name, count in result["layer_failed"].items():
        values[f"{name}.failed"] = count, "exact"
    values["trace.spans"] = result["span_count"], "recorded"
    return values


def main() -> int:
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in declared["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "paritygame" / "__init__.py").is_file():
        print(f"error: no paritygame sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        spans = ["--spans-file", str(OUT / f"spans-{tag}.json")] if args.trace else []
        result = spawn(["--workload", args.workload, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--trace", str(args.trace), *spans],
                       CHILD_TIMEOUT_S)
        probes = [{"import_s": result["import_s"], "reference_s": result["setup_reference_s"][0]}]
        while len(probes) < len(result["setup_work_s"]):
            probes.append(spawn(["--probe"], deadline - time.monotonic()))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # A set-up sample is one interpreter's start and imports, normalised by
    # the reference time in that interpreter, plus one repetition of the
    # generation and writing, normalised by the reference time after it.
    raw_setup = [p["import_s"] + w for p, w in zip(probes, result["setup_work_s"])]
    setup = [REFERENCE_S * (p["import_s"] / p["reference_s"] + w / r)
             for p, w, r in zip(probes, result["setup_work_s"], result["setup_reference_s"])]
    print(f"workload {args.workload}, seed {args.seed}, {'traced' if args.trace else 'untraced'}: "
          f"{len(result['routes']['solve'])} passes; repetitions per game: "
          + ", ".join(f"{r} {k}" for r, k in result["repeats"].items()))
    values = end_to_end(result, setup, raw_setup)
    if args.trace:
        values.update(per_layer(result))
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    values["error_rate"] = (result["failed"] / result["attempted"],
                            f"{result['failed']} of {result['attempted']} (game, route) "
                            "operations failed")
    units.update({"error_rate": "ratio", "trace.spans": "count"})
    for name, (value, note) in values.items():
        print(f"{name:34s} {value:14.6f} {units.get(name, 's'):6s} {note}")
    for key, d in sorted(result["digests"].items()):
        print(f"sha256 {key}: {d}")
    for failure in result["failures"][:20]:
        print(f"FAILED {failure}")

    correct = result["failed"] == 0 and not result["failures"]
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "setup_s": setup, "raw_setup_s": raw_setup, "probes": probes,
         "child": result}))
    metrics = {}
    for m in declared["per_layer" if args.trace else "end_to_end"]:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]][0], "unit": m["unit"]}
        elif correct:
            print(f"error: no value for declared metric {m['name']}", file=sys.stderr)
            return 2
        else:  # a failed route leaves some counts unmeasured
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
