"""One workload in a fresh interpreter: set up, run passes, print results.

Started by ``run.py``; prints one JSON object on its last stdout line.
With ``--probe`` it only imports the library and reports how long
interpreter start and imports took, for the set-up samples, and how long
the reference workload takes in that process.

Everything runs serially in this one process and thread.  The garbage
collector runs before every (game, route) operation and every round of the
reference workload, outside their timed regions.  Every time is reported
twice: as measured, and normalised by the reference workload timed next to
it (``reference.py``).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import paritygame  # noqa: E402

if Path(paritygame.__file__).resolve().parent != SRC / "paritygame":
    sys.exit(f"paritygame was imported from {paritygame.__file__}, not from {SRC}")

from paritygame import convert_priorities, write_pgsolver  # noqa: E402

import families  # noqa: E402
import pipeline  # noqa: E402
from spans import NullTracer, Tracer, as_records, span_cost  # noqa: E402

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import reference  # noqa: E402

# Every run makes at least this many timed passes, whatever ``--seconds`` says.
MIN_PASSES = 2


def setup(specs, seed, reps, traced):
    """Generate every game and write its text ``reps`` times, each
    followed by a round of the reference workload.  Returns the texts and
    the generated games' fingerprints (the games themselves are dropped, so
    they do not count towards peak memory), the time of each repetition, the
    generator time of each repetition, the reference time after each
    repetition, whether all repetitions wrote the same text, and the spans
    of a traced set-up."""
    seconds, generate, refs, digests, spans = [], [], [], set(), []
    for rep in range(reps):
        tracer = Tracer() if traced else NullTracer()
        start = time.perf_counter()
        with tracer.span(f"setup/{rep}", "setup"):
            games = [spec.build(tracer.call, seed) for spec in specs]
            texts = [write_pgsolver(convert_priorities(g, "min_to_max")) for g in games]
        seconds.append(time.perf_counter() - start)
        gc.collect()
        refs.append(reference.timed())
        if traced:
            generate.append(sum(e - s for _, name, _, s, e in tracer.spans
                                if name.startswith("generators.")))
            spans += tracer.spans
        digests.add(pipeline.digest("\n".join(texts)))
    fingerprints = [pipeline.fingerprint(g) for g in games]
    return texts, fingerprints, seconds, generate, refs, len(digests) == 1, spans


def layer_sample(spans, repeats, scale):
    """Per-call and per-layer time of one traced route pass, and its number
    of spans, divided by the route's repetitions; times are multiplied by
    ``scale``, the pass's normalisation.  Call spans have no children, so a
    layer's self time is the sum of its call spans' durations."""
    sample: dict[str, float] = {"spans": len(spans) / repeats}
    for _, name, _, start, end in spans:
        if name.startswith("route."):
            continue
        for key in (f"{name}_s", f"{name.split('.')[0]}.self_s"):
            sample[key] = sample.get(key, 0.0) + (end - start) * scale / repeats
    return sample


def measure(specs, texts, fingerprints, seconds, traced, tally, repeats):
    """Run a warm-up pass, then timed passes until the next one would
    likely end after ``seconds`` seconds, and at least MIN_PASSES.  A pass
    takes the games in turn and runs every route on each,
    ``repeats[route]`` times back to back, so a cheap route's repetitions
    sit between the costly routes' operations on each game rather than in
    one block.  Before each game's block of a route, one round of the
    reference workload is timed.  A timed pass gives each route one raw
    sample, its total time over the games divided by its repetitions, and
    one normalised sample: the raw sample divided by the pass's mean
    reference time, times ``REFERENCE_S``.  The warm-up pass gives no
    sample; it runs the costly gates, takes the direct winners every other
    route is compared with, and gives the exact counts.  In a traced run
    every timed pass is traced.
    """
    samples = {route: [] for route in pipeline.ROUTES}
    raw = {route: [] for route in pipeline.ROUTES}
    layers = {route: [] for route in pipeline.ROUTES}
    direct: dict = {}
    per_op: list = []
    spans: list = []
    pass_no = 0
    while pass_no <= MIN_PASSES or (
            time.perf_counter() - start) * pass_no / (pass_no - 1) <= seconds:
        if pass_no == 1:
            start = time.perf_counter()
        warm_up = pass_no == 0
        tracers = {route: Tracer() if traced and not warm_up else NullTracer()
                   for route in pipeline.ROUTES}
        totals = dict.fromkeys(pipeline.ROUTES, 0.0)
        refs = []
        for spec, text, generated in zip(specs, texts, fingerprints):
            for route in pipeline.ROUTES:
                gc.collect()
                refs.append(reference.timed())
                for rep in range(repeats.get(route, 1)):
                    first = warm_up and rep == 0
                    gc.collect()
                    elapsed, out = pipeline.run_route(
                        route, spec, text, tracers[route],
                        f"{pass_no}/{spec.name}/{route}/{rep}", tally,
                        direct.get(spec.name), generated if first else None)
                    totals[route] += elapsed
                    if first:
                        per_op.append(None if out is None else pipeline.op_counts(route, out))
                        if route == "solve" and out is not None:
                            direct[spec.name] = out["solution"].winner
                    del out
        pass_no += 1
        if warm_up:
            continue
        scale = reference.REFERENCE_S * len(refs) / sum(refs)
        for route in pipeline.ROUTES:
            k = repeats.get(route, 1)
            raw[route].append(totals[route] / k)
            samples[route].append(totals[route] * scale / k)
            if traced:
                layers[route].append(layer_sample(tracers[route].spans, k, scale))
                spans += as_records(tracers[route].spans)
    return {
        "routes": samples,
        "raw_routes": raw,
        "layers": layers,
        "repeats": {route: repeats.get(route, 1) for route in pipeline.ROUTES},
        "counts": pipeline.pass_counts(per_op),
        "spans": spans,
    }


def span_scale():
    """The normalisation for the span cost, from reference rounds timed
    next to its calibration."""
    refs = []
    for _ in range(5):
        gc.collect()
        refs.append(reference.timed())
    return reference.REFERENCE_S * len(refs) / sum(refs)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workload", choices=sorted(families.WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--spans-file")
    args = ap.parse_args()
    import_s = READY - args.spawned_at
    if args.probe:
        print(json.dumps({"import_s": import_s,
                          "reference_s": statistics.median(reference.timed() for _ in range(3))}))
        return 0

    specs = families.WORKLOADS[args.workload]
    traced = bool(args.trace)
    texts, fingerprints, setup_s, generate_s, setup_refs, same_text, setup_spans = setup(
        specs, args.seed, families.SETUP_REPS, traced)

    tally = pipeline.Tally()
    if not same_text:
        tally.layer_failed["generators"] += 1
        tally.failures.append("setup: repetitions wrote different game text")
    measured = measure(specs, texts, fingerprints, args.seconds, traced, tally,
                       families.REPEATS.get(args.workload, {}))
    span_records = as_records(setup_spans) + measured.pop("spans")
    if args.spans_file:
        Path(args.spans_file).write_text(json.dumps(span_records))
    result = {
        "import_s": import_s,
        "setup_work_s": setup_s,
        "generate_s": generate_s,
        "setup_reference_s": setup_refs,
        **measured,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "layer_failed": tally.layer_failed,
        "failures": tally.failures,
        "digests": {f"{g}/{r}": d for (g, r), d in tally.digests.items()},
        "span_count": len(span_records),
        "span_cost_s": span_cost() * span_scale() if traced else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
