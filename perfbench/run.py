"""selberg3 benchmark: one seeded workload per run, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/`.
The workload's set-up runs once, then whole passes over its seeded op list
repeat until S seconds at reference speed (see below) have been measured
and the workload's minimum number of passes has run (a traced run makes
at least two).  Every op checks its
output; an op that raises or fails its check is counted in `failed` and
the run goes on.

--trace 0 reports the end-to-end metrics, measured with tracing off.  Every
time is wall time scaled to reference host speed (see harness.py: each op
is bracketed by a fixed reference loop); the raw wall times are printed in
the provenance line.
  run_s        median time of one pass
  setup_s      median import time of the workload's modules in three fresh
               interpreters, plus the one-time precomputation
  op_p50_ms    median op latency
  op_tail_ms   latency at the highest percentile with >= 10 samples beyond
               it (the maximum when there are fewer than 20 samples)
  peak_rss_mb  peak resident memory of the process doing the work (of the
               largest child, for cli_session)
fail_ratio = failed / attempted is printed with them; the result line
carries it as `failed` and `attempted`.

--trace 1 alternates untraced and traced passes and reports per-layer
metrics: the self time per pass of the spans around each call into a
layer (span duration minus its child spans, at reference speed), per-pass
counts, the worst
check errors, and tracing.overhead_s (median traced minus median untraced
pass time).  Spans are kept in memory and written to
.perfbench_out/spans-<workload>-seed<N>.json when the run ends.

The last line of standard output is the JSON result
{"correct", "attempted", "failed", "metrics"}; the line before it is the
provenance block.  Exit code 2 without a result when the sources are
missing or set-up fails.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"run_s": "s", "setup_s": "s", "op_p50_ms": "ms",
              "op_tail_ms": "ms", "peak_rss_mb": "MB"}

# name -> (unit, how): "span" self time of the span named name[:-2];
# "count" per-pass sum of a note; "max" worst value of a note
PER_LAYER = {
    "arithmetic_group.enumerate_s": ("s", "span"),
    "arithmetic_group.cuspidal_elliptic_s": ("s", "span"),
    "arithmetic_group.collect_axes_s": ("s", "span"),
    "arithmetic_group.loxodromic_merge_s": ("s", "span"),
    "arithmetic_group.non_cuspidal_elliptic_s": ("s", "span"),
    "arithmetic_group.elements": ("count", "count"),
    "arithmetic_group.axes": ("count", "count"),
    "arithmetic_group.loxodromic_classes": ("count", "count"),
    "arithmetic_group.ambiguous_ratio": ("1", "ratio"),
    "lattice_lfn.kappa_s": ("s", "span"),
    "lattice_lfn.L_direct_s": ("s", "span"),
    "lattice_lfn.L_kronecker_s": ("s", "span"),
    "lattice_lfn.kappa_checkpoints": ("count", "count"),
    "transform.g_from_h_s": ("s", "span"),
    "trace_formula.geometric_side_s": ("s", "span"),
    "trace_formula.cosh_integral_s": ("s", "span"),
    "trace_formula.loxodromic_terms": ("count", "count"),
    "trace_formula.logA_error": ("1", "max"),
    "zeta.build_class_data_s": ("s", "span"),
    "zeta.zeta_truncated_s": ("s", "span"),
    "zeta.central_difference_s": ("s", "span"),
    "zeta.geometric_blocks_s": ("s", "span"),
    "zeta.xi_log_derivative_s": ("s", "span"),
    "zeta.completed_pair_error": ("1", "max"),
    "representation.find_character_s": ("s", "span"),
    "representation.singular_spaces_s": ("s", "span"),
    "eisenstein.eigen_check_s": ("s", "span"),
    "eisenstein.cosets": ("count", "count"),
    "cli.import_s": ("s", "span"),
    **{f"cli.{c}_s": ("s", "span")
       for c in ("enumerate", "classify", "lsum", "identity", "zeta", "trace",
                 "eisenstein-check")},
    "tracing.overhead_s": ("s", "overhead"),
}

SETUP_PROBES = 3


def _git_commit(root: str) -> str:
    try:
        with open(os.path.join(root, ".git", "HEAD")) as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:])) as f:
                return f.read().strip()
        return head
    except OSError:
        return "unknown (not a git checkout)"


def _source_digest(src: str) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(src, "selberg3")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    return h.hexdigest()[:16]


def provenance(root: str, src: str, args) -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "git_commit": _git_commit(root), "source_digest": _source_digest(src),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def per_layer_metrics(tracer, log, passes, setup_scale: float) -> dict:
    from harness import SETUP
    traced = [i for i, t in enumerate(passes) if t]
    self_times = tracer.self_times({r.op_id: r.scale for r in log.records},
                                   default=setup_scale)
    counts: dict = {}
    worst: dict = {}
    for name, value, _, pass_id in tracer.notes:
        per = counts.setdefault(pass_id, {})
        per[name] = per.get(name, 0) + value
        worst[name] = max(worst.get(name, 0.0), value)

    def per_pass(table: dict, key: str) -> float:
        # median over traced passes, plus what set-up did once
        med = statistics.median(table.get(i, {}).get(key, 0.0) for i in traced)
        return med + table.get(SETUP, {}).get(key, 0.0)

    out = {}
    for name, (unit, how) in PER_LAYER.items():
        if how == "span":
            value = per_pass(self_times, name[:-2])
        elif how == "count":
            value = per_pass(counts, name)
        elif how == "max":
            value = worst.get(name, 0.0)
        elif how == "ratio":
            lox = per_pass(counts, "arithmetic_group.loxodromic_classes")
            amb = per_pass(counts, "arithmetic_group.ambiguous_classes")
            value = amb / lox if lox else 0.0
        else:
            value = (statistics.median(log.pass_time(i) for i in traced)
                     - statistics.median(log.pass_time(i)
                                         for i, t in enumerate(passes) if not t))
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "selberg3", "__init__.py")):
        print("perfbench: src/selberg3 not found; run from the root of a "
              "selberg3 checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:          # before numpy is imported, here and in children
        os.environ[var] = "1"
    sys.path.insert(0, src)

    from harness import (REFERENCE_S, OpLog, Tracer, import_probe,
                         latency_stats, measure, peak_rss_mb)
    from workloads import WORKLOADS, Checks

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    traced_run = bool(args.trace)
    tracer = Tracer()
    log = OpLog(tracer)
    wl = WORKLOADS[args.workload](args.seed, Checks(), tracer, log, root,
                                  traced_run)
    try:
        try:
            probes = [log.scaled(lambda: import_probe(list(wl.modules), src,
                                                      root))
                      for _ in range(SETUP_PROBES)]
            tracer.enabled = traced_run
            _, setup_wall, setup_scale = log.scaled(wl.setup)
            tracer.enabled = False
        except Exception as exc:
            print(f"perfbench: set-up failed: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return 2
        passes = measure(args.seconds, wl.run_pass, log, traced_run,
                         wl.min_passes)
    finally:
        wl.close()

    untraced = [i for i, t in enumerate(passes) if not t]
    latencies = [r.wall * r.scale for r in log.records
                 if r.timed and r.pass_id in untraced]
    lat = latency_stats(latencies)
    prov = provenance(root, src, args)
    prov.update(
        passes=len(passes), ops=log.attempted,
        tail_percentile=lat["tail_percentile"],
        tail_samples_beyond=lat["samples_beyond"], latency_samples=lat["samples"],
        reference_s={"nominal": REFERENCE_S,
                     "median": statistics.median(log.references)},
        wall={"run_s": statistics.median(log.pass_time(i, raw=True)
                                         for i in untraced),
              "setup_s": statistics.median(t for _, t, _ in probes) + setup_wall})
    if traced_run:
        metrics = per_layer_metrics(tracer, log, passes, setup_scale)
        out_dir = os.path.join(root, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as f:
            json.dump({"provenance": prov, "passes": passes,
                       "ops": [r.__dict__ for r in log.records], **tracer.dump()},
                      f)
    else:
        metrics = {
            "run_s": statistics.median(log.pass_time(i) for i in untraced),
            "setup_s": (statistics.median(t * k for _, t, k in probes)
                        + setup_wall * setup_scale),
            "op_p50_ms": 1e3 * lat["p50"],
            "op_tail_ms": 1e3 * lat["tail"],
            "peak_rss_mb": peak_rss_mb(children=wl.uses_children),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}

    for msg in log.failures:
        print(f"FAILED {msg}")
    print(f"{'metric':44s} {'value':>14s}  unit")
    for name, m in sorted(metrics.items()):
        print(f"{name:44s} {m['value']:14.6g}  {m['unit']}")
    print(f"{'fail_ratio':44s} {log.failed / log.attempted:14.6g}  1  "
          f"({log.failed} of {log.attempted} ops)")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps({"correct": log.failed == 0, "attempted": log.attempted,
                      "failed": log.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
