"""One timed repetition of a workload, in a fresh interpreter.

Started by ``run.py``; writes its measurements as JSON to ``--result``. A
fresh interpreter per repetition keeps the package's own caches (such as the
search tables' ``lru_cache``) from turning repeated instances into cache hits.
Import, input generation and one untimed warm-up call make up the set-up
time, which ``run.py`` counts from the moment it starts the interpreter.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import calibration
import tracing
import workloads


def _layer_metrics(tracer: tracing.Tracer, root: int) -> dict[str, float]:
    """Calls and self time per traced function and per module, plus the
    parent/child call counts that the ratio metrics need."""
    own = tracer.self_times()
    names = tracer.names
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for idx, name_id in enumerate(tracer.name_id):
        keys = [names[name_id]]
        if idx == root:
            keys = ["bench"]
        else:
            keys.append(names[name_id].split(".", 1)[0])
            if tracer.tag_id[idx] >= 0:
                keys.append(f"{names[name_id]}.self_s.{names[tracer.tag_id[idx]]}")
        calls[keys[0]] = calls.get(keys[0], 0) + 1
        for key in keys:
            self_s[key] = self_s.get(key, 0.0) + own[idx]
    metrics = {f"{k}.calls": float(v) for k, v in calls.items()}
    for key, value in self_s.items():
        metrics[key if ".self_s." in key else f"{key}.self_s"] = value

    def children_of(parent_names, child_name):
        wanted = {tracer.intern(p) for p in parent_names}
        child = tracer.intern(child_name)
        return sum(
            1
            for idx, name_id in enumerate(tracer.name_id)
            if name_id == child and tracer.parent[idx] >= 0
            and tracer.name_id[tracer.parent[idx]] in wanted
        )

    metrics["equilibrium.search_verify_calls"] = float(
        children_of(["equilibrium.find_equilibria_report"], "equilibrium.verify_equilibrium")
    )
    metrics["equilibrium.refinement_team_rule_calls"] = float(
        children_of(
            ["equilibrium.plausible_full_disclosure_by_search", "equilibrium.consistent_with_deliberation"],
            "equilibrium.team_rule",
        )
    )
    metrics["bench.spans"] = float(len(tracer.start))
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", help="where a traced repetition writes its spans")
    args = parser.parse_args()

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.build(args.workload, args.seed, args.size, workdir)
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)
        wl.warmup.check(wl.warmup.run())
        setup_done_at = time.monotonic()
        setup_sample = calibration.sample(calibration.SETUP_BRACKET_S)
        wl.counters.clear()
        wl.digest = hashlib.sha256()
        if tracer:
            tracer.reset()
            root = tracer.open(tracer.intern("bench.loop"))

        first_call_at = time.monotonic()
        latencies = []
        samples = []
        failures = []
        failed_weight = 0
        for call in wl.calls:
            t0 = time.perf_counter()
            try:
                result, error = call.run(), None
            except Exception:  # a raising instance is counted as failed, not fatal
                result, error = None, traceback.format_exc(limit=3)
            latencies.append(time.perf_counter() - t0)
            samples.append(calibration.sample(calibration.SHARE * latencies[-1]))
            if error is None:
                try:
                    bad = call.check(result)
                except Exception:
                    bad = [f"{call.label} output unreadable: {traceback.format_exc(limit=3)}"]
            else:
                bad = [f"{call.label} raised: {error}"]
            if bad:
                failures += bad
                failed_weight += call.weight
        loop_wall = time.monotonic() - first_call_at

        report = {
            "setup_done_at": setup_done_at,
            "setup_calibration": setup_sample,
            "latencies": latencies,
            "weights": [c.weight for c in wl.calls],
            "failed_weight": failed_weight,
            "failures": failures[:20],
            "counters": wl.counters,
            "digest": wl.digest.hexdigest(),
            "loop_wall_s": loop_wall,
            "speed_factor": calibration.factor(*map(sum, zip(*samples))),
            "calibration": samples,
            "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        if tracer:
            tracer.close(root)
            report["traced_wall_s"] = tracer.end[root] - tracer.start[root]
            report["layers"] = _layer_metrics(tracer, root)
            if args.spans:
                tracer.write(args.spans)
        Path(args.result).write_text(json.dumps(report))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
