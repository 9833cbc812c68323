"""Seeded closed-loop benchmark of the team_disclosure engines.

    python3 perfbench/run.py --workload equilibrium-search --seed 1 --seconds 25 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

- ``equilibrium-search``: ``find_equilibria_report`` on every 2- and 3-member
  protocol, plus 4-member k-majority instances;
- ``belief-refinement``: ``plausible_full_disclosure_by_search`` on binary
  distributions, plus in-process ``cli.main(["verify", ...])`` calls whose
  posteriors no deterministic profile reaches;
- ``binary-sweep``: the four default ``sweep`` panels at the default
  ``--jobs``, plus ``optimal-k`` at n = 10, 20, 40, 80.

The run repeats the workload's fixed input set, one fresh interpreter per
repetition (``worker.py``), until ``--seconds`` have passed and at least
``MIN_REPETITIONS`` have run. Each call's latency is scaled to reference
seconds by the calibration sample taken right after it (``calibration.py``),
and each call gets the median of its scaled latencies over the repetitions;
this keeps the speed swings of a shared machine out of the figures. The
metadata line also carries the unscaled figures. Every output is checked; a
call that raises or fails its check counts its instances as failed.

With ``--trace 0`` the last line reports the end-to-end metrics:

- ``instances_per_s``: instances ÷ the sum of the calls' median latencies;
- ``latency_p50_ms``, ``latency_p95_ms``: latency of one timed call, which
  is one instance except on ``binary-sweep``, where it is one CLI call. Its
  eight calls leave fewer than ten samples beyond p95, so there p95 is in
  effect the slowest call (panel a);
- ``setup_s``: median time from starting a repetition's interpreter to the
  end of its set-up (import, input generation, one untimed warm-up call),
  scaled by calibration samples taken just before and just after it;
- ``peak_rss_mb``: median peak resident memory of a repetition's process.

With ``--trace 1`` it alternates untraced and traced repetitions and reports
the per-layer metrics of the traced repetition with the median wall time
(see ``tracing.py``). The line before the last holds the run's metadata.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".perfbench"
WORKLOADS = ("equilibrium-search", "belief-refinement", "binary-sweep")
MIN_REPETITIONS = 3
REPETITION_TIMEOUT_S = 60
# No repetition starts after this, so a run ends within 180 s.
RUN_DEADLINE_S = 110

END_TO_END_UNITS = {
    "instances_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def _git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _repetition(args, trace: int, index: int) -> dict:
    tag = f"{os.getpid()}-{index}"
    result = SCRATCH / f"result-{tag}.json"
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
        "--trace", str(trace), "--workdir", str(SCRATCH / f"work-{tag}"), "--result", str(result),
    ]
    if trace:
        cmd += ["--spans", str(SCRATCH / f"spans-{args.workload}.tsv")]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(SCRATCH))
    before = calibration.sample(calibration.SETUP_BRACKET_S)
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=REPETITION_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repetition {index} exceeded {REPETITION_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"repetition {index} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    report = json.loads(result.read_text())
    result.unlink()
    report["setup_s"] = report["setup_done_at"] - started
    after = report["setup_calibration"]
    report["setup_factor"] = calibration.factor(before[0] + after[0], before[1] + after[1])
    return report


def _latencies(rep: dict, scaled: bool) -> list[float]:
    """A repetition's call latencies, each scaled by the speed measured in the
    calibration sample right after it (see calibration.py)."""
    if not scaled:
        return rep["latencies"]
    return [x * calibration.factor(*sample) for x, sample in zip(rep["latencies"], rep["calibration"])]


def _end_to_end(reps: list[dict], scaled: bool = True) -> tuple[dict, dict]:
    """End-to-end metrics over the repetitions, in reference seconds unless
    ``scaled`` is false (see calibration.py)."""
    weights = reps[0]["weights"]
    medians = [statistics.median(col) for col in zip(*(_latencies(r, scaled) for r in reps))]
    cuts = statistics.quantiles(medians, n=20)
    metrics = {
        "instances_per_s": sum(weights) / sum(medians),
        "latency_p50_ms": statistics.median(medians) * 1e3,
        "latency_p95_ms": cuts[18] * 1e3,
        "setup_s": statistics.median(r["setup_s"] * (r["setup_factor"] if scaled else 1.0) for r in reps),
        "peak_rss_mb": statistics.median(r["maxrss_mb"] for r in reps),
    }
    samples = {
        "instances_per_repetition": sum(weights),
        "calls_per_repetition": len(weights),
        "repetitions": len(reps),
        "latency_samples": len(medians),
        "samples_beyond_p95": sum(1 for x in medians if x > cuts[18]),
        "speed_factors": [r["speed_factor"] for r in reps],
    }
    return metrics, samples


def _per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    walls = [r["traced_wall_s"] for r in traced]
    chosen = sorted(traced, key=lambda r: r["traced_wall_s"])[(len(traced) - 1) // 2]
    metrics = dict(chosen["layers"])
    counters = chosen["counters"]
    metrics["equilibrium.sliced_searches"] = float(counters.get("sliced_searches", 0))
    metrics["equilibrium.verify_rejects"] = float(counters.get("verify_rejects", 0))
    base = metrics["equilibrium.search_verify_calls"]
    on_path = counters.get("on_path_equilibria", 0)
    metrics["equilibrium.accept_ratio"] = on_path / base if base else 0.0
    refinements = metrics.get("equilibrium.plausible_full_disclosure_by_search.calls", 0.0) + metrics.get(
        "equilibrium.consistent_with_deliberation.calls", 0.0
    )
    metrics["equilibrium.profiles_per_refinement"] = (
        metrics["equilibrium.refinement_team_rule_calls"] / refinements if refinements else 0.0
    )
    untraced_wall = statistics.median(r["loop_wall_s"] for r in untraced)
    metrics["bench.traced_wall_s"] = chosen["traced_wall_s"]
    metrics["bench.untraced_wall_s"] = untraced_wall
    metrics["bench.trace_overhead_s"] = statistics.median(walls) - untraced_wall
    return metrics


def _declared(kind: str) -> list[dict]:
    spec_path = ROOT / "BENCHMARK.json"
    return json.loads(spec_path.read_text())[kind]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument(
        "--size", default="full", choices=("full", "tiny"),
        help="tiny: a few instances per workload, for selftest.py",
    )
    args = parser.parse_args()

    if not (ROOT / "src" / "team_disclosure" / "__init__.py").exists():
        print("error: src/team_disclosure is missing; run from a full checkout", file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    started = time.monotonic()
    untraced: list[dict] = []
    traced: list[dict] = []
    min_untraced = 1 if args.trace else MIN_REPETITIONS
    try:
        for trace in itertools.cycle((0, 1) if args.trace else (0,)):
            elapsed = time.monotonic() - started
            if trace == 0 and len(untraced) >= min_untraced and elapsed >= args.seconds:
                break
            if untraced and (traced or not args.trace) and elapsed >= RUN_DEADLINE_S:
                break
            (traced if trace else untraced).append(_repetition(args, trace, len(untraced) + len(traced)))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    reps = untraced + traced
    attempted = sum(sum(r["weights"]) for r in reps)
    failed = sum(r["failed_weight"] for r in reps)
    for r in reps:
        for failure in r["failures"]:
            print(f"failed: {failure}", file=sys.stderr)
    digests = sorted({r["digest"] for r in reps})
    e2e, samples = _end_to_end(untraced)
    if args.trace:
        values = _per_layer(untraced, traced)
        declared = _declared("per_layer")
    else:
        values = e2e
        declared = _declared("end_to_end")
    # A layer the workload never calls has no spans; it reads 0.
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in declared}

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpus_affinity": len(os.sched_getaffinity(0)),
        "sweep_jobs": os.cpu_count() or 1,
        "commit": _git_commit(),
        "loop": "closed, one caller",
        "samples": samples,
        "failed_ratio": {"value": failed / attempted, "unit": "ratio"},
        "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()},
        "end_to_end_unscaled": {
            k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in _end_to_end(untraced, False)[0].items()
        },
        "result_digest": digests[0] if len(digests) == 1 else digests,
        "counters": untraced[0]["counters"],
    }
    if args.trace:
        meta["spans_file"] = str((SCRATCH / f"spans-{args.workload}.tsv").relative_to(ROOT))
        meta["note"] = (
            "under the sweep --jobs pool, binary_env work runs in worker processes the "
            "wrappers cannot see; that time appears as cli.main.self_s"
        )
    print(json.dumps({"perfbench": meta}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
