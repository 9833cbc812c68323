"""Self-test of the benchmark at tiny size.

    python3 perfbench/selftest.py

For every workload, an untraced and a traced run must exit 0, pass their
correctness gates, and emit exactly the metrics BENCHMARK.json declares with
their units; every metric of a layer the workload exercises must be nonzero;
and the traced self times plus the benchmark's own loop time must add up to
the traced wall time. Last, a run in a directory holding only BENCHMARK.json
and the benchmark's files must fail without printing a result.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MODULES = ("protocols", "outcomes", "equilibrium", "binary_env", "configio", "cli")

# Per-layer metrics that must be nonzero on each workload (prefix match).
EXERCISED = {
    "equilibrium-search": (
        "equilibrium.find_equilibria_report.",
        "equilibrium.verify_equilibrium.",
        "equilibrium.sliced_searches",
        "equilibrium.accept_ratio",
        "equilibrium.search_verify_calls",
        "equilibrium.team_rule.",
        "outcomes.posterior_no_disclosure.",
        "protocols.evaluate.",
    ),
    "belief-refinement": (
        "equilibrium.plausible_full_disclosure_by_search.",
        "equilibrium.consistent_with_deliberation.",
        "equilibrium.profiles_per_refinement",
        "equilibrium.refinement_team_rule_calls",
        "equilibrium.team_rule.",
        "outcomes.posterior_no_disclosure.",
        "protocols.evaluate.",
        "cli.main.",
        "configio.self_s",
    ),
    "binary-sweep": (
        "binary_env.gain_curve.",
        "binary_env.gain_binary.",
        "binary_env.cond_mean_nd.",
        "binary_env.prob_nd.",
        "cli.main.",
    ),
}
ALWAYS = ("bench.self_s", "bench.traced_wall_s", "bench.untraced_wall_s", "bench.spans")


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "tiny",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _check_result(workload: str, trace: int, proc: subprocess.CompletedProcess) -> dict:
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, where
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared], f"{where}: metric names"
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], f"{where}: unit of {m['name']}"
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"]
    return result["metrics"]


def main() -> int:
    for workload in EXERCISED:
        metrics = _check_result(workload, 0, _run(workload, 0))
        for name, got in metrics.items():
            assert got["value"] > 0, f"{workload}: end-to-end {name} is not positive"

        layers = _check_result(workload, 1, _run(workload, 1))
        wanted = EXERCISED[workload] + ALWAYS
        for name, got in layers.items():
            if name.startswith(wanted):
                assert got["value"] > 0, f"{workload}: per-layer {name} is zero"
        total = layers["bench.self_s"]["value"] + sum(layers[f"{m}.self_s"]["value"] for m in MODULES)
        wall = layers["bench.traced_wall_s"]["value"]
        assert math.isclose(total, wall, rel_tol=1e-9), f"{workload}: self times {total} != wall {wall}"
        print(f"ok {workload}")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run("equilibrium-search", 0, cwd=bare)
        assert proc.returncode != 0, "a checkout without the package must fail"
        assert '"metrics"' not in proc.stdout, "a failed run must print no result"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok bare directory fails")
    return 0


if __name__ == "__main__":
    sys.exit(main())
