"""Seeded inputs, timed calls and correctness gates of the benchmark workloads.

Inputs come from this file's own generators and the ``--seed`` argument only,
so a change to the package's audit generators cannot change them. Every call
goes through a module attribute (``equilibrium.find_equilibria_report``, not
an imported name), so the wrappers of ``tracing.install`` see it.

A workload is a list of timed calls issued one after another (a closed loop
with one caller). A call completes ``weight`` instances: one search or one
``verify`` for the first two workloads, one gain curve for ``binary-sweep``.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Any, Callable

from team_disclosure import cli, configio, equilibrium, outcomes, protocols

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())

# Values and pmf numerators of the seeded distributions.
VALUE_RANGE = range(8)
NUMERATOR_MAX = 20
# A posterior with this prime denominator is never a conditional mean of a
# pmf whose common denominator is smaller, so `verify` must enumerate every
# deterministic profile before answering "not consistent".
UNREACHABLE_DENOMINATOR = 1009


@dataclass
class Call:
    label: str
    weight: int
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]


@dataclass
class Workload:
    calls: list[Call]
    warmup: Call
    counters: dict[str, int] = field(default_factory=dict)
    digest: Any = field(default_factory=hashlib.sha256)

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount


def seeded_distribution(rng: random.Random, sizes) -> outcomes.JointDistribution:
    """Full-support pmf on per-member grids of the given sizes."""
    grids = [sorted(rng.sample(VALUE_RANGE, k)) for k in sizes]
    space = outcomes.make_space(grids)
    nums = [rng.randint(1, NUMERATOR_MAX) for _ in space.cells]
    total = sum(nums)
    return outcomes.JointDistribution(space, tuple(Fraction(x, total) for x in nums))


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _cli_document(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])["document"]


# ---------------------------------------------------------------------------
# equilibrium-search
# ---------------------------------------------------------------------------


def equilibrium_search(rng: random.Random, size: str, workdir: Path) -> Workload:
    """Exhaustive search on every 2- and 3-member protocol, plus a 4-member slice.

    Grid sizes are stratified (every pattern of 2- and 3-value grids) rather
    than drawn, so that the seed changes values and weights but not the mix of
    search-space sizes.
    """
    del workdir
    if size == "tiny":
        groups = [(3, [(2, 2, 2)], None), (2, [(2, 3)], None), (4, [(2, 2, 2, 2)], (4,))]
    else:
        groups = [
            (3, list(product((2, 3), repeat=3)) * 2, None),
            (2, list(product((2, 3), repeat=2)) * 8, None),
            (4, [(2, 2, 2, 2), (3, 2, 2, 2)], (2, 3, 4)),
        ]
    instances = []
    for n, patterns, ks in groups:
        protos = (
            protocols.all_protocols(n) if ks is None else [protocols.make_k_majority(n, k) for k in ks]
        )
        for sizes in patterns:
            dist = seeded_distribution(rng, sizes)
            instances += [(dist, proto) for proto in protos]
    wl = Workload([], None)

    def call(dist, proto, label):
        def run():
            return equilibrium.find_equilibria_report(dist, proto)

        def check(result):
            eqs, notes = result
            where = f"{proto.describe()} on grids {[len(g) for g in dist.space.grids]}"
            bad = []
            if not any(all(v == 1 for v in e.rule.values) for e in eqs):
                bad.append(f"no always-disclose equilibrium: {where}")
            if not all(e.verification.ok for e in eqs):
                bad.append(f"returned equilibrium failed verification: {where}")
            partial = [e for e in eqs if e.classification != equilibrium.FULL]
            if bool(partial) != (not proto.all_unilateral):
                bad.append(f"partial-equilibrium existence mismatch: {where}")
            if not proto.any_unilateral and any(e.classification != equilibrium.INTERIOR for e in partial):
                bad.append(f"non-interior partial equilibrium without unilateral power: {where}")
            if proto.any_unilateral and any(e.classification == equilibrium.INTERIOR for e in eqs):
                bad.append(f"interior equilibrium under unilateral power: {where}")
            wl.count("sliced_searches", any("canonical slices" in note for note in notes))
            wl.count("verify_rejects", sum("failed verification" in note for note in notes))
            wl.count("on_path_equilibria", sum(not e.off_path for e in eqs))
            for e in eqs:
                wl.digest.update(
                    repr((e.classification, e.off_path, e.posteriors, e.rule.values)).encode()
                )
            return bad

        return Call(label, 1, run, check)

    wl.calls = [call(d, p, f"n{p.n}") for d, p in instances]
    warm = seeded_distribution(rng, (2, 2))
    wl.warmup = call(warm, protocols.make_k_majority(2, 2), "warmup")
    return wl


# ---------------------------------------------------------------------------
# belief-refinement
# ---------------------------------------------------------------------------


def belief_refinement(rng: random.Random, size: str, workdir: Path) -> Workload:
    """Brute-force refinement search on binary distributions, plus `verify`
    calls whose posteriors no deterministic profile reaches."""
    if size == "tiny":
        binary = [(3, 1), (2, 1)]
        verifies = 1
    else:
        binary = [(3, 24), (2, 48)]
        verifies = 8
    wl = Workload([], None)

    def search_call(dist, proto, label):
        expected = equilibrium.full_disclosure_is_plausible(dist, proto)

        def run():
            return equilibrium.plausible_full_disclosure_by_search(dist, proto)

        def check(found):
            wl.digest.update(repr((proto.minimal_winning, found)).encode())
            if found != expected:
                return [f"search says {found}, predicate says {expected}: {proto.describe()}"]
            return []

        return Call(label, 1, run, check)

    for n, count in binary:
        for _ in range(count):
            dist = seeded_distribution(rng, (2,) * n)
            wl.calls += [search_call(dist, proto, f"search-n{n}") for proto in protocols.all_protocols(n)]

    specs = ["k_majority:3,2", "consensus:3", "unilateral:3", "leader:3,2"]
    for idx in range(verifies):
        dist = seeded_distribution(rng, (3, 3, 3))
        posteriors = []
        for grid in dist.space.grids:
            lo, hi = int(grid[0]), int(grid[-1])
            num = rng.randint(lo * UNREACHABLE_DENOMINATOR + 1, hi * UNREACHABLE_DENOMINATOR - 1)
            if num % UNREACHABLE_DENOMINATOR == 0:
                num += 1
            posteriors.append(str(Fraction(num, UNREACHABLE_DENOMINATOR)))
        eq_path = workdir / f"verify-{idx}.json"
        eq_path.write_text(
            json.dumps(
                {
                    "profile": [[rng.randint(0, 1) for _ in grid] for grid in dist.space.grids],
                    "posteriors": posteriors,
                }
            )
        )
        argv = [
            "verify",
            "--protocol", specs[idx % len(specs)],
            "--dist", json.dumps(configio.distribution_to_config(dist)),
            "--equilibrium", str(eq_path),
        ]
        wl.calls.append(Call("verify", 1, lambda argv=argv: _cli(argv), _check_verify(wl)))

    warm = seeded_distribution(rng, (2, 2))
    wl.warmup = search_call(warm, protocols.make_k_majority(2, 2), "warmup")
    return wl


def _check_verify(wl: Workload):
    def check(result):
        code, stdout = result
        if code != 0:
            return [f"verify exited {code}"]
        doc = _cli_document(stdout)
        wl.digest.update(json.dumps(doc, sort_keys=True).encode())
        if doc["posteriors_consistent_with_deliberation"] is not False:
            return ["verify found unreachable posteriors consistent with deliberation"]
        return []

    return check


# ---------------------------------------------------------------------------
# binary-sweep
# ---------------------------------------------------------------------------


def _rises_then_falls(trace: list[int]) -> bool:
    peak = trace.index(max(trace))
    return _nonincreasing(trace[peak:]) and _nonincreasing(trace[: peak + 1][::-1])


def _nonincreasing(trace: list[int]) -> bool:
    return all(a >= b for a, b in zip(trace, trace[1:]))


PANEL_SHAPES = {"a": _rises_then_falls, "b": _nonincreasing, "c": _nonincreasing, "d": _nonincreasing}


def _seeded_params(rng: random.Random) -> dict[str, str]:
    return {key: f"0.{rng.randint(20, 80)}" for key in ("p", "q_T", "q_own", "q_other")}


def binary_sweep(rng: random.Random, size: str, workdir: Path) -> Workload:
    """The four default `sweep` panels at the default --jobs, plus `optimal-k`
    on seeded parameters as n grows."""
    panels = ["b"] if size == "tiny" else ["a", "b", "c", "d"]
    sizes = [10] if size == "tiny" else [10, 20, 40, 80]
    wl = Workload([], None)

    def panel_call(panel):
        out = workdir / f"panel-{panel}.csv"
        expected = EXPECTED["sweep_panels"][panel]

        def check(result):
            code, _ = result
            if code != 0:
                return [f"sweep panel {panel} exited {code}"]
            data = out.read_bytes()
            wl.digest.update(data)
            bad = []
            if hashlib.sha256(data).hexdigest() != expected["sha256"]:
                bad.append(f"sweep panel {panel} CSV differs from the recorded bytes")
            rows = [line.split(",") for line in data.decode().splitlines()[1:]]
            if len(rows) != expected["curves"] * 10:
                bad.append(f"sweep panel {panel} has {len(rows)} rows")
            trace = [int(row[1]) for row in rows if row[3] == "true"]
            if len(trace) != expected["curves"] or not PANEL_SHAPES[panel](trace):
                bad.append(f"sweep panel {panel} optimum trace breaks its shape")
            return bad

        argv = ["sweep", "--panel", panel, "--out", str(out)]
        return Call(f"panel-{panel}", expected["curves"], lambda: _cli(argv), check)

    def optimal_k_call(n, label):
        config = workdir / f"optimal-k-{label}.json"
        config.write_text(json.dumps({"full": _seeded_params(rng), "deviation": _seeded_params(rng)}))
        argv = ["optimal-k", "--n", str(n), "--config", str(config)]

        def check(result):
            code, stdout = result
            if code != 0:
                return [f"optimal-k n={n} exited {code}"]
            doc = _cli_document(stdout)
            wl.digest.update(json.dumps(doc, sort_keys=True).encode())
            gains = [Fraction(doc["gains"][str(k)]) for k in range(1, n + 1)]
            best = gains.index(max(gains)) + 1
            if doc["n"] != n or doc["k_star"] != best:
                return [f"optimal-k n={n} reports k*={doc['k_star']}, gains peak at {best}"]
            return []

        return Call(f"optimal-k-n{n}", 1, lambda: _cli(argv), check)

    wl.calls = [panel_call(p) for p in panels] + [optimal_k_call(n, f"n{n}") for n in sizes]
    wl.warmup = optimal_k_call(10, "warmup")
    return wl


WORKLOADS = {
    "equilibrium-search": equilibrium_search,
    "belief-refinement": belief_refinement,
    "binary-sweep": binary_sweep,
}


def build(name: str, seed: int, size: str, workdir: Path) -> Workload:
    rng = random.Random(f"perfbench/{name}/{seed}")
    return WORKLOADS[name](rng, size, workdir)
