"""Config-file and report serialization.

Protocols, distributions and effort models are exchanged as JSON objects with
rational numbers carried as strings ("1/4", "0.51"). Unknown keys are
rejected so that typos fail loudly instead of silently using defaults.
"""
from __future__ import annotations

import json
from typing import Any, Mapping

from .equilibrium import Equilibrium, TeamRule
from .incentives import EffortModel
from .outcomes import (
    JointDistribution,
    binary_independent,
    common_mixture,
    from_pmf,
    make_space,
)
from .protocols import (
    DeliberationProtocol,
    make_k_majority,
    make_leader,
    make_protocol,
)
from .rationals import as_fraction, frac_str


class ConfigError(ValueError):
    """Raised for malformed configuration input."""


def _require_keys(obj: Mapping[str, Any], required: set[str], optional: set[str] = frozenset()) -> None:
    keys = set(obj)
    missing = required - keys
    unknown = keys - required - optional
    if missing:
        raise ConfigError(f"missing keys: {sorted(missing)}")
    if unknown:
        raise ConfigError(f"unknown keys: {sorted(unknown)}")


# ---------------------------------------------------------------------------
# Protocols
# ---------------------------------------------------------------------------


def protocol_from_config(obj: Mapping[str, Any]) -> DeliberationProtocol:
    if not isinstance(obj, Mapping) or "kind" not in obj:
        raise ConfigError("protocol config must be an object with a 'kind'")
    kind = obj["kind"]
    try:
        if kind == "k_majority":
            _require_keys(obj, {"kind", "n", "k"})
            return make_k_majority(int(obj["n"]), int(obj["k"]))
        if kind == "leader":
            _require_keys(obj, {"kind", "n", "leader"})
            return make_leader(int(obj["n"]), int(obj["leader"]))
        if kind == "custom":
            _require_keys(obj, {"kind", "n", "winning"})
            return make_protocol(int(obj["n"]), [list(map(int, c)) for c in obj["winning"]])
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown protocol kind {kind!r}")


def protocol_to_config(protocol: DeliberationProtocol) -> dict[str, Any]:
    return {
        "kind": "custom",
        "n": protocol.n,
        "winning": [list(c) for c in protocol.minimal_winning],
    }


def parse_protocol_spec(spec: str) -> DeliberationProtocol:
    """CLI shorthand: 'k_majority:3,2', 'consensus:2', 'unilateral:3',
    'leader:3,1', or inline JSON."""
    spec = spec.strip()
    if spec.startswith("{"):
        return protocol_from_config(json.loads(spec))
    if ":" not in spec:
        raise ConfigError(f"cannot parse protocol spec {spec!r}")
    kind, _, args = spec.partition(":")
    try:
        nums = [int(a) for a in args.split(",") if a]
    except ValueError as exc:
        raise ConfigError(f"cannot parse protocol spec {spec!r}") from exc
    try:
        if kind == "k_majority" and len(nums) == 2:
            return make_k_majority(*nums)
        if kind == "consensus" and len(nums) == 1:
            return make_k_majority(nums[0], nums[0])
        if kind == "unilateral" and len(nums) == 1:
            return make_k_majority(nums[0], 1)
        if kind == "leader" and len(nums) == 2:
            return make_leader(*nums)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"cannot parse protocol spec {spec!r}")


def load_protocol(spec: str | Mapping[str, Any]) -> DeliberationProtocol:
    """A protocol from a CLI shorthand string or a config object."""
    if isinstance(spec, str):
        return parse_protocol_spec(spec)
    return protocol_from_config(spec)


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------


def distribution_from_config(obj: Mapping[str, Any], n_hint: int | None = None) -> JointDistribution:
    if not isinstance(obj, Mapping):
        raise ConfigError("distribution config must be an object")
    try:
        if "grid" in obj:
            _require_keys(obj, {"grid", "pmf"})
            space = make_space([[as_fraction(v) for v in g] for g in obj["grid"]])
            pmf = {}
            for key, prob in obj["pmf"]:
                cell = tuple(as_fraction(part) for part in str(key).split(","))
                pmf[cell] = as_fraction(prob)
            return from_pmf(space, pmf)
        kind = obj.get("kind")
        if kind == "independent":
            _require_keys(obj, {"kind", "q"}, {"n"})
            q = obj["q"]
            if isinstance(q, (list, tuple)):
                qs = [as_fraction(x) for x in q]
            else:
                n = int(obj.get("n", n_hint or 0))
                if n < 2:
                    raise ConfigError("independent generator needs 'n' or a q list")
                qs = [as_fraction(q)] * n
            return binary_independent(qs)
        if kind == "common_mixture":
            _require_keys(obj, {"kind", "p", "q_T", "q"}, {"n"})
            n = int(obj.get("n", n_hint or 0))
            if n < 2:
                raise ConfigError("common_mixture generator needs 'n'")
            return common_mixture(n, as_fraction(obj["p"]), as_fraction(obj["q_T"]), as_fraction(obj["q"]))
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError("unrecognized distribution config")


def distribution_to_config(dist: JointDistribution) -> dict[str, Any]:
    return {
        "grid": [[frac_str(v) for v in g] for g in dist.space.grids],
        "pmf": [
            [",".join(frac_str(v) for v in cell), frac_str(p)]
            for cell, p in zip(dist.space.cells, dist.probs)
        ],
    }


def parse_distribution_spec(spec: str, n_hint: int | None = None) -> JointDistribution:
    """CLI shorthand: 'independent:0.5' (n from the protocol),
    'independent:0.5,0.6', 'common_mixture:0.5,0.5,0.5', or inline JSON."""
    spec = spec.strip()
    if spec.startswith("{"):
        return distribution_from_config(json.loads(spec), n_hint)
    kind, _, args = spec.partition(":")
    vals = [a for a in args.split(",") if a]
    if kind == "independent" and vals:
        if len(vals) == 1:
            if not n_hint:
                raise ConfigError("independent shorthand with one q needs a protocol for n")
            return binary_independent([as_fraction(vals[0])] * n_hint)
        return binary_independent([as_fraction(v) for v in vals])
    if kind == "common_mixture" and len(vals) == 3:
        if not n_hint:
            raise ConfigError("common_mixture shorthand needs a protocol for n")
        return common_mixture(n_hint, *(as_fraction(v) for v in vals))
    raise ConfigError(f"cannot parse distribution spec {spec!r}")


def load_distribution(spec: str | Mapping[str, Any], n_hint: int | None = None) -> JointDistribution:
    """A distribution from a CLI shorthand string or a config object."""
    if isinstance(spec, str):
        return parse_distribution_spec(spec, n_hint)
    return distribution_from_config(spec, n_hint)


# ---------------------------------------------------------------------------
# Effort models
# ---------------------------------------------------------------------------


def effort_model_from_config(obj: Mapping[str, Any]) -> EffortModel:
    _require_keys(obj, {"n", "costs", "distributions"})
    try:
        n = int(obj["n"])
        costs = [as_fraction(c) for c in obj["costs"]]
        table = {}
        for entry in obj["distributions"]:
            _require_keys(entry, {"effort", "dist"})
            effort = tuple(int(e) for e in entry["effort"])
            if len(effort) != n or any(e not in (0, 1) for e in effort):
                raise ConfigError(f"bad effort vector {effort}")
            table[effort] = distribution_from_config(entry["dist"], n)
        return EffortModel.build(n, table, costs)
    except ConfigError:
        raise
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def team_rule_to_config(rule: TeamRule) -> dict[str, str]:
    return {
        ",".join(frac_str(v) for v in cell): frac_str(d)
        for cell, d in zip(rule.space.cells, rule.values)
    }


def equilibrium_to_config(eq: Equilibrium) -> dict[str, Any]:
    members = []
    for cut in eq.cuts:
        entry: dict[str, Any] = {"cut": cut.cut}
        if cut.atom_pos is not None:
            entry["atom_position"] = cut.atom_pos
            entry["atom_weight"] = frac_str(cut.atom_weight)
        members.append(entry)
    return {
        "posteriors": [frac_str(p) for p in eq.posteriors],
        "classification": eq.classification,
        "off_path_beliefs": eq.off_path,
        "members": members,
        "profile": [[frac_str(v) for v in row] for row in eq.profile.values],
        "team_rule": team_rule_to_config(eq.rule),
        "verified": eq.verification.ok,
        "violations": [
            {"kind": v.kind, "detail": v.detail} for v in eq.verification.violations
        ],
    }
