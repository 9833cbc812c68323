"""Config-file and report serialization.

Protocols, distributions and effort models are exchanged as JSON objects with
rational numbers carried as strings ("1/4", "0.51"). Unknown keys are
rejected so that typos fail loudly instead of silently using defaults.
"""
from __future__ import annotations

import json
from bisect import bisect_left
from fractions import Fraction
from math import prod
from typing import TYPE_CHECKING, Any, Mapping

from .equilibrium import Equilibrium, TeamRule, _check_caps
from .outcomes import (
    ZERO,
    JointDistribution,
    OutcomeError,
    OutcomeSpace,
    binary_independent,
    binary_space,
    common_mixture,
    make_space,
)
from .protocols import (
    DeliberationProtocol,
    make_k_majority,
    make_leader,
    make_protocol,
)
from .rationals import as_fraction, frac_str

if TYPE_CHECKING:
    from .incentives import EffortModel


class ConfigError(ValueError):
    """Raised for malformed configuration input."""


def _require_keys(obj: Mapping[str, Any], required: set[str], optional: set[str] = frozenset()) -> None:
    if not isinstance(obj, Mapping):
        raise ConfigError(f"expected an object with keys {sorted(required)}")
    keys = set(obj)
    missing = required - keys
    unknown = keys - required - optional
    if missing:
        raise ConfigError(f"missing keys: {sorted(missing)}")
    if unknown:
        raise ConfigError(f"unknown keys: {sorted(unknown)}")


def config_int(value: Any, key: str) -> int:
    """An integer config value of at least 0: a JSON integer that is not a
    bool, or a string of ASCII digits, which may start with ``-``; anything
    else is a ConfigError. A string is read as the integer it spells before
    the range check, so a flag (always a string) and a config value give the
    same result, the same message for a negative one included."""
    if isinstance(value, str) and value.isascii() and value.removeprefix("-").isdigit():
        value = int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        if value < 0:
            raise ConfigError(f"{key} must be an integer of at least 0, got {value}")
        return value
    raise ConfigError(f"{key} must be an integer, got {json.dumps(value, default=str)}")


def config_list(value: Any, key: str) -> list | tuple:
    """A list config value: a JSON array; anything else is a ConfigError, so
    a string is never read as a list of its characters, nor an object as a
    list of its keys."""
    if isinstance(value, (list, tuple)):
        return value
    raise ConfigError(f"{key} must be a list, got {json.dumps(value, default=str)}")


def config_rational(value: Any, key: str) -> Fraction:
    """A rational config value: a string such as "1/4" or "0.51", or a JSON
    number; anything else (null, a bool, a list, an object) is a ConfigError
    that quotes the value as JSON."""
    if isinstance(value, (str, int, float)) and not isinstance(value, bool):
        return as_fraction(value)
    raise ConfigError(f"{key} must be a rational number, got {json.dumps(value, default=str)}")


def config_bool(value: Any, key: str) -> bool:
    """A boolean config value: a JSON true or false; anything else (a string,
    a number, null) is a ConfigError."""
    if isinstance(value, bool):
        return value
    raise ConfigError(f"{key} must be true or false, got {json.dumps(value, default=str)}")


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
            return make_k_majority(config_int(obj["n"], "n"), config_int(obj["k"], "k"))
        if kind == "leader":
            _require_keys(obj, {"kind", "n", "leader"})
            return make_leader(config_int(obj["n"], "n"), config_int(obj["leader"], "leader"))
        if kind == "custom":
            _require_keys(obj, {"kind", "n", "winning"})
            winning = [
                [config_int(m, "winning member") for m in config_list(c, "coalition")]
                for c in config_list(obj["winning"], "winning")
            ]
            return make_protocol(config_int(obj["n"], "n"), winning)
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown protocol kind {kind!r}")


def protocol_to_config(protocol: DeliberationProtocol) -> dict[str, Any]:
    return {
        "kind": "custom",
        "n": protocol.n,
        "winning": [list(c) for c in protocol.minimal_winning],
    }


def parse_protocol_spec(spec: str) -> DeliberationProtocol:
    """CLI shorthand, read as the config object it stands for:
    'k_majority:N,K', 'consensus:N' (K = N), 'unilateral:N' (K = 1),
    'leader:N,I', or inline JSON."""
    spec = spec.strip()
    if spec.startswith("{"):
        return protocol_from_config(json.loads(spec))
    kind, _, args = spec.partition(":")
    vals = [a for a in args.split(",") if a]
    if kind == "k_majority" and len(vals) == 2:
        return protocol_from_config({"kind": "k_majority", "n": vals[0], "k": vals[1]})
    if kind in ("consensus", "unilateral") and len(vals) == 1:
        k = vals[0] if kind == "consensus" else "1"
        return protocol_from_config({"kind": "k_majority", "n": vals[0], "k": k})
    if kind == "leader" and len(vals) == 2:
        return protocol_from_config({"kind": "leader", "n": vals[0], "leader": vals[1]})
    raise ConfigError(f"cannot parse protocol spec {spec!r}")


def load_protocol(spec: str | Mapping[str, Any]) -> DeliberationProtocol:
    """A protocol from a CLI shorthand string or a config object."""
    if isinstance(spec, str):
        return parse_protocol_spec(spec)
    return protocol_from_config(spec)


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------


def _checked_space(space: OutcomeSpace, n_hint: int | None) -> OutcomeSpace:
    """``space`` once it has ``n_hint`` members (when that is given) and lies
    within the search cap (SearchCapExceeded otherwise), checked before a
    distribution's cells are built: every command that reads a distribution
    searches or scans it under that cap."""
    if n_hint is not None and space.n != n_hint:
        raise ConfigError(
            "the distribution and its protocol or effort model have different member "
            f"counts ({space.n} and {n_hint})"
        )
    _check_caps(space)
    return space


def distribution_from_config(obj: Mapping[str, Any], n_hint: int | None = None) -> JointDistribution:
    """The distribution a config object stands for. ``n_hint`` is the member
    count of the protocol or effort model it belongs to: a generator without
    'n' takes it, and a distribution with another count is a ConfigError.
    The member count and the search cap are checked before any cell is
    built (:func:`_checked_space`)."""
    if not isinstance(obj, Mapping):
        raise ConfigError("distribution config must be an object")
    try:
        if "grid" in obj:
            _require_keys(obj, {"grid", "pmf"})
            grid = config_list(obj["grid"], "grid")
            rows = [[config_rational(v, "grid value") for v in config_list(g, "grid row")] for g in grid]
            space = _checked_space(make_space(rows), n_hint)
            return JointDistribution(space, _grid_pmf(space, config_list(obj["pmf"], "pmf")))
        kind = obj.get("kind")
        n = config_int(obj["n"], "n") if "n" in obj else n_hint or 0
        if kind == "independent":
            _require_keys(obj, {"kind", "q"}, {"n"})
            q = obj["q"]
            listed = isinstance(q, (list, tuple))
            if not listed and n < 2:
                raise ConfigError("independent generator needs 'n' or a q list")
            if listed and "n" in obj and len(q) != n:
                raise ConfigError(f"independent generator lists {len(q)} q values for n = {n}")
            _checked_space(binary_space(len(q) if listed else n), n_hint)
            qs = [config_rational(x, "q") for x in q] if listed else [config_rational(q, "q")] * n
            return binary_independent(qs)
        if kind == "common_mixture":
            _require_keys(obj, {"kind", "p", "q_T", "q"}, {"n"})
            if n < 2:
                raise ConfigError("common_mixture generator needs 'n'")
            _checked_space(binary_space(n), n_hint)
            p, q_team, q = (config_rational(obj[key], key) for key in ("p", "q_T", "q"))
            return common_mixture(n, p, q_team, q)
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError("unrecognized distribution config")


def _grid_pmf(space: OutcomeSpace, entries: list | tuple) -> tuple[Fraction, ...]:
    """The cell probabilities of a grid pmf's entries, 0 at a cell it does
    not list.

    Each distinct value string of the keys is parsed once and located on
    each member's grid once, so a listed cell is found as its index in
    ``space.cells`` with no Fraction hashed. Entries are read in order: one
    that is not a pair of a cell string and a probability, or a cell listed
    twice, is a ConfigError when met, and after the last entry the first
    cell off the grid is reported as ``from_pmf`` words it.
    """
    grids = space.grids
    strides = [prod(map(len, grids[i + 1:])) for i in range(space.n)]
    parsed = {}  # value string -> its Fraction
    located = [{} for _ in grids]  # per member: value string -> grid position, None off the grid
    probs = [ZERO] * len(space.cells)
    listed = set()  # indices of the cells listed so far
    off_grid = {}  # cells listed off the grid, as tuples of values, in order
    for entry in entries:
        entry = config_list(entry, "pmf entry")
        if len(entry) != 2 or not isinstance(entry[0], str):
            got = json.dumps(entry, default=str)
            raise ConfigError(f'pmf entry must be a ["cell", probability] pair such as ["0,1", "1/4"], got {got}')
        key, prob = entry
        texts = key.split(",")
        for text in texts:
            if text not in parsed:
                parsed[text] = as_fraction(text)
        index = 0 if len(texts) == len(grids) else None
        for text, grid, seen, stride in zip(texts, grids, located, strides):
            if text not in seen:
                value = parsed[text]
                p = bisect_left(grid, value)
                seen[text] = p if p < len(grid) and grid[p] == value else None
            if index is None or seen[text] is None:
                index = None
                break
            index += seen[text] * stride
        if index is None:
            cell = tuple(map(parsed.__getitem__, texts))
            twice = cell in off_grid
            off_grid[cell] = None
        else:
            twice = index in listed
            listed.add(index)
        if twice:
            raise ConfigError(f"pmf lists cell {','.join(frac_str(parsed[t]) for t in texts)} twice")
        prob = config_rational(prob, "pmf probability")
        if index is not None:
            probs[index] = prob
    if off_grid:
        raise OutcomeError(f"outcome {','.join(map(frac_str, next(iter(off_grid))))} is not on the grid")
    return tuple(probs)


def distribution_to_config(dist: JointDistribution) -> dict[str, Any]:
    return {
        "grid": [[frac_str(v) for v in g] for g in dist.space.grids],
        "pmf": [
            [",".join(frac_str(v) for v in cell), frac_str(p)]
            for cell, p in zip(dist.space.cells, dist.probs)
        ],
    }


def parse_distribution_spec(spec: str, n_hint: int | None = None) -> JointDistribution:
    """CLI shorthand, read as the config object it stands for:
    'independent:0.5' (n from the protocol), 'independent:0.5,0.6',
    'common_mixture:p,qT,q', or inline JSON."""
    spec = spec.strip()
    if spec.startswith("{"):
        return distribution_from_config(json.loads(spec), n_hint)
    kind, _, args = spec.partition(":")
    vals = [a for a in args.split(",") if a]
    if kind == "independent" and vals:
        q = vals[0] if len(vals) == 1 else vals
        return distribution_from_config({"kind": "independent", "q": q}, n_hint)
    if kind == "common_mixture" and len(vals) == 3:
        obj = {"kind": "common_mixture", "p": vals[0], "q_T": vals[1], "q": vals[2]}
        return distribution_from_config(obj, n_hint)
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
    from .incentives import EffortModel

    _require_keys(obj, {"n", "costs", "distributions"})
    try:
        n = config_int(obj["n"], "n")
        costs = [config_rational(c, "cost") for c in config_list(obj["costs"], "costs")]
        table = {}
        for entry in config_list(obj["distributions"], "distributions"):
            _require_keys(entry, {"effort", "dist"})
            effort = tuple(config_int(e, "effort entry") for e in config_list(entry["effort"], "effort"))
            if len(effort) != n or any(e not in (0, 1) for e in effort):
                raise ConfigError(f"bad effort vector {effort}")
            table[effort] = load_distribution(entry["dist"], n)
        return EffortModel.build(n, table, costs)
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
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
