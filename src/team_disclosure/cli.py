"""Command-line interface.

Commands: solve, verify, refine, gains, dominance, optimal-k, sweep, audit.
Options may come from flags or a JSON config file (--config); flags win on
conflict, and a config key that the command does not read is an input error.
Outputs are written atomically and a machine-readable summary goes
to stdout. Exit status: 0 success, 1 failed audit claims, 2 input or parse
errors, 3 exhausted search caps.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import fields, replace
from functools import lru_cache
from pathlib import Path

from .audit import PANEL_GRIDS, AuditConfig, panel_sweep, run_audit
from .binary_env import (
    MAX_SWEEP_MEMBERS,
    BinaryEnvParams,
    BinaryEnvError,
    baseline_params,
    gain_curve,
    parse_grid,
)
from .configio import (
    ConfigError,
    config_bool,
    config_int,
    distribution_to_config,
    effort_model_from_config,
    equilibrium_to_config,
    load_distribution,
    load_protocol,
    protocol_to_config,
)
from .equilibrium import (
    DEFAULT_MAX_GRID,
    DEFAULT_MAX_MEMBERS,
    EquilibriumError,
    SearchCapExceeded,
    StrategyProfile,
    consistent_with_deliberation,
    find_equilibria_report,
    full_disclosure_is_plausible,
    verify_equilibrium,
)
from .incentives import IncentiveError, dominance_report, protocol_full_effort_corners
from .outcomes import OutcomeError
from .protocols import ProtocolError
from .rationals import as_fraction, frac_str

EXIT_OK = 0
EXIT_CLAIM_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_SEARCH_CAP = 3

INPUT_ERRORS = (
    ConfigError,
    ProtocolError,
    OutcomeError,
    EquilibriumError,
    IncentiveError,
    BinaryEnvError,
    json.JSONDecodeError,
    OSError,
    ValueError,
)


def _atomic_write(path: str, text: str) -> None:
    """Write through a temporary file in the target's directory, then rename it
    over the target. The file gets the mode ``open(path, "w")`` gives a new
    file, 0o666 less the umask (``mkstemp`` alone would leave it 0o600)."""
    target = Path(path)
    fd, tmp = tempfile.mkstemp(dir=target.parent or Path("."), prefix=target.name)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _deliver(text: str, out: str | None, summary: dict) -> None:
    if out:
        _atomic_write(out, text)
        summary["out"] = out
    else:
        summary["document"] = json.loads(text) if text.startswith(("{", "[")) else text
    _emit(summary)


def _load_config_file(args: argparse.Namespace, *extra_keys: str) -> dict:
    """The --config object. Its keys are the command's options, hyphenated
    (not --config or --out), plus ``extra_keys``; any other key is an error."""
    if not args.config:
        return {}
    with open(args.config) as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    allowed = {key.replace("_", "-") for key in vars(args)} - {"command", "config", "out"}
    unknown = sorted(set(data) - allowed - set(extra_keys))
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    return data


def _merged(args: argparse.Namespace, file_cfg: dict, key: str, default=None):
    """Flag value if given, else config-file value, else default."""
    flag = getattr(args, key.replace("-", "_"), None)
    if flag is not None:
        return flag
    if key in file_cfg:
        return file_cfg[key]
    return default


def _merged_path(args: argparse.Namespace, file_cfg: dict, key: str) -> str | None:
    """A file-path option: a flag or a config-file string (a number would
    open a file descriptor)."""
    value = _merged(args, file_cfg, key)
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"{key} must be a file path, got {json.dumps(value)}")
    return value


def _merged_int(args: argparse.Namespace, file_cfg: dict, key: str, default: int) -> int:
    """An integer option: a flag, a JSON integer (not a bool) or a string of
    decimal digits in the config file, else the default."""
    return config_int(_merged(args, file_cfg, key, default), key)


def _merged_bool(args: argparse.Namespace, file_cfg: dict, key: str) -> bool:
    """A boolean option: a flag or a JSON boolean in the config file, else False."""
    return config_bool(_merged(args, file_cfg, key, False), key)


def _sweep_members(args: argparse.Namespace, file_cfg: dict) -> int:
    """The member count of `optimal-k` and `sweep`, at most MAX_SWEEP_MEMBERS."""
    n = _merged_int(args, file_cfg, "n", 10)
    if n > MAX_SWEEP_MEMBERS:
        raise ConfigError(f"n={n} exceeds the cap of {MAX_SWEEP_MEMBERS} members")
    return n


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_solve(args: argparse.Namespace, refine: bool = False) -> int:
    cfg = _load_config_file(args)
    proto_spec = _merged(args, cfg, "protocol")
    dist_spec = _merged(args, cfg, "dist")
    if proto_spec is None or dist_spec is None:
        raise ConfigError("solve needs --protocol and --dist")
    protocol = load_protocol(proto_spec)
    dist = load_distribution(dist_spec, protocol.n)
    refine = refine or _merged_bool(args, cfg, "refine")
    max_members = _merged_int(args, cfg, "max-members", DEFAULT_MAX_MEMBERS)
    max_grid = _merged_int(args, cfg, "max-grid", DEFAULT_MAX_GRID)
    eqs, notes = find_equilibria_report(dist, protocol, max_members, max_grid)
    entries = []
    for eq in eqs:
        entry = equilibrium_to_config(eq)
        if refine:
            if eq.off_path:
                entry["survives_refinement"] = full_disclosure_is_plausible(dist, protocol)
            else:
                entry["survives_refinement"] = True
        entries.append(entry)
    if refine:
        entries = [e for e in entries if e["survives_refinement"]]
    doc = {
        "protocol": protocol_to_config(protocol),
        "distribution": distribution_to_config(dist),
        "equilibria": entries,
        "notes": list(notes),
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    _deliver(
        text,
        args.out,
        {"command": "refine" if refine else "solve", "equilibria": len(entries)},
    )
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    cfg = _load_config_file(args)
    proto_spec = _merged(args, cfg, "protocol")
    dist_spec = _merged(args, cfg, "dist")
    eq_path = _merged_path(args, cfg, "equilibrium")
    if proto_spec is None or dist_spec is None or eq_path is None:
        raise ConfigError("verify needs --protocol, --dist and --equilibrium")
    protocol = load_protocol(proto_spec)
    dist = load_distribution(dist_spec, protocol.n)
    with open(eq_path) as handle:
        eq_doc = json.load(handle)
    if not isinstance(eq_doc, dict) or not {"profile", "posteriors"} <= set(eq_doc):
        raise ConfigError("equilibrium file needs 'profile' and 'posteriors'")
    try:
        profile = StrategyProfile.from_votes(dist.space, eq_doc["profile"])
        posteriors = [as_fraction(p) for p in eq_doc["posteriors"]]
    except TypeError as exc:
        raise ConfigError(f"malformed equilibrium file: {exc}") from exc
    report = verify_equilibrium(profile, posteriors, dist, protocol)
    consistent = consistent_with_deliberation(posteriors, dist, protocol)
    doc = {
        "ok": report.ok,
        "off_path": report.off_path,
        "violations": [{"kind": v.kind, "detail": v.detail} for v in report.violations],
        "bayes_posteriors": (
            [frac_str(p) for p in report.bayes_posteriors]
            if report.bayes_posteriors is not None
            else None
        ),
        "posteriors_consistent_with_deliberation": consistent,
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    _deliver(text, args.out, {"command": "verify", "ok": report.ok})
    return EXIT_OK


def _cmd_gains(args: argparse.Namespace) -> int:
    cfg = _load_config_file(args)
    model_path = _merged_path(args, cfg, "model")
    proto_spec = _merged(args, cfg, "protocol")
    if model_path is None or proto_spec is None:
        raise ConfigError("gains needs --model and --protocol")
    with open(model_path) as handle:
        model = effort_model_from_config(json.load(handle))
    protocol = load_protocol(proto_spec)
    refine = _merged_bool(args, cfg, "refine")
    corners = protocol_full_effort_corners(protocol, model, refine)
    doc = {
        "protocol": protocol_to_config(protocol),
        "costs": [frac_str(c) for c in model.costs],
        "corners": [
            {
                "gains": [frac_str(g) for g in gv.gains],
                "classification": gv.classification,
                "implements_full_effort_at_costs": gv.positive
                and all(c <= g for c, g in zip(model.costs, gv.gains)),
            }
            for gv in corners
        ],
    }
    doc["costs_in_full_effort_set"] = any(
        c["implements_full_effort_at_costs"] for c in doc["corners"]
    )
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    _deliver(text, args.out, {"command": "gains", "corners": len(corners)})
    return EXIT_OK


def _cmd_dominance(args: argparse.Namespace) -> int:
    cfg = _load_config_file(args)
    model_path = _merged_path(args, cfg, "model")
    spec_a = _merged(args, cfg, "protocol-a")
    spec_b = _merged(args, cfg, "protocol-b")
    if model_path is None or spec_a is None or spec_b is None:
        raise ConfigError("dominance needs --model, --protocol-a and --protocol-b")
    with open(model_path) as handle:
        model = effort_model_from_config(json.load(handle))
    protocol_a = load_protocol(spec_a)
    protocol_b = load_protocol(spec_b)
    refine = _merged_bool(args, cfg, "refine")
    report = dominance_report(protocol_a, protocol_b, model, refine)
    doc = {
        "protocol_a": protocol_to_config(protocol_a),
        "protocol_b": protocol_to_config(protocol_b),
        "dominates": report.dominates,
        "strictly": report.strictly,
        "witness_costs": [frac_str(g) for g in report.witness] if report.witness else None,
        "corners_a": [[frac_str(g) for g in gv.gains] for gv in report.corners_a],
        "corners_b": [[frac_str(g) for g in gv.gains] for gv in report.corners_b],
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    _deliver(
        text,
        args.out,
        {"command": "dominance", "dominates": report.dominates, "strictly": report.strictly},
    )
    return EXIT_OK


def _params_from(cfg: dict, key: str, n: int, fallback: BinaryEnvParams) -> BinaryEnvParams:
    if key not in cfg:
        return fallback
    obj = cfg[key]
    if not isinstance(obj, dict):
        raise ConfigError(f"{key} must be an object, got {json.dumps(obj)}")
    unknown = set(obj) - {"p", "q_T", "q_own", "q_other"}
    if unknown:
        raise ConfigError(f"unknown parameter keys: {sorted(unknown)}")
    try:
        return BinaryEnvParams.make(
            n,
            obj.get("p", fallback.p),
            obj.get("q_T", fallback.q_team),
            obj.get("q_own", fallback.q_own),
            obj.get("q_other", fallback.q_other),
        )
    except TypeError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _cmd_optimal_k(args: argparse.Namespace) -> int:
    cfg = _load_config_file(args, "full", "deviation")
    n = _sweep_members(args, cfg)
    base_full, base_dev = baseline_params(n)
    full = _params_from(cfg, "full", n, base_full)
    dev = _params_from(cfg, "deviation", n, base_dev)
    curve = gain_curve(full, dev)
    doc = {
        "n": n,
        "k_star": curve.k_star,
        "gains": {str(k): frac_str(g) for k, g in enumerate(curve.gains, 1)},
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    _deliver(text, args.out, {"command": "optimal-k", "k_star": curve.k_star})
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load_config_file(args)
    panel = _merged(args, cfg, "panel")
    if panel not in PANEL_GRIDS:
        raise ConfigError(f"panel must be one of {sorted(PANEL_GRIDS)}")
    n = _sweep_members(args, cfg)
    grid = _merged(args, cfg, "grid")
    table = panel_sweep(panel, n, parse_grid(str(grid)) if grid else None)
    text = table.to_csv()
    summary = {"command": "sweep", "panel": panel, "axis": table.axis, "rows": len(table.rows)}
    if args.out:
        _atomic_write(args.out, text)
        summary["out"] = args.out
        _emit(summary)
    else:
        _emit(summary)
        sys.stdout.write(text)
    return EXIT_OK


def _audit_counts(text: str) -> dict[str, int]:
    """``name=value,...`` overrides of AuditConfig's integer count fields
    (not the seed), each a decimal integer of at least 1."""
    names = [
        f.name for f in fields(AuditConfig) if type(f.default) is int and f.name != "seed"
    ]
    overrides = {}
    for pair in text.split(","):
        key, _, value = (part.strip() for part in pair.partition("="))
        if key not in names:
            raise ConfigError(f"bad counts entry {pair!r}: counts are {', '.join(names)}")
        if not (value.isascii() and value.isdigit() and int(value) >= 1):
            raise ConfigError(f"bad counts entry {pair!r}: need an integer of at least 1")
        overrides[key] = int(value)
    return overrides


def _cmd_audit(args: argparse.Namespace) -> int:
    cfg = _load_config_file(args)
    seed = _merged_int(args, cfg, "seed", 0)
    claims_arg = _merged(args, cfg, "claims")
    counts_arg = _merged(args, cfg, "counts")
    overrides = _audit_counts(str(counts_arg)) if counts_arg else {}
    config = AuditConfig(seed=seed)
    if claims_arg:
        names = tuple(c.strip() for c in str(claims_arg).split(",") if c.strip())
        config = replace(config, claims=names)
    config = replace(config, **overrides)
    report = run_audit(config)
    text = report.render()
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    _emit(
        {
            "command": "audit",
            "seed": seed,
            "passed": report.passed,
            "claims": {
                r.name: {
                    "passed": r.passed,
                    "instances": r.instances,
                    "seconds": round(r.seconds, 3),
                }
                for r in report.results
            },
        }
    )
    return EXIT_OK if report.passed else EXIT_CLAIM_FAILURE


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are one line, like every other input
    error (argparse prints the usage first)."""

    def error(self, message: str):
        self.exit(EXIT_INPUT_ERROR, f"error: {message}\n")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing reads it and
    leaves no state in it, so every ``main`` call shares it."""
    parser = _Parser(
        prog="team-disclosure",
        description="equilibria and effort incentives of team-disclosure games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file; flags win on conflict")
        p.add_argument("--out", help="output path (written atomically)")

    p_solve = sub.add_parser("solve", help="enumerate equilibria")
    p_solve.add_argument("--protocol", help="e.g. k_majority:3,2 | leader:2,1 | JSON")
    p_solve.add_argument("--dist", help="e.g. independent:0.5 | common_mixture:p,qT,q | JSON")
    p_solve.add_argument("--refine", action="store_true", default=None)
    p_solve.add_argument("--max-members", type=int, default=None)
    p_solve.add_argument("--max-grid", type=int, default=None)
    common(p_solve)

    p_refine = sub.add_parser("refine", help="equilibria surviving the deliberation refinement")
    for a in ("--protocol", "--dist"):
        p_refine.add_argument(a)
    p_refine.add_argument("--max-members", type=int, default=None)
    p_refine.add_argument("--max-grid", type=int, default=None)
    common(p_refine)

    p_verify = sub.add_parser("verify", help="verify a stated equilibrium")
    p_verify.add_argument("--protocol")
    p_verify.add_argument("--dist")
    p_verify.add_argument("--equilibrium", help="JSON file with 'profile' and 'posteriors'")
    common(p_verify)

    p_gains = sub.add_parser("gains", help="full-effort gain corners of a protocol")
    p_gains.add_argument("--model", help="effort-model JSON file")
    p_gains.add_argument("--protocol")
    p_gains.add_argument("--refine", action="store_true", default=None)
    common(p_gains)

    p_dom = sub.add_parser("dominance", help="compare two protocols' full-effort sets")
    p_dom.add_argument("--model")
    p_dom.add_argument("--protocol-a")
    p_dom.add_argument("--protocol-b")
    p_dom.add_argument("--refine", action="store_true", default=None)
    common(p_dom)

    p_opt = sub.add_parser("optimal-k", help="best consensus level for a binary environment")
    p_opt.add_argument("--n", type=int, default=None)
    common(p_opt)

    p_sweep = sub.add_parser("sweep", help="optimal-consensus parameter sweep to CSV")
    p_sweep.add_argument("--panel", choices=sorted(PANEL_GRIDS))
    p_sweep.add_argument("--grid", help="start:stop:step (exact rationals)")
    p_sweep.add_argument("--n", type=int, default=None)
    common(p_sweep)

    p_audit = sub.add_parser("audit", help="run the claims audit")
    p_audit.add_argument("--seed", type=int, default=None)
    p_audit.add_argument("--claims", help="comma-separated subset of claims")
    p_audit.add_argument(
        "--counts",
        help="integer count overrides of at least 1, e.g. existence_dists=200,binary_draws=1000",
    )
    common(p_audit)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT_ERROR if exc.code else EXIT_OK
    handlers = {
        "solve": _cmd_solve,
        "refine": lambda a: _cmd_solve(a, refine=True),
        "verify": _cmd_verify,
        "gains": _cmd_gains,
        "dominance": _cmd_dominance,
        "optimal-k": _cmd_optimal_k,
        "sweep": _cmd_sweep,
        "audit": _cmd_audit,
    }
    try:
        return handlers[args.command](args)
    except SearchCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEARCH_CAP
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
