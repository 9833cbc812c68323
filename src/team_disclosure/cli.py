"""Command-line interface.

Commands: solve, verify, refine, gains, dominance, optimal-k, sweep, audit.
Options may come from flags or a JSON config file (--config); flags win on
conflict. Outputs are written atomically and a machine-readable summary goes
to stdout. Exit status: 0 success, 1 failed audit claims, 2 input or parse
errors, 3 exhausted search caps.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from .audit import CLAIM_NAMES, PANEL_GRIDS, AuditConfig, panel_sweep, run_audit
from .binary_env import (
    BinaryEnvParams,
    BinaryEnvError,
    baseline_params,
    gain_curve,
    parse_grid,
)
from .configio import (
    ConfigError,
    distribution_to_config,
    effort_model_from_config,
    equilibrium_to_config,
    load_distribution,
    load_protocol,
    protocol_to_config,
)
from .equilibrium import (
    EquilibriumError,
    SearchCapExceeded,
    StrategyProfile,
    consistent_with_deliberation,
    find_equilibria_report,
    full_disclosure_is_plausible,
    verify_equilibrium,
)
from .incentives import IncentiveError, dominance_report
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
    target = Path(path)
    fd, tmp = tempfile.mkstemp(dir=target.parent or Path("."), prefix=target.name)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
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


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    with open(path) as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return data


def _merged(args: argparse.Namespace, file_cfg: dict, key: str, default=None):
    """Flag value if given, else config-file value, else default."""
    flag = getattr(args, key.replace("-", "_"), None)
    if flag is not None:
        return flag
    if key in file_cfg:
        return file_cfg[key]
    return default


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_solve(args: argparse.Namespace, refine: bool = False) -> int:
    cfg = _load_config_file(args.config)
    proto_spec = _merged(args, cfg, "protocol")
    dist_spec = _merged(args, cfg, "dist")
    if proto_spec is None or dist_spec is None:
        raise ConfigError("solve needs --protocol and --dist")
    protocol = load_protocol(proto_spec)
    dist = load_distribution(dist_spec, protocol.n)
    refine = refine or bool(_merged(args, cfg, "refine", False))
    max_members = int(_merged(args, cfg, "max-members", 4))
    max_grid = int(_merged(args, cfg, "max-grid", 5))
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
    cfg = _load_config_file(args.config)
    proto_spec = _merged(args, cfg, "protocol")
    dist_spec = _merged(args, cfg, "dist")
    eq_path = _merged(args, cfg, "equilibrium")
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
    cfg = _load_config_file(args.config)
    model_path = _merged(args, cfg, "model")
    proto_spec = _merged(args, cfg, "protocol")
    if model_path is None or proto_spec is None:
        raise ConfigError("gains needs --model and --protocol")
    with open(model_path) as handle:
        model = effort_model_from_config(json.load(handle))
    protocol = load_protocol(proto_spec)
    refine = bool(_merged(args, cfg, "refine", False))
    from .incentives import protocol_full_effort_corners

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
    cfg = _load_config_file(args.config)
    model_path = _merged(args, cfg, "model")
    spec_a = _merged(args, cfg, "protocol-a")
    spec_b = _merged(args, cfg, "protocol-b")
    if model_path is None or spec_a is None or spec_b is None:
        raise ConfigError("dominance needs --model, --protocol-a and --protocol-b")
    with open(model_path) as handle:
        model = effort_model_from_config(json.load(handle))
    protocol_a = load_protocol(spec_a)
    protocol_b = load_protocol(spec_b)
    refine = bool(_merged(args, cfg, "refine", False))
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
    obj = dict(cfg[key])
    unknown = set(obj) - {"p", "q_T", "q_own", "q_other"}
    if unknown:
        raise ConfigError(f"unknown parameter keys: {sorted(unknown)}")
    return BinaryEnvParams.make(
        n,
        obj.get("p", fallback.p),
        obj.get("q_T", fallback.q_team),
        obj.get("q_own", fallback.q_own),
        obj.get("q_other", fallback.q_other),
    )


def _cmd_optimal_k(args: argparse.Namespace) -> int:
    cfg = _load_config_file(args.config)
    n = int(_merged(args, cfg, "n", 10))
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
    cfg = _load_config_file(args.config)
    panel = _merged(args, cfg, "panel")
    if panel not in PANEL_GRIDS:
        raise ConfigError(f"panel must be one of {sorted(PANEL_GRIDS)}")
    n = int(_merged(args, cfg, "n", 10))
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


def _cmd_audit(args: argparse.Namespace) -> int:
    cfg = _load_config_file(args.config)
    seed = int(_merged(args, cfg, "seed", 0))
    claims_arg = _merged(args, cfg, "claims")
    overrides = {}
    counts_arg = _merged(args, cfg, "counts")
    if counts_arg:
        for pair in str(counts_arg).split(","):
            key, _, value = pair.partition("=")
            if not value:
                raise ConfigError(f"bad counts entry {pair!r}")
            overrides[key.strip()] = int(value)
    config = AuditConfig(seed=seed)
    if claims_arg:
        names = tuple(c.strip() for c in str(claims_arg).split(",") if c.strip())
        unknown = [c for c in names if c not in CLAIM_NAMES]
        if unknown:
            raise ConfigError(f"unknown claims: {unknown}")
        config = replace(config, claims=names)
    if overrides:
        try:
            config = replace(config, **overrides)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc
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
            "claims": {r.name: r.passed for r in report.results},
        }
    )
    return EXIT_OK if report.passed else EXIT_CLAIM_FAILURE


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p_audit.add_argument("--counts", help="overrides, e.g. existence_dists=200,binary_draws=1000")
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
