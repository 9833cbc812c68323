"""Command-line interface.

Commands: solve, refine, verify, gains, dominance, optimal-k, sweep, audit.

Two tables declare the interface. ``OPTIONS`` gives each option the one reader
that checks its value, whether the value is a flag string or a value in the
JSON config file (--config): ``config_int``, ``config_bool``, a file path, a
JSON string, or a protocol or distribution spec, which configio reads as the
object it stands for. ``COMMANDS`` gives each command its help, its options
and its handler; the parser is built from it, and argparse neither types nor
restricts any flag. A flag wins over the config file, and a config key that
the command does not read is an input error. Outputs are written atomically
and a machine-readable summary goes to stdout. Exit status: 0 success, 1
failed audit claims, 2 input or parse errors, 3 a space beyond the search cap.

A command loads only the modules it runs: ``audit`` and ``incentives`` are
imported by the handlers of ``audit``, ``gains`` and ``dominance``, so
``solve``, ``verify``, ``optimal-k`` and ``sweep`` never compile them.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import fields, replace
from functools import lru_cache, partial
from pathlib import Path
from typing import Iterable

from .binary_env import (
    MAX_SWEEP_MEMBERS,
    PANEL_GRIDS,
    BinaryEnvParams,
    baseline_params,
    gain_curve,
    panel_sweep,
    parse_grid,
)
from .configio import (
    ConfigError,
    config_bool,
    config_int,
    config_rational,
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
from .rationals import frac_str

EXIT_OK = 0
EXIT_CLAIM_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_SEARCH_CAP = 3

# every package error and json.JSONDecodeError subclass ValueError
INPUT_ERRORS = (ValueError, OSError)


def _atomic_write(path: str, chunks: Iterable[str]) -> None:
    """Write ``chunks`` one after another through a temporary file in the
    target's directory, then rename it over the target. The file gets the
    mode ``open(path, "w")`` gives a new file, 0o666 less the umask
    (``mkstemp`` alone would leave it 0o600). An OS error with an errno names
    ``path``, not the temporary file, and the temporary file is removed."""
    target = Path(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name)
        with os.fdopen(fd, "w") as handle:
            handle.writelines(chunks)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, target)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _deliver(doc: dict, out: str | None, summary: dict) -> None:
    """The document to ``out`` as indented JSON, or into the summary."""
    if out:
        _atomic_write(out, (json.dumps(doc, indent=2, sort_keys=True) + "\n",))
        summary["out"] = out
    else:
        summary["document"] = doc
    _emit(summary)


# ---------------------------------------------------------------------------
# Options
# ---------------------------------------------------------------------------


def _path(value, key: str) -> str:
    """A file path: a string (a number would open a file descriptor)."""
    if isinstance(value, str):
        return value
    raise ConfigError(f"{key} must be a file path, got {json.dumps(value)}")


def _text(value, key: str) -> str:
    """A text option: a flag or a JSON string."""
    if isinstance(value, str):
        return value
    raise ConfigError(f"{key} must be a string, got {json.dumps(value)}")


def _object(value, key: str) -> dict:
    """An object option, read from the config file alone."""
    if isinstance(value, dict):
        return value
    raise ConfigError(f"{key} must be an object, got {json.dumps(value)}")


def _spec(value, key: str):
    """A protocol or distribution: a shorthand string or an object, which the
    command reads with ``load_protocol`` or ``load_distribution``."""
    return value


def _members(value, key: str) -> int:
    """The member count of `optimal-k` and `sweep`, at most MAX_SWEEP_MEMBERS."""
    n = config_int(value, key)
    if n > MAX_SWEEP_MEMBERS:
        raise ConfigError(f"n={n} exceeds the cap of {MAX_SWEEP_MEMBERS} members")
    return n


# option -> (reader, argparse keywords of its flag); an option without a flag
# is read from the config file alone
OPTIONS = {
    "protocol": (_spec, {"help": "e.g. k_majority:3,2 | leader:2,1 | JSON"}),
    "protocol-a": (_spec, {"help": "first protocol, as --protocol"}),
    "protocol-b": (_spec, {"help": "second protocol, as --protocol"}),
    "dist": (_spec, {"help": "e.g. independent:0.5 | common_mixture:p,qT,q | JSON"}),
    "equilibrium": (_path, {"help": "JSON file with 'profile' and 'posteriors'"}),
    "model": (_path, {"help": "effort-model JSON file"}),
    "refine": (
        config_bool,
        {"action": "store_true", "default": None, "help": "apply the deliberation refinement"},
    ),
    "n": (_members, {"help": f"members, at most {MAX_SWEEP_MEMBERS} (default 10)"}),
    "full": (_object, None),
    "deviation": (_object, None),
    "panel": (_text, {"help": f"one of {', '.join(sorted(PANEL_GRIDS))}"}),
    "grid": (_text, {"help": "start:stop:step (exact rationals)"}),
    "seed": (config_int, {"help": "audit seed (default 0)"}),
    "claims": (_text, {"help": "comma-separated subset of claims"}),
    "counts": (
        _text,
        {"help": "integer count overrides of at least 1, e.g. existence_dists=200,binary_draws=1000"},
    ),
}


def _options(args: argparse.Namespace, names: tuple[str, ...]) -> dict:
    """The given options among ``names``, each checked by its reader: the flag
    if given, else the config-file value (a JSON null included). An option
    given neither way is absent from the result. A config key outside
    ``names`` is an error."""
    config = {}
    if args.config:
        with open(args.config) as handle:
            config = json.load(handle)
        if not isinstance(config, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = sorted(set(config) - set(names))
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
    opts = {}
    for name in names:
        flag = getattr(args, name.replace("-", "_"), None)
        if flag is not None or name in config:
            opts[name] = OPTIONS[name][0](config[name] if flag is None else flag, name)
    return opts


def _require(opts: dict, command: str, *names: str) -> None:
    """Raise unless every one of ``names`` is given (and not null)."""
    if any(opts.get(name) is None for name in names):
        flags = [f"--{name}" for name in names]
        raise ConfigError(f"{command} needs {', '.join(flags[:-1])} and {flags[-1]}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_solve(opts: dict, out: str | None, refine: bool = False) -> int:
    _require(opts, "refine" if refine else "solve", "protocol", "dist")
    protocol = load_protocol(opts["protocol"])
    dist = load_distribution(opts["dist"], protocol.n)
    refine = refine or opts.get("refine", False)
    eqs, notes = find_equilibria_report(dist, protocol)
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
    summary = {"command": "refine" if refine else "solve", "equilibria": len(entries)}
    _deliver(doc, out, summary)
    return EXIT_OK


def _cmd_verify(opts: dict, out: str | None) -> int:
    _require(opts, "verify", "protocol", "dist", "equilibrium")
    protocol = load_protocol(opts["protocol"])
    with open(opts["equilibrium"]) as handle:
        eq_doc = json.load(handle)
    if not isinstance(eq_doc, dict) or not {"profile", "posteriors"} <= set(eq_doc):
        raise ConfigError("equilibrium file needs 'profile' and 'posteriors'")
    # a JSON string or object would otherwise be read as its characters or keys
    rows, stated = eq_doc["profile"], eq_doc["posteriors"]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ConfigError("malformed equilibrium file: 'profile' must be a list of lists")
    if not isinstance(stated, list):
        raise ConfigError("malformed equilibrium file: 'posteriors' must be a list")
    try:
        posteriors = [config_rational(p, "posterior") for p in stated]
    except ConfigError as exc:
        raise ConfigError(f"malformed equilibrium file: {exc}") from exc
    # reading the distribution checks the cap, so a capped instance exits
    # before it is verified; a wrong posterior count is reported ahead of it
    if len(posteriors) != protocol.n:
        raise EquilibriumError("posterior vector has wrong length")
    dist = load_distribution(opts["dist"], protocol.n)
    try:
        votes = [[config_rational(v, "vote") for v in row] for row in rows]
    except ConfigError as exc:
        raise ConfigError(f"malformed equilibrium file: {exc}") from exc
    profile = StrategyProfile.from_votes(dist.space, votes)
    consistent = consistent_with_deliberation(posteriors, dist, protocol)
    report = verify_equilibrium(profile, posteriors, dist, protocol)
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
    _deliver(doc, out, {"command": "verify", "ok": report.ok})
    return EXIT_OK


def _cmd_gains(opts: dict, out: str | None) -> int:
    from .incentives import protocol_full_effort_corners

    _require(opts, "gains", "model", "protocol")
    with open(opts["model"]) as handle:
        model = effort_model_from_config(json.load(handle))
    protocol = load_protocol(opts["protocol"])
    corners = protocol_full_effort_corners(protocol, model, opts.get("refine", False))
    doc = {
        "protocol": protocol_to_config(protocol),
        "costs": [frac_str(c) for c in model.costs],
        "corners": [
            {
                "gains": [frac_str(g) for g in gv.gains],
                "classification": gv.classification,
                "implements_full_effort_at_costs": gv.covers(model.costs),
            }
            for gv in corners
        ],
    }
    doc["costs_in_full_effort_set"] = any(
        c["implements_full_effort_at_costs"] for c in doc["corners"]
    )
    _deliver(doc, out, {"command": "gains", "corners": len(corners)})
    return EXIT_OK


def _cmd_dominance(opts: dict, out: str | None) -> int:
    from .incentives import dominance_report

    _require(opts, "dominance", "model", "protocol-a", "protocol-b")
    with open(opts["model"]) as handle:
        model = effort_model_from_config(json.load(handle))
    protocol_a = load_protocol(opts["protocol-a"])
    protocol_b = load_protocol(opts["protocol-b"])
    report = dominance_report(protocol_a, protocol_b, model, opts.get("refine", False))
    doc = {
        "protocol_a": protocol_to_config(protocol_a),
        "protocol_b": protocol_to_config(protocol_b),
        "dominates": report.dominates,
        "strictly": report.strictly,
        "witness_costs": [frac_str(g) for g in report.witness] if report.witness else None,
        "corners_a": [[frac_str(g) for g in gv.gains] for gv in report.corners_a],
        "corners_b": [[frac_str(g) for g in gv.gains] for gv in report.corners_b],
    }
    summary = {"command": "dominance", "dominates": report.dominates, "strictly": report.strictly}
    _deliver(doc, out, summary)
    return EXIT_OK


def _params_from(opts: dict, key: str, n: int, fallback: BinaryEnvParams) -> BinaryEnvParams:
    if key not in opts:
        return fallback
    obj = opts[key]
    unknown = set(obj) - {"p", "q_T", "q_own", "q_other"}
    if unknown:
        raise ConfigError(f"unknown parameter keys: {sorted(unknown)}")
    values = [
        config_rational(obj[name], f"{key} {name}") if name in obj else default
        for name, default in (
            ("p", fallback.p),
            ("q_T", fallback.q_team),
            ("q_own", fallback.q_own),
            ("q_other", fallback.q_other),
        )
    ]
    return BinaryEnvParams(n, *values)


def _cmd_optimal_k(opts: dict, out: str | None) -> int:
    n = opts.get("n", 10)
    base_full, base_dev = baseline_params(n)
    full = _params_from(opts, "full", n, base_full)
    dev = _params_from(opts, "deviation", n, base_dev)
    curve = gain_curve(full, dev)
    doc = {
        "n": n,
        "k_star": curve.k_star,
        "gains": {str(k): frac_str(g) for k, g in enumerate(curve.gains, 1)},
    }
    _deliver(doc, out, {"command": "optimal-k", "k_star": curve.k_star})
    return EXIT_OK


def _cmd_sweep(opts: dict, out: str | None) -> int:
    panel = opts.get("panel")
    if panel not in PANEL_GRIDS:
        raise ConfigError(f"panel must be one of {sorted(PANEL_GRIDS)}")
    grid, n = opts.get("grid"), opts.get("n", 10)
    table = panel_sweep(panel, n, None if grid is None else parse_grid(grid))
    summary = {"command": "sweep", "panel": panel, "axis": table.axis, "rows": len(table.grid) * n}
    if out:
        _atomic_write(out, table.csv_lines())
        summary["out"] = out
        _emit(summary)
    else:
        _emit(summary)
        sys.stdout.writelines(table.csv_lines())
    return EXIT_OK


def _audit_counts(text: str) -> dict[str, int]:
    """``name=value,...`` overrides of AuditConfig's integer count fields
    (not the seed), each a decimal integer of at least 1."""
    from .audit import AuditConfig

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
        if key in overrides:
            raise ConfigError(f"repeated counts: {[key]}")
        overrides[key] = int(value)
    return overrides


def _cmd_audit(opts: dict, out: str | None) -> int:
    from .audit import AuditConfig, run_audit

    seed = opts.get("seed", 0)
    claims = opts.get("claims")
    counts = opts.get("counts")
    overrides = {} if counts is None else _audit_counts(counts)
    config = AuditConfig(seed=seed)
    if claims is not None:
        names = tuple(c.strip() for c in claims.split(",") if c.strip())
        config = replace(config, claims=names)
    config = replace(config, **overrides)
    report = run_audit(config)
    text = report.render()
    if out:
        _atomic_write(out, (text,))
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


# command -> (help, options, handler); every command also takes --config and --out
COMMANDS = {
    "solve": (
        "enumerate equilibria",
        ("protocol", "dist", "refine"),
        _cmd_solve,
    ),
    "refine": (
        "equilibria surviving the deliberation refinement",
        ("protocol", "dist"),
        partial(_cmd_solve, refine=True),
    ),
    "verify": ("verify a stated equilibrium", ("protocol", "dist", "equilibrium"), _cmd_verify),
    "gains": ("full-effort gain corners of a protocol", ("model", "protocol", "refine"), _cmd_gains),
    "dominance": (
        "compare two protocols' full-effort sets",
        ("model", "protocol-a", "protocol-b", "refine"),
        _cmd_dominance,
    ),
    "optimal-k": (
        "best consensus level for a binary environment",
        ("n", "full", "deviation"),
        _cmd_optimal_k,
    ),
    "sweep": ("optimal-consensus parameter sweep to CSV", ("panel", "grid", "n"), _cmd_sweep),
    "audit": ("run the claims audit", ("seed", "claims", "counts"), _cmd_audit),
}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are one line, like every other input
    error (argparse prints the usage first)."""

    def error(self, message: str):
        self.exit(EXIT_INPUT_ERROR, f"error: {message}\n")


PROG = "team-disclosure"


def _add_options(parser: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    """Give a command's parser its flags, then --config and --out."""
    for name in COMMANDS[command][1]:
        flag = OPTIONS[name][1]
        if flag is not None:
            parser.add_argument(f"--{name}", **flag)
    parser.add_argument("--config", help="JSON config file; flags win on conflict")
    parser.add_argument("--out", help="output path (written atomically)")
    return parser


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process from ``COMMANDS``:
    parsing reads it and leaves no state in it, so every ``main`` call shares it."""
    parser = _Parser(
        prog=PROG,
        description="equilibria and effort incentives of team-disclosure games",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _, _) in COMMANDS.items():
        _add_options(sub.add_parser(command, help=help_text), command)
    return parser


@lru_cache(maxsize=None)
def _command_parser(command: str) -> argparse.ArgumentParser:
    """The parser of one command alone, as ``build_parser`` builds its
    subparser (the same prog, flags and errors), so it parses and prints what
    the full parser does for a command line that starts with that command."""
    return _add_options(_Parser(prog=f"{PROG} {command}"), command)


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse with the parser of the command in ``argv[0]`` alone: building
    all of them costs several times one. The full parser reads any other
    command line (--help, no command, an unknown command)."""
    if argv and argv[0] in COMMANDS:
        return _command_parser(argv[0]).parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return EXIT_INPUT_ERROR if exc.code else EXIT_OK
    _, names, handler = COMMANDS[args.command]
    try:
        return handler(_options(args, names), args.out)
    except SearchCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEARCH_CAP
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
