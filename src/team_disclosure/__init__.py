"""Team-disclosure games: equilibria under deliberation protocols and the
effort incentives they induce.

The public names below are re-exported lazily (PEP 562): ``import
team_disclosure`` loads no submodule, and a name's submodule is imported the
first time the name is read. A process therefore compiles only the modules
it runs; the command-line interface (``team_disclosure.cli``) follows the
same rule, so ``solve`` never loads ``audit`` or ``incentives``.
"""
from importlib import import_module

# submodule -> the public names it exports
_EXPORTS = {
    "protocols": (
        "DeliberationProtocol",
        "ProtocolError",
        "all_protocols",
        "from_boolean",
        "make_consensus",
        "make_k_majority",
        "make_leader",
        "make_protocol",
    ),
    "outcomes": (
        "JointDistribution",
        "OffPathPosterior",
        "OutcomeError",
        "OutcomeSpace",
        "binary_independent",
        "binary_space",
        "common_mixture",
        "common_outcome_mixture",
        "comonotone",
        "conditional",
        "fosd_dominates",
        "fosd_dominates_everywhere",
        "from_pmf",
        "independent",
        "make_space",
        "marginal",
        "mix",
        "more_correlated",
        "posterior_no_disclosure",
    ),
    "equilibrium": (
        "Equilibrium",
        "EquilibriumError",
        "SearchCapExceeded",
        "StrategyProfile",
        "TeamRule",
        "classify_rule",
        "consistent_with_deliberation",
        "find_equilibria",
        "find_equilibria_report",
        "full_disclosure_is_plausible",
        "plausible_full_disclosure_by_search",
        "team_rule",
        "verify_equilibrium",
    ),
    "incentives": (
        "EffortModel",
        "GainVector",
        "IncentiveError",
        "OffPathBracket",
        "classify_effort",
        "dominance_report",
        "dominates",
        "effective_team_leader",
        "effort_gain",
        "effort_gain_cov",
        "find_epsilon_bar",
        "protocol_full_effort_corners",
    ),
    "binary_env": (
        "BinaryEnvError",
        "BinaryEnvParams",
        "baseline_params",
        "closed_forms",
        "gain_curve",
        "sweep",
    ),
    "audit": ("AuditConfig", "AuditReport", "run_audit"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [name for names in _EXPORTS.values() for name in names]
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
