"""Team-disclosure games: equilibria under deliberation protocols and the
effort incentives they induce."""

from .protocols import (
    DeliberationProtocol,
    ProtocolError,
    all_protocols,
    from_boolean,
    make_consensus,
    make_k_majority,
    make_leader,
    make_protocol,
)
from .outcomes import (
    JointDistribution,
    OffPathPosterior,
    OutcomeError,
    OutcomeSpace,
    binary_independent,
    binary_space,
    common_mixture,
    common_outcome_mixture,
    comonotone,
    conditional,
    fosd_dominates,
    fosd_dominates_everywhere,
    from_pmf,
    independent,
    make_space,
    marginal,
    mix,
    more_correlated,
    posterior_no_disclosure,
)
from .equilibrium import (
    Equilibrium,
    EquilibriumError,
    SearchCapExceeded,
    StrategyProfile,
    TeamRule,
    classify_rule,
    consistent_with_deliberation,
    find_equilibria,
    find_equilibria_report,
    full_disclosure_is_plausible,
    plausible_full_disclosure_by_search,
    team_rule,
    verify_equilibrium,
)
from .incentives import (
    EffortModel,
    GainVector,
    IncentiveError,
    OffPathBracket,
    classify_effort,
    dominance_report,
    dominates,
    effective_team_leader,
    effort_gain,
    effort_gain_cov,
    find_epsilon_bar,
    protocol_full_effort_corners,
)
from .binary_env import (
    BinaryEnvError,
    BinaryEnvParams,
    baseline_params,
    closed_forms,
    gain_curve,
    sweep,
)
from .audit import AuditConfig, AuditReport, run_audit

__version__ = "0.1.0"
