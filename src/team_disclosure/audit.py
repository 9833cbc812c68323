"""Randomized and exhaustive audit of the library's equilibrium and incentive claims.

Each claim is an executable check over generated instances: exhaustive over
protocols where the member count allows it, randomized full-support rational
distributions otherwise. Instance streams are derived deterministically from
the seed and the claim's name, so reruns and per-claim parallelism reproduce
byte-identical reports. A failing claim serializes its counterexample; it is
an audit outcome, never an exception.

A claim is declared once: ``@_claim("description")`` above
``def _claim_<name>(config, rng, rec)`` registers it in :data:`CLAIMS` under
``<name>``. The check draws its instances from ``rng``, seeded by the audit
seed and the claim's name, and records them on ``rec`` (``tick`` per
instance, ``fail`` per counterexample, ``note`` per remark); a string it
returns is appended to the description. The decorator assembles the
:class:`ClaimResult`. Claims run and render in registration order, which is
also the default ``AuditConfig.claims``.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .binary_env import (
    PANEL_GRIDS,
    BinaryEnvParams,
    closed_forms,
    gain_curve,
    panel_sweep,
)
from .equilibrium import (
    FULL,
    INTERIOR,
    PARTIAL,
    TeamRule,
    find_equilibria,
    full_disclosure_is_plausible,
    plausible_full_disclosure_by_search,
)
from .incentives import (
    SELF_IMPROVING,
    TEAM_IMPROVING,
    EffortModel,
    classify_effort,
    dominance_report,
    dominates,
    effective_team_leader,
    effort_gain,
    effort_gain_cov,
    find_epsilon_bar,
)
from .outcomes import (
    JointDistribution,
    OutcomeSpace,
    binary_independent,
    binary_space,
    common_mixture,
    comonotone,
    from_pmf,
    make_space,
    mix,
    more_correlated,
)
from .protocols import DeliberationProtocol, all_protocols, make_k_majority, make_leader, make_protocol
from .rationals import ONE, ZERO, frac_str


@dataclass(frozen=True)
class AuditConfig:
    seed: int = 0
    # every registered claim, in registration order
    claims: tuple[str, ...] = field(default_factory=lambda: tuple(CLAIMS))
    existence_dists: int = 12
    refinement_dists: int = 12
    threshold_dists: int = 6
    interior_dists: int = 10
    nesting_cases: int = 12
    statics_cases: int = 12
    identity_cases: int = 60
    effort_models: int = 6
    epsilon_check_step: Fraction = Fraction(1, 20)
    binary_draws: int = 120
    sweep_members: int = 10
    max_failures: int = 5


@dataclass(frozen=True)
class ClaimResult:
    name: str
    description: str
    instances: int
    failures: tuple[str, ...]
    notes: tuple[str, ...] = ()
    # wall time of the check; never rendered, so reports stay byte-identical
    seconds: float = field(default=0.0, compare=False, repr=False)

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class AuditReport:
    config: AuditConfig
    results: tuple[ClaimResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def render(self) -> str:
        lines = [
            "team-disclosure audit",
            f"seed: {self.config.seed}",
            f"claims: {', '.join(self.config.claims)}",
            "",
        ]
        for r in self.results:
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"[{status}] {r.name} ({r.instances} instances)")
            lines.append(f"       {r.description}")
            for f in r.failures:
                lines.append(f"       failure: {f}")
            for note in r.notes:
                lines.append(f"       note: {note}")
        lines.append("")
        n_pass = sum(1 for r in self.results if r.passed)
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"result: {verdict} ({n_pass}/{len(self.results)} claims)")
        return "\n".join(lines) + "\n"


class _Recorder:
    """Collects failures up to a cap and counts instances."""

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self.instances = 0
        self.failures: list[str] = []
        self.notes: list[str] = []

    def tick(self) -> None:
        self.instances += 1

    def fail(self, message: str) -> None:
        if len(self.failures) < self.cap:
            self.failures.append(message)
        elif len(self.failures) == self.cap:
            self.failures.append("... more failures suppressed")

    def note(self, message: str) -> None:
        if message not in self.notes:
            self.notes.append(message)


CLAIMS: dict[str, Callable[[AuditConfig], ClaimResult]] = {}


def _claim(description: str):
    """Register ``_claim_<name>(config, rng, rec)`` as the claim ``<name>``,
    run with its own RNG and a fresh recorder."""

    def register(check: Callable[[AuditConfig, random.Random, _Recorder], str | None]):
        name = check.__name__.removeprefix("_claim_")

        def run(config: AuditConfig) -> ClaimResult:
            start = time.perf_counter()
            rec = _Recorder(config.max_failures)
            suffix = check(config, random.Random(f"{config.seed}:{name}"), rec) or ""
            return ClaimResult(
                name,
                description + suffix,
                rec.instances,
                tuple(rec.failures),
                tuple(rec.notes),
                time.perf_counter() - start,
            )

        CLAIMS[name] = run
        return check

    return register


# ---------------------------------------------------------------------------
# Instance generators
# ---------------------------------------------------------------------------


def random_distribution(rng: random.Random, n: int, sizes: Sequence[int] = (2, 3)) -> JointDistribution:
    """Full-support pmf with numerators uniform on 1..20."""
    grids = [sorted(rng.sample(range(0, 8), rng.choice(sizes))) for _ in range(n)]
    space = make_space(grids)
    nums = [rng.randint(1, 20) for _ in space.cells]
    den = sum(nums)
    return JointDistribution(space, tuple(Fraction(x, den) for x in nums))


def random_binary_distribution(rng: random.Random, n: int) -> JointDistribution:
    return random_distribution(rng, n, sizes=(2,))


def random_protocol(rng: random.Random, n: int) -> DeliberationProtocol:
    count = rng.randint(1, 3)
    coals = []
    for _ in range(count):
        size = rng.randint(1, n)
        coals.append(sorted(rng.sample(range(1, n + 1), size)))
    return make_protocol(n, coals)


def _fraction(rng: random.Random, lo: int, hi: int, den: int = 100) -> Fraction:
    return Fraction(rng.randint(lo, hi), den)


def self_improving_model(rng: random.Random, n: int) -> EffortModel:
    base = [_fraction(rng, 20, 60) for _ in range(n)]
    boost = [_fraction(rng, 5, 30) for _ in range(n)]

    def dist(e: tuple[int, ...]) -> JointDistribution:
        return binary_independent([base[i] + boost[i] * e[i] for i in range(n)])

    return EffortModel.build(n, dist, ["1/100"] * n)


def team_improving_model(rng: random.Random, n: int) -> EffortModel:
    base = [_fraction(rng, 20, 60) for _ in range(n)]
    lift = [_fraction(rng, 2, 10) for _ in range(n)]  # what member i adds to each partner

    def dist(e: tuple[int, ...]) -> JointDistribution:
        qs = [
            base[j] + sum(lift[i] for i in range(n) if i != j and e[i])
            for j in range(n)
        ]
        return binary_independent(qs)

    return EffortModel.build(n, dist, ["1/100"] * n)


def mixed_effect_model(rng: random.Random, n: int) -> EffortModel:
    """Generic productive model: independent lifts plus a comonotone pull."""
    base = [_fraction(rng, 20, 50) for _ in range(n)]
    own = [_fraction(rng, 2, 15) for _ in range(n)]
    cross = [_fraction(rng, 0, 10) for _ in range(n)]
    pull = _fraction(rng, 5, 20)
    space = binary_space(n)
    top = from_pmf(space, {tuple([1] * n): Fraction(9, 10), tuple([0] * n): Fraction(1, 10)})

    def dist(e: tuple[int, ...]) -> JointDistribution:
        qs = [
            base[j] + own[j] * e[j] + sum(cross[i] for i in range(n) if i != j and e[i])
            for j in range(n)
        ]
        eps = pull * sum(e) / n
        return mix(binary_independent(qs), top, eps)

    return EffortModel.build(n, dist, ["1/100"] * n)


def random_rule(rng: random.Random, space: OutcomeSpace) -> TeamRule:
    vals = tuple(Fraction(rng.randint(0, 8), 8) for _ in space.cells)
    return TeamRule(space, vals)


# ---------------------------------------------------------------------------
# Oracles used by the audit (independent re-derivations)
# ---------------------------------------------------------------------------


def enumerated_effort_gain(model: EffortModel, rule: TeamRule, i: int) -> Fraction:
    """Member i's payoff difference by direct enumeration: disclosed outcomes
    pay their own value, concealed ones pay the full-effort posterior."""
    full = model.dist_of(model.full_effort)
    dev = model.dist_of(model.without(i))
    pnd = ZERO
    mass = ZERO
    for cell, p, d in zip(full.space.cells, full.probs, rule.values):
        pnd += (ONE - d) * p
        mass += cell[i - 1] * (ONE - d) * p
    post = mass / pnd if pnd > 0 else full.space.grids[i - 1][0]

    def payoff(dist: JointDistribution) -> Fraction:
        total = ZERO
        for cell, p, d in zip(dist.space.cells, dist.probs, rule.values):
            total += p * (d * cell[i - 1] + (ONE - d) * post)
        return total

    return payoff(full) - payoff(dev)


# ---------------------------------------------------------------------------
# Claims
# ---------------------------------------------------------------------------


def _describe(dist: JointDistribution) -> str:
    cells = ";".join(
        f"{','.join(frac_str(v) for v in c)}:{frac_str(p)}"
        for c, p in zip(dist.space.cells, dist.probs)
    )
    return f"pmf[{cells}]"


def _protocol_draws(
    rng: random.Random, count: int, draw: Callable[[random.Random, int], JointDistribution]
) -> Iterator[tuple[JointDistribution, DeliberationProtocol]]:
    """(dist, protocol) pairs: for n = 2, then 3, ``count`` distributions
    drawn by ``draw(rng, n)``, each paired with every n-member protocol."""
    for n in (2, 3):
        protocols = all_protocols(n)
        for _ in range(count):
            dist = draw(rng, n)
            for proto in protocols:
                yield dist, proto


@_claim(
    "an always-disclose equilibrium always exists; partial ones exist exactly "
    "when someone lacks unilateral disclosure power, and are interior exactly "
    "when nobody has it"
)
def _claim_equilibrium_existence(config: AuditConfig, rng: random.Random, rec: _Recorder) -> None:
    for dist, proto in _protocol_draws(rng, config.existence_dists, random_distribution):
        rec.tick()
        eqs = find_equilibria(dist, proto)
        where = f"{proto.describe()} on {_describe(dist)}"
        if not any(all(v == ONE for v in e.rule.values) for e in eqs):
            rec.fail(f"no always-disclose equilibrium: {where}")
        partial = [e for e in eqs if e.classification != FULL]
        if bool(partial) != (not proto.all_unilateral):
            rec.fail(f"partial-equilibrium existence mismatch: {where}")
        if not proto.any_unilateral and any(e.classification == PARTIAL for e in eqs):
            rec.fail(f"non-interior partial equilibrium found: {where}")
        if proto.any_unilateral and any(e.classification == INTERIOR for e in eqs):
            rec.fail(f"interior equilibrium under unilateral power: {where}")
        if any(not e.verification.ok for e in eqs):
            rec.fail(f"returned equilibrium failed verification: {where}")


@_claim(
    "full disclosure survives the deliberation refinement exactly when "
    "disclosing needs no more consensus than concealing (predicate vs. "
    "exhaustive justification search)"
)
def _claim_refinement_consistency(config: AuditConfig, rng: random.Random, rec: _Recorder) -> None:
    for dist, proto in _protocol_draws(rng, config.refinement_dists, random_binary_distribution):
        rec.tick()
        predicate = full_disclosure_is_plausible(dist, proto)
        search = plausible_full_disclosure_by_search(dist, proto)
        if predicate != search:
            rec.fail(
                f"consensus predicate={predicate} but belief search={search}: "
                f"{proto.describe()} on {_describe(dist)}"
            )


@_claim(
    "every returned equilibrium is in threshold form: vote to disclose "
    "strictly above your no-disclosure posterior, conceal strictly below"
)
def _claim_threshold_form(config: AuditConfig, rng: random.Random, rec: _Recorder) -> None:
    for dist, proto in _protocol_draws(rng, config.threshold_dists, random_distribution):
        for eq in find_equilibria(dist, proto):
            rec.tick()
            for i, grid in enumerate(dist.space.grids):
                for pos, value in enumerate(grid):
                    vote = eq.profile.values[i][pos]
                    if value > eq.posteriors[i] and vote != ONE:
                        rec.fail(
                            f"vote below 1 above the posterior: member {i+1} "
                            f"at {value} vs {eq.posteriors[i]} under {proto.describe()}"
                        )
                    if value < eq.posteriors[i] and vote != ZERO:
                        rec.fail(
                            f"vote above 0 below the posterior: member {i+1} "
                            f"at {value} vs {eq.posteriors[i]} under {proto.describe()}"
                        )


def _high_set_rule(proto: DeliberationProtocol, space: OutcomeSpace) -> tuple[Fraction, ...]:
    """The team rule of a binary space that applies the protocol, cell by
    cell, to the members who drew their high value."""
    return tuple(
        ONE
        if proto.is_winning([i + 1 for i, (v, g) in enumerate(zip(cell, space.grids)) if v == g[1]])
        else ZERO
        for cell in space.cells
    )


@_claim(
    "with binary outcomes, every interior equilibrium's team rule is the "
    "protocol applied to who drew high"
)
def _claim_binary_interior_rule(config: AuditConfig, rng: random.Random, rec: _Recorder) -> None:
    for dist, proto in _protocol_draws(rng, config.interior_dists, random_binary_distribution):
        expected = _high_set_rule(proto, dist.space)
        for eq in find_equilibria(dist, proto):
            if eq.classification != INTERIOR:
                continue
            rec.tick()
            if eq.rule.values != expected:
                rec.fail(
                    f"interior rule differs from the high-set vote: "
                    f"{proto.describe()} on {_describe(dist)}"
                )


@_claim(
    "widening the winning coalitions lets every equilibrium rule be matched "
    "by one that discloses weakly more"
)
def _claim_protocol_nesting(config: AuditConfig, rng: random.Random, rec: _Recorder) -> None:
    for _ in range(config.nesting_cases):
        n = rng.choice((2, 3))
        small = random_protocol(rng, n)
        extra = [sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))]
        big = make_protocol(n, list(small.minimal_winning) + extra)
        dist = random_binary_distribution(rng, n)
        eqs_small = find_equilibria(dist, small)
        eqs_big = find_equilibria(dist, big)
        for eq in eqs_small:
            rec.tick()
            if not any(
                all(db >= ds for db, ds in zip(other.rule.values, eq.rule.values))
                for other in eqs_big
            ):
                rec.fail(
                    f"no pointwise-larger equilibrium rule: {small.describe()} -> "
                    f"{big.describe()} on {_describe(dist)}"
                )


@_claim(
    "more outcome correlation keeps the interior rule and raises both the "
    "chance of disclosing a high outcome and of concealing a low one"
)
def _claim_correlation_statics(config: AuditConfig, rng: random.Random, rec: _Recorder) -> None:
    for _ in range(config.statics_cases):
        n = rng.choice((2, 3))
        q = _fraction(rng, 20, 80)
        p_lo = _fraction(rng, 5, 45)
        p_hi = p_lo + _fraction(rng, 5, 45)
        f = common_mixture(n, p_lo, q, q)
        f_prime = common_mixture(n, p_hi, q, q)
        rec.tick()
        if not more_correlated(f_prime, f):
            rec.fail(f"raising the common weight failed the correlation order (p={p_lo}->{p_hi}, q={q})")
            continue
        protocols = [p for p in all_protocols(n) if not p.any_unilateral]
        for proto in protocols:
            rec.tick()
            space = f.space
            rule = _high_set_rule(proto, space)
            in_f = any(e.rule.values == rule for e in find_equilibria(f, proto))
            in_fp = any(e.rule.values == rule for e in find_equilibria(f_prime, proto))
            if not (in_f and in_fp):
                rec.fail(f"interior rule not found under both mixtures: {proto.describe()}")
                continue
            for i in range(n):
                hi_f = sum(
                    p for cell, p, d in zip(space.cells, f.probs, rule) if d == ONE and cell[i] == ONE
                )
                hi_fp = sum(
                    p for cell, p, d in zip(space.cells, f_prime.probs, rule) if d == ONE and cell[i] == ONE
                )
                lo_f = sum(
                    p for cell, p, d in zip(space.cells, f.probs, rule) if d == ZERO and cell[i] == ZERO
                )
                lo_fp = sum(
                    p for cell, p, d in zip(space.cells, f_prime.probs, rule) if d == ZERO and cell[i] == ZERO
                )
                if hi_fp < hi_f or lo_fp < lo_f:
                    rec.fail(
                        f"correlation statics violated for member {i+1}: {proto.describe()} "
                        f"(p={p_lo}->{p_hi}, q={q})"
                    )


@_claim(
    "the direct and covariance forms of the effort gain agree exactly, and "
    "both equal the enumerated payoff difference"
)
def _claim_gain_identity(config: AuditConfig, rng: random.Random, rec: _Recorder) -> None:
    builders = [self_improving_model, team_improving_model, mixed_effect_model]
    for case in range(config.identity_cases):
        n = rng.choice((2, 3))
        model = builders[case % len(builders)](rng, n)
        space = model.dist_of(model.full_effort).space
        rule = random_rule(rng, space)
        for i in range(1, n + 1):
            rec.tick()
            g = effort_gain(model, rule, i, off_path="skeptical")
            g_cov = effort_gain_cov(model, rule, i)
            g_enum = enumerated_effort_gain(model, rule, i)
            if not g == g_cov == g_enum:
                rec.fail(
                    f"gain forms disagree for member {i}: direct={g} covariance={g_cov} "
                    f"enumerated={g_enum}"
                )


@_claim(
    "self-improving effort makes unilateral disclosure dominant; "
    "team-improving effort makes consensual disclosure strictly better than "
    "unilateral and undominated by any protocol with unilateral power"
)
def _claim_effort_type_dominance(config: AuditConfig, rng: random.Random, rec: _Recorder) -> None:
    # exact worked instance: own high chance stays 3/5, the partner's falls to
    # 1/2 when a member shirks; consensual beats unilateral by exactly 3/80
    def worked(e: tuple[int, ...]) -> JointDistribution:
        return binary_independent(
            [Fraction(1, 2) + Fraction(1, 10) * e[1], Fraction(1, 2) + Fraction(1, 10) * e[0]]
        )

    model = EffortModel.build(2, worked, ["1/100", "1/100"])
    space = model.dist_of((1, 1)).space
    consensual_rule = TeamRule(
        space, tuple(ONE if all(v == ONE for v in c) else ZERO for c in space.cells)
    )
    rec.tick()
    gain = effort_gain(model, consensual_rule, 1)
    if gain != Fraction(3, 80):
        rec.fail(f"worked consensual gain is {gain}, expected 3/80")
    full_rule = TeamRule.constant(space, ONE)
    if effort_gain(model, full_rule, 1) != ZERO:
        rec.fail("worked full-disclosure gain is nonzero")
    report = dominance_report(make_k_majority(2, 2), make_k_majority(2, 1), model)
    if not (report.dominates and report.strictly and report.witness is not None):
        rec.fail("consensual disclosure fails to strictly dominate unilateral on the worked model")

    for _ in range(config.effort_models):
        n = rng.choice((2, 3))
        m_self = self_improving_model(rng, n)
        rec.tick()
        if classify_effort(m_self) != SELF_IMPROVING:
            rec.fail("constructed self-improving model misclassified")
        uni = make_k_majority(n, 1)
        others = [make_k_majority(n, n), make_leader(n, rng.randint(1, n)), random_protocol(rng, n)]
        for proto in others:
            rec.tick()
            if not dominates(uni, proto, m_self):
                rec.fail(f"unilateral fails to dominate {proto.describe()} under self-improving effort")
            if proto.disclosure_requires_more_consensus() and not dominates(
                uni, proto, m_self, refine=True, strict=True
            ):
                rec.fail(
                    f"unilateral not strictly dominant after refinement: {proto.describe()}"
                )
        m_team = team_improving_model(rng, n)
        rec.tick()
        if classify_effort(m_team) != TEAM_IMPROVING:
            rec.fail("constructed team-improving model misclassified")
        cons = make_k_majority(n, n)
        if not dominates(cons, uni, m_team, strict=True):
            rec.fail("consensual disclosure fails to strictly dominate unilateral under team-improving effort")
        with_unilateral = make_protocol(n, [[rng.randint(1, n)]])
        rec.tick()
        if dominates(with_unilateral, cons, m_team):
            rec.fail(
                f"{with_unilateral.describe()} dominates consensual despite team-improving effort"
            )


@_claim(
    "mixing enough weight onto the perfectly correlated distribution makes "
    "the consensual protocol strictly dominate unilateral disclosure"
)
def _claim_correlation_mixing(config: AuditConfig, rng: random.Random, rec: _Recorder) -> str | None:
    base = EffortModel.build(
        2,
        lambda e: binary_independent(
            [Fraction(1, 2) + Fraction(1, 10) * e[0], Fraction(1, 2) + Fraction(1, 10) * e[1]]
        ),
        ["1/100", "1/100"],
    )
    top = comonotone([0, 1], [Fraction(15, 100), Fraction(85, 100)], 2)
    cons = make_k_majority(2, 2)
    uni = make_k_majority(2, 1)
    rec.tick()
    result = find_epsilon_bar(base, top, cons)
    if not result.found or result.epsilon_bar is None or not result.epsilon_bar < ONE:
        rec.fail("no mixing threshold found below 1")
        return None
    if not result.monotone:
        rec.note("dominance indicator is not monotone above the threshold")
    eps = result.epsilon_bar + Fraction(1, 100)
    while eps <= Fraction(99, 100):
        rec.tick()
        mixed = base.replace_full_effort(mix(base.dist_of((1, 1)), top, eps))
        if not dominates(cons, uni, mixed, strict=True):
            rec.fail(f"strict dominance fails at mixing weight {eps}")
        eps += config.epsilon_check_step
    rec.tick()
    if dominates(cons, uni, base, strict=True):
        rec.fail("strict dominance should fail with no mixing (self-improving base)")
    return f" (threshold {frac_str(result.epsilon_bar)})"


def _leader_model() -> EffortModel:
    """Member 2's effort lifts member 1's outcome and ties their own outcome
    more tightly to member 1's failures."""
    space = binary_space(2)

    def dist(e: tuple[int, ...]) -> JointDistribution:
        p1 = Fraction(1, 2) + Fraction(1, 10) * e[0] + Fraction(1, 10) * e[1]
        if e[1] == 1:
            c_hi, c_lo = Fraction(9, 10), Fraction(45, 100)
        else:
            c_hi, c_lo = Fraction(1, 2), Fraction(1, 2)
        pmf = {}
        for w1 in (0, 1):
            for w2 in (0, 1):
                pw1 = p1 if w1 else ONE - p1
                c = c_hi if w1 else c_lo
                pw2 = c if w2 else ONE - c
                pmf[(w1, w2)] = pw1 * pw2
        return from_pmf(space, pmf)

    return EffortModel.build(2, dist, ["1/100", "1/100"])


@_claim(
    "a member whose partners' effort tightens the link to their failures is "
    "an effective leader: their leader protocol strictly dominates "
    "unilateral disclosure; independent models have no such leader"
)
def _claim_team_leader(config: AuditConfig, rng: random.Random, rec: _Recorder) -> None:
    model = _leader_model()
    rec.tick()
    if not effective_team_leader(model, 1):
        rec.fail("constructed leader model not recognized")
    if effective_team_leader(model, 2):
        rec.fail("member 2 wrongly recognized as an effective leader")
    if not dominates(make_leader(2, 1), make_k_majority(2, 1), model, strict=True):
        rec.fail("leader protocol fails to strictly dominate unilateral disclosure")
    for _ in range(max(1, config.effort_models // 2)):
        n = rng.choice((2, 3))
        rec.tick()
        m_self = self_improving_model(rng, n)
        if any(effective_team_leader(m_self, i) for i in range(1, n + 1)):
            rec.fail("self-improving model has no effective leader but one was reported")
        m_team = team_improving_model(rng, n)
        if any(effective_team_leader(m_team, i) for i in range(1, n + 1)):
            rec.fail("independent team-improving model has no effective leader but one was reported")


@_claim(
    "in the symmetric binary environment, partner- and correlation-lifting "
    "effort favors every consensus level over unilateral disclosure, while "
    "own- and common-lifting effort favors unilateral; conceal-mean "
    "monotonicities hold"
)
def _claim_binary_dominance(config: AuditConfig, rng: random.Random, rec: _Recorder) -> None:
    for _ in range(config.binary_draws):
        n = rng.randint(2, 6)
        p = _fraction(rng, 10, 90)
        qt = _fraction(rng, 10, 90)
        qi = _fraction(rng, 10, 85)
        qo = _fraction(rng, 10, 85)
        delta = _fraction(rng, 2, 10)
        base = BinaryEnvParams(n, p, qt, qi, qo)

        cases = {
            "partner-lift": (replace(base, q_other=min(qo + delta, Fraction(99, 100))), base),
            "correlation-lift": (replace(base, p=min(p + delta, Fraction(99, 100))), base),
            "own-lift": (replace(base, q_own=min(qi + delta, Fraction(99, 100))), base),
            "common-lift": (replace(base, q_team=min(qt + delta, Fraction(99, 100))), base),
        }
        for label in ("partner-lift", "correlation-lift"):
            full, dev = cases[label]
            gains = gain_curve(full, dev).gains
            for k in range(2, n + 1):
                rec.tick()
                if not gains[k - 1] > gains[0]:
                    rec.fail(
                        f"{label}: consensus level {k} fails to beat unilateral "
                        f"(n={n}, p={p}, qt={qt}, qi={qi}, qo={qo}, d={delta})"
                    )
        for label in ("own-lift", "common-lift"):
            full, dev = cases[label]
            gains = gain_curve(full, dev).gains
            for k in range(2, n + 1):
                rec.tick()
                if not gains[0] >= gains[k - 1]:
                    rec.fail(
                        f"{label}: unilateral fails to dominate consensus level {k} "
                        f"(n={n}, p={p}, qt={qt}, qi={qi}, qo={qo}, d={delta})"
                    )

        # conceal-mean monotonicity by exact finite differences
        k = rng.randint(2, n)
        h = Fraction(1, 200)
        rec.tick()

        def mean_at(params: BinaryEnvParams) -> Fraction:
            return closed_forms(params)[2][k - 1]

        mean = mean_at(base)
        if not mean_at(replace(base, q_other=qo + h)) <= mean:
            rec.fail(f"conceal-mean not decreasing in the partners' high chance (n={n}, k={k})")
        if not mean_at(replace(base, p=p + h)) <= mean:
            rec.fail(f"conceal-mean not decreasing in the common-branch weight (n={n}, k={k})")
        if not mean_at(replace(base, q_own=qi + h)) >= mean:
            rec.fail(f"conceal-mean not increasing in the own high chance (n={n}, k={k})")
        if not mean_at(replace(base, q_team=qt + h)) >= mean:
            rec.fail(f"conceal-mean not increasing in the common high chance (n={n}, k={k})")


def _nonincreasing(seq: Sequence[int]) -> bool:
    return all(a >= b for a, b in zip(seq, seq[1:]))


def _rises_then_falls(seq: Sequence[int]) -> bool:
    peak = seq.index(max(seq))
    return all(a <= b for a, b in zip(seq[: peak + 1], seq[1 : peak + 1])) and _nonincreasing(
        seq[peak:]
    )


@_claim(
    "the optimal consensus level rises then falls in the partners' deviation "
    "chance and falls along the other three panel sweeps"
)
def _claim_optimal_consensus_shapes(config: AuditConfig, rng: random.Random, rec: _Recorder) -> None:
    n = config.sweep_members
    shapes: dict[str, Callable[[Sequence[int]], bool]] = {
        "a": _rises_then_falls,
        "b": _nonincreasing,
        "c": _nonincreasing,
        "d": _nonincreasing,
    }
    for panel, check in shapes.items():
        rec.tick()
        table = panel_sweep(panel, n)
        trace = [k for _, k in table.k_star_trace()]
        if not check(trace):
            axis = PANEL_GRIDS[panel][0]
            offending = [
                f"{frac_str(v)}->K*={k}" for v, k in table.k_star_trace()
            ]
            rec.fail(f"panel {panel} ({axis}) trace breaks its shape: {offending}")
        rec.note(
            f"panel {panel}: K* from {trace[0]} to {trace[-1]} over {len(trace)} grid points"
        )


def run_audit(config: AuditConfig | None = None) -> AuditReport:
    config = config or AuditConfig()
    if not config.claims:
        raise ValueError("no claims selected")
    unknown = [c for c in config.claims if c not in CLAIMS]
    if unknown:
        raise ValueError(f"unknown claims: {unknown}")
    repeated = [c for c in dict.fromkeys(config.claims) if config.claims.count(c) > 1]
    if repeated:
        raise ValueError(f"repeated claims: {repeated}")
    return AuditReport(config, tuple(CLAIMS[name](config) for name in config.claims))
