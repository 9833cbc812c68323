import random
from fractions import Fraction
import pytest

from team_disclosure.protocols import (
    DeliberationProtocol,
    ProtocolError,
    all_protocols,
    from_boolean,
    make_consensus,
    make_k_majority,
    make_leader,
    make_protocol,
)

from oracles import all_protocols_bruteforce, requires_more_consensus_bruteforce

F = Fraction


class TestConstructors:
    def test_consensus_two(self):
        p = make_k_majority(2, 2)
        assert p.minimal_winning == ((1, 2),)

    def test_unilateral_three(self):
        p = make_k_majority(3, 1)
        assert p.minimal_winning == ((1,), (2,), (3,))

    def test_majority_three(self):
        p = make_k_majority(3, 2)
        assert p.minimal_winning == ((1, 2), (1, 3), (2, 3))

    def test_leader(self):
        assert make_leader(2, 1).minimal_winning == ((1,),)
        assert make_leader(3, 2).minimal_winning == ((2,),)

    def test_k_out_of_range(self):
        with pytest.raises(ProtocolError):
            make_k_majority(3, 0)
        with pytest.raises(ProtocolError):
            make_k_majority(3, 4)
        with pytest.raises(ProtocolError):
            make_k_majority(1, 1)

    def test_leader_out_of_range(self):
        with pytest.raises(ProtocolError):
            make_leader(3, 4)

    def test_custom_normalizes_to_antichain(self):
        p = make_protocol(3, [[1, 2], [1, 2, 3], [1, 3]])
        assert p.minimal_winning == ((1, 2), (1, 3))

    def test_empty_coalition_rejected(self):
        with pytest.raises(ProtocolError):
            make_protocol(2, [[]])
        with pytest.raises(ProtocolError):
            make_protocol(2, [])

    def test_non_monotone_boolean_rejected(self):
        def bad(votes):
            if votes == (1, 0, 0):
                return 1  # but (1, 1, 0) below returns 0: not monotone
            return 1 if all(votes) else 0

        with pytest.raises(ProtocolError):
            from_boolean(3, bad)

    def test_consensus_violating_boolean_rejected(self):
        with pytest.raises(ProtocolError):
            from_boolean(2, lambda votes: 1)  # unanimous "no" must conceal
        with pytest.raises(ProtocolError):
            from_boolean(2, lambda votes: 0)


class TestEvaluate:
    def test_majority_mixed_vote(self):
        p = make_k_majority(3, 2)
        assert p.evaluate([1, 0, F(1, 2)]) == F(1, 2)

    def test_consensus_unanimous(self):
        assert make_consensus(2).evaluate([1, 1]) == 1
        assert make_consensus(2).evaluate([0, 0]) == 0

    def test_leader_passthrough(self):
        assert make_leader(2, 1).evaluate([F(3, 10), F(9, 10)]) == F(3, 10)

    def test_leader_opposes(self):
        assert make_leader(3, 2).evaluate([1, 0, 1]) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ProtocolError):
            make_consensus(2).evaluate([1, 1, 1])

    def test_monotone_on_random_pairs(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(2, 4)
            proto = _random_protocol(rng, n)
            x = [F(rng.randint(0, 8), 8) for _ in range(n)]
            y = [min(v + F(rng.randint(0, 4), 8), F(1)) for v in x]
            assert proto.evaluate(y) >= proto.evaluate(x)

    def test_multilinearity_exact(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(2, 4)
            proto = _random_protocol(rng, n)
            x = [F(rng.randint(0, 12), 12) for _ in range(n)]
            i = rng.randrange(n)
            hi = list(x)
            lo = list(x)
            hi[i], lo[i] = F(1), F(0)
            expected = x[i] * proto.evaluate(hi) + (1 - x[i]) * proto.evaluate(lo)
            assert proto.evaluate(x) == expected


class TestUnilateralPower:
    def test_unilateral_everyone(self):
        p = make_k_majority(3, 1)
        assert all(p.can_unilaterally_disclose(i) for i in (1, 2, 3))
        assert p.all_unilateral

    def test_consensus_nobody(self):
        assert not make_consensus(2).can_unilaterally_disclose(1)

    def test_leader_only(self):
        p = make_leader(3, 2)
        assert not p.can_unilaterally_disclose(1)
        assert p.can_unilaterally_disclose(2)
        assert not p.can_unilaterally_disclose(3)


class TestRequiresMoreConsensus:
    def test_consensus_two(self):
        assert make_consensus(2).disclosure_requires_more_consensus()

    def test_four_two_majority(self):
        assert not make_k_majority(4, 2).disclosure_requires_more_consensus()

    def test_unilateral_never(self):
        for n in (2, 3, 4):
            assert not make_k_majority(n, 1).disclosure_requires_more_consensus()

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_k_majority_threshold(self, n):
        # the pivotal-subgroup definition puts the switch at 2k >= n + 2
        for k in range(1, n + 1):
            expected = 2 * k >= n + 2
            assert make_k_majority(n, k).disclosure_requires_more_consensus() == expected

    def test_against_bruteforce_oracle(self):
        rng = random.Random(3)
        for n in (2, 3):
            for proto in all_protocols(n):
                assert proto.disclosure_requires_more_consensus() == (
                    requires_more_consensus_bruteforce(n, proto.minimal_winning)
                )
        for _ in range(60):
            n = rng.randint(2, 5)
            proto = _random_protocol(rng, n)
            assert proto.disclosure_requires_more_consensus() == (
                requires_more_consensus_bruteforce(n, proto.minimal_winning)
            )


class TestRoundTrips:
    def test_boolean_round_trip(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(2, 4)
            proto = _random_protocol(rng, n)
            rebuilt = from_boolean(
                n, lambda votes: 1 if proto.evaluate([F(v) for v in votes]) == 1 else 0
            )
            assert rebuilt.minimal_winning == proto.minimal_winning

    def test_all_protocols_counts(self):
        assert len(all_protocols(2)) == 4
        assert len(all_protocols(3)) == 18

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_all_protocols_match_the_brute_force(self, n):
        assert all_protocols(n) == all_protocols_bruteforce(n)

    @pytest.mark.parametrize("n", [-1, 0, 1, 5])
    def test_all_protocols_member_bounds(self, n):
        # one message for every team size outside 2..4: no silent empty tuple
        # at 0 and no bare shift error below it
        with pytest.raises(ProtocolError) as err:
            all_protocols(n)
        assert str(err.value) == f"exhaustive protocol enumeration needs 2 <= n <= 4, got {n}"

    def test_canonical_order_enforced(self):
        with pytest.raises(ProtocolError):
            DeliberationProtocol(3, ((1, 3), (1, 2)))


def _random_protocol(rng, n):
    count = rng.randint(1, 3)
    coals = [sorted(rng.sample(range(1, n + 1), rng.randint(1, n))) for _ in range(count)]
    return make_protocol(n, coals)
