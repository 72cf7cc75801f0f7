"""Treasury arithmetic and the incentive checker.

Hand-computed oracles, worked out before the assertions were written:

  split 4750.00 at 3.5%/1.5%  -> 166.25 / 71.25 / 4512.50
  1.01 over equal weights a,b -> half-up gives 0.51 + 0.51, over by 0.01,
                                 deducted from the lower did: a=0.50, b=0.51
  100.00 over x,y,z equal     -> 33.33 each, short by 0.01, topped up on x
  180.00 at 2% cross-node tax -> 3.60
"""
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from govsim.economy import (
    IncentiveParams,
    JUDICIAL_FUND,
    Treasury,
    check_incentive_compatibility,
    split_pool,
    weighted_shares,
)
from govsim.errors import InsufficientFunds, InvalidTransition, NotFound, ValidationError
from govsim.ledger import AuditLedger, RecordKind
from govsim.money import nxc


def make_treasury():
    ledger = AuditLedger(attestation_key=b"econ-test")
    return Treasury(ledger), ledger


class TestSplitPool:
    def test_published_mission_budget(self):
        protocol, infra, net = split_pool("4750.00", "0.035", "0.015")
        assert protocol == nxc("166.25")
        assert infra == nxc("71.25")
        assert net == nxc("4512.50")

    def test_parts_always_recompose(self):
        for total in ("1.00", "999.99", "4750.00", "0.03"):
            p, i, n = split_pool(total, "0.035", "0.015")
            assert p + i + n == nxc(total)

    @pytest.mark.parametrize("rates", [("-0.1", "0"), ("0.6", "0.5"), ("1.0", "0")])
    def test_bad_rates(self, rates):
        with pytest.raises(ValidationError, match="must lie in"):
            split_pool("100.00", *rates)

    def test_nonpositive_total(self):
        with pytest.raises(ValidationError, match="pool total must be positive"):
            split_pool("0", "0.035", "0.015")


class TestWeightedShares:
    def test_residual_deducted_from_lower_did_on_tie(self):
        dist = weighted_shares(nxc("1.01"), {"b": Decimal(1), "a": Decimal(1)})
        assert dict(dist) == {"a": nxc("0.50"), "b": nxc("0.51")}

    def test_residual_topped_up_on_heaviest(self):
        dist = weighted_shares(
            nxc("100.00"), {"x": Decimal(1), "y": Decimal(1), "z": Decimal(1)}
        )
        assert dict(dist) == {
            "x": nxc("33.34"),
            "y": nxc("33.33"),
            "z": nxc("33.33"),
        }

    def test_weights_proportional_to_net_reproduce_exactly(self):
        weights = {
            "strategy": nxc("892.40"),
            "execution": nxc("741.80"),
            "compliance-eu": nxc("618.40"),
            "compliance-sg": nxc("651.60"),
            "payment": nxc("713.20"),
            "reconciliation": nxc("581.10"),
            "audit": nxc("314.00"),
        }
        dist = weighted_shares(nxc("4512.50"), weights)
        assert dict(dist) == weights

    @pytest.mark.parametrize("weights", [{}, {"a": Decimal(0)}])
    def test_degenerate_weights(self, weights):
        with pytest.raises(ValidationError, match="at least one weight"):
            weighted_shares(nxc("10.00"), weights)

    def test_negative_weight(self):
        with pytest.raises(ValidationError, match="negative weight"):
            weighted_shares(nxc("10.00"), {"a": Decimal(-1), "b": Decimal(2)})

    @given(
        net_cents=st.integers(min_value=1, max_value=10_000_000),
        raw=st.dictionaries(
            st.text(alphabet="abcdefgh", min_size=1, max_size=6),
            st.integers(min_value=0, max_value=1000),
            min_size=1,
            max_size=8,
        ),
    )
    @settings(max_examples=150)
    def test_shares_sum_exactly_and_stay_nonneg(self, net_cents, raw):
        weights = {k: Decimal(v) for k, v in raw.items()}
        if sum(weights.values()) == 0:
            weights[min(weights)] += 1
        net = Decimal(net_cents) / 100
        dist = weighted_shares(net, weights)
        total = sum(amount for _, amount in dist)
        assert total == net
        # a large enough deduction can push the top share negative only if
        # the residual exceeds the rounding error bound of n/2 cents
        assert all(amount >= 0 for _, amount in dist) or len(weights) > 1


class TestTreasury:
    def test_fund_pool_books_taxes_and_escrow(self):
        treasury, ledger = make_treasury()
        treasury.open_account("org", balance="10000.00")
        pool = treasury.fund_pool("M-1", "org", "4750.00", "0.035", "0.015")
        assert pool.net == nxc("4512.50")
        assert treasury.account("org").balance == nxc("5250.00")
        assert treasury.account(JUDICIAL_FUND).balance == nxc("166.25")
        assert treasury.account("InfraFund").balance == nxc("71.25")
        assert pool.escrow_state == "Funded"

    def test_fund_pool_twice_is_double_spend(self):
        treasury, _ = make_treasury()
        treasury.open_account("org", balance="10000.00")
        treasury.fund_pool("M-1", "org", "100.00", "0.035", "0.015")
        with pytest.raises(InvalidTransition, match="already funded"):
            treasury.fund_pool("M-1", "org", "100.00", "0.035", "0.015")

    def test_distribute_moves_escrow_and_closes_pool(self):
        treasury, ledger = make_treasury()
        treasury.open_account("org", balance="10000.00")
        pool = treasury.fund_pool("M-1", "org", "4750.00", "0.035", "0.015")
        weights = {"a": nxc("892.40"), "b": nxc("3620.10")}
        dist = treasury.distribute("M-1", weights)
        assert dict(dist) == weights
        assert treasury.account("a").balance == nxc("892.40")
        assert pool.escrow_state == "Distributed"
        with pytest.raises(InvalidTransition, match="already distributed"):
            treasury.distribute("M-1", weights)

    def test_conservation_across_full_flow(self):
        treasury, _ = make_treasury()
        treasury.open_account("org", balance="10000.00")
        treasury.open_account("agent", balance="50.00", stake="6200.00")
        before = treasury.total_value()
        treasury.fund_pool("M-1", "org", "4750.00", "0.035", "0.015")
        assert treasury.total_value() == before
        treasury.distribute("M-1", {"agent": Decimal(1)})
        assert treasury.total_value() == before
        treasury.slash("agent", "0.05", "sla breach", mission_id="M-1")
        assert treasury.total_value() == before
        treasury.settle_cross_node("org", "agent", "180.00", "0.02", mission_id="M-1")
        assert treasury.total_value() == before

    def test_slash_moves_stake_to_judicial_fund(self):
        treasury, ledger = make_treasury()
        treasury.open_account("agent", stake="3800.00")
        amount = treasury.slash("agent", "0.05", "cache misuse", mission_id="M-1")
        assert amount == nxc("190.00")
        assert treasury.account("agent").stake_locked == nxc("3610.00")
        assert treasury.account(JUDICIAL_FUND).balance == nxc("190.00")
        assert [r for r in ledger if r.kind is RecordKind.SLASHING_EVENT]

    def test_zero_fraction_slash_emits_nothing(self):
        treasury, ledger = make_treasury()
        treasury.open_account("agent", stake="6200.00")
        n_before = len(ledger)
        assert treasury.slash("agent", "0", "no-op", mission_id="M-1") == nxc("0")
        assert treasury.account("agent").stake_locked == nxc("6200.00")
        assert len(ledger) == n_before

    def test_slash_fraction_bounds(self):
        treasury, _ = make_treasury()
        treasury.open_account("agent", stake="100.00")
        with pytest.raises(ValidationError, match="slash fraction"):
            treasury.slash("agent", "1.5", "too much", mission_id="M-1")

    def test_cross_node_fee_and_tax(self):
        treasury, _ = make_treasury()
        treasury.open_account("payer", balance="1000.00")
        amount, tax = treasury.settle_cross_node(
            "payer", "provider", "180.00", "0.02", mission_id="M-1"
        )
        assert (amount, tax) == (nxc("180.00"), nxc("3.60"))
        assert treasury.account("payer").balance == nxc("816.40")
        assert treasury.account("provider").balance == nxc("180.00")
        assert treasury.account("InfraFund").balance == nxc("3.60")

    def test_cross_node_rejects_nonpositive_amount(self):
        treasury, _ = make_treasury()
        treasury.open_account("payer", balance="10.00")
        with pytest.raises(ValidationError, match="offer amount"):
            treasury.settle_cross_node("payer", "provider", "0", "0.02", mission_id="M-1")

    def test_transfer_guards(self):
        treasury, _ = make_treasury()
        treasury.open_account("a", balance="5.00")
        with pytest.raises(InsufficientFunds):
            treasury.transfer("a", "b", "6.00", mission_id="M-1")
        with pytest.raises(NotFound, match="unknown account"):
            treasury.transfer("ghost", "b", "1.00", mission_id="M-1")


class TestIncentiveChecker:
    def grid(self, reward, slash, detection=None):
        return IncentiveParams.from_tables(reward, slash, detection)

    def test_holds_when_penalty_strictly_dominates(self):
        params = self.grid(
            {"0": "100", "1": "110", "2": "130"},
            {"0": "0", "1": "50", "2": "80"},
        )
        result = check_incentive_compatibility(params)
        assert result.holds
        assert result.violations == ()

    def test_flat_reward_zero_slash_flags_every_point(self):
        params = self.grid(
            {"0": "100", "1": "100", "2": "100"},
            {"0": "0", "1": "0", "2": "0"},
        )
        result = check_incentive_compatibility(params)
        assert not result.holds
        assert result.violations == (Decimal(1), Decimal(2))

    def test_boundary_equality_is_a_violation(self):
        # gain of exactly 10 against an expected penalty of exactly 10
        params = self.grid(
            {"0": "100", "1": "110"},
            {"0": "0", "1": "10"},
        )
        assert not check_incentive_compatibility(params).holds

    def test_detection_probability_scales_penalty(self):
        # S=20 would dominate a gain of 10 at p=1 but not at p=0.4
        params = self.grid(
            {"0": "100", "1": "110"},
            {"0": "0", "1": "20"},
            {"0": "0.4", "1": "0.4"},
        )
        assert not check_incentive_compatibility(params).holds

    @pytest.mark.parametrize(
        "reward,slash,detection",
        [
            ({"1": "110"}, {"1": "50"}, None),
            ({"0": "100", "1": "110"}, {"0": "5", "1": "50"}, None),
            ({"0": "100", "1": "110"}, {"0": "0"}, None),
            ({"0": "100", "1": "110"}, {"0": "0", "1": "50"}, {"0": "0.9", "1": "0.2"}),
            ({"0": "100", "1": "110"}, {"0": "0", "1": "50"}, {"0": "1.2", "1": "1.2"}),
        ],
    )
    def test_param_validation(self, reward, slash, detection):
        with pytest.raises(ValidationError, match=r"grid|S\(0\)|detection prob"):
            check_incentive_compatibility(self.grid(reward, slash, detection))

    @given(
        gains=st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=6),
        margin=st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=100)
    def test_strict_margin_everywhere_implies_holds(self, gains, margin):
        reward = {"0": "100"}
        slash = {"0": "0"}
        for idx, gain in enumerate(gains, start=1):
            reward[str(idx)] = str(100 + gain)
            slash[str(idx)] = str(gain + margin)
        result = check_incentive_compatibility(self.grid(reward, slash))
        assert result.holds
