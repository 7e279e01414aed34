"""Tests for taxation policies and spending-rate policies."""

import numpy as np
import pytest

from repro.core import CreditLedger, DynamicSpendingPolicy, FixedSpendingPolicy, NoTax, ThresholdIncomeTax
from repro.core.spending import SpendingPolicy
from repro.core.taxation import ProportionalRedistributionTax


def ledger_with(balances):
    ledger = CreditLedger()
    for peer, balance in balances.items():
        ledger.open_wallet(peer, balance)
    return ledger


class TestNoTax:
    def test_collects_nothing(self):
        ledger = ledger_with({1: 100.0, 2: 5.0})
        policy = NoTax()
        assert policy.on_income(ledger, 1, 10.0, 0.0, [1, 2]) == 0.0
        assert ledger.wallet(1).balance == 100.0
        assert policy.describe() == "no taxation"


class TestThresholdIncomeTax:
    def test_taxes_only_above_threshold(self):
        ledger = ledger_with({1: 100.0, 2: 10.0})
        policy = ThresholdIncomeTax(rate=0.2, threshold=50.0)
        collected_rich = policy.on_income(ledger, 1, 10.0, 0.0, [1, 2])
        collected_poor = policy.on_income(ledger, 2, 10.0, 0.0, [1, 2])
        assert collected_rich == pytest.approx(2.0)
        assert collected_poor == 0.0
        # The 2 collected credits immediately fund one rebate round of 1
        # credit to each of the 2 peers, so the rich peer nets 100 - 2 + 1.
        assert policy.rebate_rounds == 1
        assert ledger.wallet(1).balance == pytest.approx(99.0)
        assert ledger.wallet(2).balance == pytest.approx(11.0)

    def test_rebate_triggered_when_pool_full(self):
        ledger = ledger_with({1: 1000.0, 2: 0.0})
        policy = ThresholdIncomeTax(rate=0.5, threshold=10.0, rebate_unit=1.0)
        # Collect 5 credits: with 2 peers, two full rebate rounds of 1 credit each.
        policy.on_income(ledger, 1, 10.0, 0.0, [1, 2])
        assert policy.total_collected == pytest.approx(5.0)
        assert policy.rebate_rounds == 2
        assert ledger.wallet(2).balance == pytest.approx(2.0)
        assert ledger.system_pool == pytest.approx(1.0)
        ledger.verify_conservation()

    def test_zero_income_not_taxed(self):
        ledger = ledger_with({1: 100.0})
        policy = ThresholdIncomeTax(rate=0.1, threshold=10.0)
        assert policy.on_income(ledger, 1, 0.0, 0.0, [1]) == 0.0

    def test_describe_mentions_parameters(self):
        text = ThresholdIncomeTax(rate=0.1, threshold=80).describe()
        assert "0.1" in text and "80" in text

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ThresholdIncomeTax(rate=1.5, threshold=10.0)
        with pytest.raises(ValueError):
            ThresholdIncomeTax(rate=0.1, threshold=-1.0)
        with pytest.raises(ValueError):
            ThresholdIncomeTax(rate=0.1, threshold=10.0, rebate_unit=-1.0)

    def test_wealth_exactly_at_threshold_is_not_taxed(self):
        ledger = ledger_with({1: 50.0, 2: 0.0})
        policy = ThresholdIncomeTax(rate=0.5, threshold=50.0)
        assert policy.on_income(ledger, 1, 10.0, 0.0, [1, 2]) == 0.0
        assert ledger.wallet(1).balance == 50.0

    def test_zero_rate_collects_nothing(self):
        ledger = ledger_with({1: 500.0, 2: 0.0})
        policy = ThresholdIncomeTax(rate=0.0, threshold=10.0)
        assert policy.on_income(ledger, 1, 100.0, 0.0, [1, 2]) == 0.0
        assert policy.total_collected == 0.0
        assert ledger.system_pool == 0.0

    def test_zero_rebate_unit_keeps_the_pool(self):
        ledger = ledger_with({1: 100.0, 2: 0.0})
        policy = ThresholdIncomeTax(rate=0.5, threshold=10.0, rebate_unit=0.0)
        for _ in range(3):
            policy.on_income(ledger, 1, 10.0, 0.0, [1, 2])
        assert policy.total_collected == pytest.approx(15.0)
        assert policy.rebate_rounds == 0
        assert ledger.system_pool == pytest.approx(15.0)
        assert ledger.wallet(2).balance == 0.0
        ledger.verify_conservation()

    def test_rebates_skip_peers_without_wallets(self):
        ledger = ledger_with({1: 100.0, 2: 0.0})
        policy = ThresholdIncomeTax(rate=0.5, threshold=10.0)
        # Peer 3 has left: the pool only needs 2 credits for a round of 1 each.
        policy.on_income(ledger, 1, 4.0, 0.0, [1, 2, 3])
        assert policy.rebate_rounds == 1
        assert policy.total_rebated == pytest.approx(2.0)
        assert not ledger.has_wallet(3)
        assert ledger.wallet(2).balance == pytest.approx(1.0)

    def test_conserves_credits_over_many_incomes(self):
        rng = np.random.default_rng(4)
        ledger = ledger_with({peer: float(rng.integers(0, 200)) for peer in range(8)})
        before = ledger.total_in_circulation()
        policy = ThresholdIncomeTax(rate=0.2, threshold=80.0)
        for _ in range(200):
            peer = int(rng.integers(0, 8))
            policy.on_income(ledger, peer, float(rng.uniform(0, 20)), 0.0, list(range(8)))
        assert ledger.total_in_circulation() == pytest.approx(before)
        assert policy.total_collected == pytest.approx(policy.total_rebated + ledger.system_pool)
        ledger.verify_conservation()


class TestProportionalRedistributionTax:
    def test_redistributes_to_poor_immediately(self):
        ledger = ledger_with({1: 200.0, 2: 10.0, 3: 5.0})
        policy = ProportionalRedistributionTax(rate=0.5, threshold=50.0)
        collected = policy.on_income(ledger, 1, 20.0, 0.0, [1, 2, 3])
        assert collected == pytest.approx(10.0)
        # The poorer peer (3) gets the larger share of the redistribution.
        assert ledger.wallet(3).balance > ledger.wallet(2).balance - 5.0
        assert ledger.wallet(2).balance + ledger.wallet(3).balance == pytest.approx(25.0)
        assert ledger.system_pool == pytest.approx(0.0)
        ledger.verify_conservation()

    def test_no_poor_peers_means_no_tax(self):
        ledger = ledger_with({1: 200.0, 2: 150.0})
        policy = ProportionalRedistributionTax(rate=0.5, threshold=50.0)
        assert policy.on_income(ledger, 1, 20.0, 0.0, [1, 2]) == 0.0

    def test_shares_are_proportional_to_shortfall(self):
        ledger = ledger_with({1: 200.0, 2: 40.0, 3: 20.0, 4: 90.0})
        policy = ProportionalRedistributionTax(rate=0.5, threshold=50.0)
        collected = policy.on_income(ledger, 1, 24.0, 0.0, [1, 2, 3, 4])
        # Shortfalls 10 and 30 split the 12 credits 1:3; peer 4 is above the threshold.
        assert collected == pytest.approx(12.0)
        assert ledger.wallet(2).balance == pytest.approx(43.0)
        assert ledger.wallet(3).balance == pytest.approx(29.0)
        assert ledger.wallet(4).balance == pytest.approx(90.0)
        assert policy.total_rebated == pytest.approx(policy.total_collected)

    def test_payer_and_absent_peers_receive_nothing(self):
        ledger = ledger_with({1: 60.0, 2: 49.0})
        policy = ProportionalRedistributionTax(rate=0.5, threshold=50.0)
        policy.on_income(ledger, 1, 10.0, 0.0, [1, 2, 3])
        assert ledger.wallet(1).balance == pytest.approx(55.0)
        assert ledger.wallet(2).balance == pytest.approx(54.0)
        ledger.verify_conservation()

    def test_below_threshold_and_zero_income_untaxed(self):
        ledger = ledger_with({1: 30.0, 2: 5.0})
        policy = ProportionalRedistributionTax(rate=0.5, threshold=50.0)
        assert policy.on_income(ledger, 1, 10.0, 0.0, [1, 2]) == 0.0
        assert policy.on_income(ledger, 1, 0.0, 0.0, [1, 2]) == 0.0
        assert policy.total_collected == 0.0

    def test_describe_and_validation(self):
        text = ProportionalRedistributionTax(rate=0.2, threshold=80).describe()
        assert text.startswith("proportional") and "0.2" in text and "80" in text
        with pytest.raises(ValueError):
            ProportionalRedistributionTax(rate=-0.1, threshold=10.0)


class TestSpendingPolicies:
    def test_fixed_policy_ignores_wealth(self):
        policy = FixedSpendingPolicy()
        assert policy.effective_rate(2.0, 1000.0) == 2.0
        assert policy.effective_rate(2.0, 0.0) == 2.0

    def test_dynamic_policy_below_threshold_is_base(self):
        policy = DynamicSpendingPolicy(wealth_threshold=100.0)
        assert policy.effective_rate(1.0, 50.0) == 1.0
        assert policy.effective_rate(1.0, 100.0) == 1.0

    def test_dynamic_policy_scales_above_threshold(self):
        policy = DynamicSpendingPolicy(wealth_threshold=100.0)
        assert policy.effective_rate(1.0, 250.0) == pytest.approx(2.5)

    def test_dynamic_policy_cap(self):
        policy = DynamicSpendingPolicy(wealth_threshold=100.0, max_multiplier=2.0)
        assert policy.effective_rate(1.0, 1000.0) == pytest.approx(2.0)

    def test_dynamic_policy_negative_wealth_clamped(self):
        policy = DynamicSpendingPolicy(wealth_threshold=10.0)
        assert policy.effective_rate(1.0, -5.0) == 1.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DynamicSpendingPolicy(wealth_threshold=0.0)
        with pytest.raises(ValueError):
            DynamicSpendingPolicy(wealth_threshold=10.0, max_multiplier=0.5)

    def test_describe(self):
        assert "fixed" in FixedSpendingPolicy().describe()
        assert "m=100" in DynamicSpendingPolicy(100.0).describe()


class TestEffectiveRateVector:
    """The vectorised fast path must agree bit-for-bit with the scalar rule."""

    BASES = np.array([0.5, 1.0, 2.0, 3.0, 0.25])
    WEALTHS = np.array([-5.0, 0.0, 99.9, 100.0, 1234.5])

    def _assert_matches_scalar(self, policy):
        vector = policy.effective_rate_vector(self.BASES, self.WEALTHS)
        scalar = np.array(
            [
                policy.effective_rate(float(base), float(wealth))
                for base, wealth in zip(self.BASES, self.WEALTHS)
            ]
        )
        assert vector.tobytes() == scalar.tobytes()

    def test_fixed_policy_vector(self):
        self._assert_matches_scalar(FixedSpendingPolicy())

    def test_dynamic_policy_vector(self):
        self._assert_matches_scalar(DynamicSpendingPolicy(wealth_threshold=100.0))

    def test_dynamic_policy_vector_with_cap(self):
        self._assert_matches_scalar(
            DynamicSpendingPolicy(wealth_threshold=100.0, max_multiplier=3.0)
        )

    def test_base_class_fallback_uses_scalar_rule(self):
        class Halver(DynamicSpendingPolicy):
            # Inherit only the scalar rule: the base-class vector fallback
            # must route through it element by element.
            def effective_rate(self, base_rate, wealth):
                return 0.5 * float(base_rate)

            effective_rate_vector = SpendingPolicy.effective_rate_vector

        policy = Halver(wealth_threshold=100.0)
        vector = policy.effective_rate_vector(self.BASES, self.WEALTHS)
        assert vector.tobytes() == (0.5 * self.BASES).tobytes()

    # Rates are always float64, whatever the input arrays' dtype.
    @pytest.mark.parametrize("input_dtype", [np.int64, np.float32])
    @pytest.mark.parametrize(
        "policy",
        [
            FixedSpendingPolicy(),
            DynamicSpendingPolicy(wealth_threshold=100.0),
            DynamicSpendingPolicy(wealth_threshold=100.0, max_multiplier=3.0),
        ],
        ids=["fixed", "dynamic", "dynamic-capped"],
    )
    def test_vector_rates_are_float64(self, policy, input_dtype):
        bases = np.array([1, 2, 3], dtype=input_dtype)
        wealths = np.array([0, 100, 450], dtype=input_dtype)
        vector = policy.effective_rate_vector(bases, wealths)
        assert vector.dtype == np.float64
        expected = [policy.effective_rate(float(b), float(w)) for b, w in zip(bases, wealths)]
        assert vector.tolist() == expected
