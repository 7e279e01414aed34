"""Tests for the income tax and spending-rate policies."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import DynamicSpendingPolicy, FixedSpendingPolicy, NoTax, ThresholdIncomeTax
from repro.core.spending import SpendingPolicy
from repro.p2psim.slots import apply_income_taxation


def apply(policy, balances, incomes, pool=0.0):
    """Run ``policy.apply`` on fresh arrays; return balances, collected, rebated, pool."""
    balances = np.array(balances, dtype=float)
    collected, rebated, pool = policy.apply(balances, np.array(incomes, dtype=float), pool)
    return balances, collected, rebated, pool


class TestNoTax:
    def test_collects_nothing(self):
        balances, collected, rebated, pool = apply(NoTax(), [100.0, 5.0], [10.0, 0.0], 3.0)
        assert balances.tolist() == [100.0, 5.0]
        assert (collected, rebated, pool) == (0.0, 0.0, 3.0)
        assert NoTax().describe() == "no taxation"


class TestThresholdIncomeTax:
    def test_taxes_only_above_threshold(self):
        policy = ThresholdIncomeTax(rate=0.2, threshold=50.0)
        balances, collected, rebated, pool = apply(policy, [100.0, 10.0], [10.0, 10.0])
        # The 2 collected credits fund one rebate round of 1 credit to each
        # of the 2 peers, so the rich peer nets 100 - 2 + 1.
        assert collected == pytest.approx(2.0)
        assert rebated == pytest.approx(2.0)
        assert pool == pytest.approx(0.0)
        assert balances.tolist() == pytest.approx([99.0, 11.0])

    def test_taxes_on_balances_before_any_rebate(self):
        # The second peer sits below the threshold before the round's
        # rebate lifts it above: it is not taxed, whatever the order.
        policy = ThresholdIncomeTax(rate=0.2, threshold=15.0)
        balances, collected, rebated, pool = apply(policy, [200.0, 14.5], [10.0, 1.0])
        assert balances.tolist() == [199.0, 15.5]
        assert (collected, rebated, pool) == (2.0, 2.0, 0.0)

    def test_rebate_triggered_when_pool_full(self):
        policy = ThresholdIncomeTax(rate=0.5, threshold=10.0, rebate_unit=1.0)
        # Collect 5 credits: with 2 peers, two full rebate rounds of 1 credit each.
        balances, collected, rebated, pool = apply(policy, [1000.0, 0.0], [10.0, 0.0])
        assert collected == pytest.approx(5.0)
        assert rebated == pytest.approx(4.0)
        assert balances.tolist() == pytest.approx([997.0, 2.0])
        assert pool == pytest.approx(1.0)

    def test_carried_pool_pays_several_rounds(self):
        policy = ThresholdIncomeTax(rate=0.5, threshold=10.0)
        balances, collected, rebated, pool = apply(policy, [1.0, 2.0, 3.0], [0.0] * 3, 7.5)
        assert collected == 0.0
        assert rebated == 6.0
        assert balances.tolist() == [3.0, 4.0, 5.0]
        assert pool == 1.5

    def test_one_round_keeps_the_per_round_loops_bits(self):
        # Paying whole rounds at once must round exactly as paying one
        # round per pass did whenever the pool covers a single round.
        rng = np.random.default_rng(7)
        for _ in range(200):
            unit = float(rng.uniform(0.01, 3.0))
            balances = rng.uniform(0.0, 50.0, size=int(rng.integers(1, 9)))
            cost = unit * balances.size
            pool = float(rng.uniform(cost, 2 * cost))
            expected_balances, expected_pool, expected_rebated = balances.copy(), pool, 0.0
            while expected_pool >= cost:
                expected_balances += unit
                expected_pool -= cost
                expected_rebated += cost
            policy = ThresholdIncomeTax(rate=0.0, threshold=0.0, rebate_unit=unit)
            _, rebated, pool = policy.apply(balances, np.zeros(balances.size), pool)
            assert balances.tobytes() == expected_balances.tobytes()
            assert (rebated, pool) == (expected_rebated, expected_pool)

    def test_subnormal_unit_ends(self):
        policy = ThresholdIncomeTax(rate=0.5, threshold=10.0, rebate_unit=5e-324)
        balances, _, rebated, pool = apply(policy, [1.0, 2.0], [0.0, 0.0], 150.0)
        assert 0.0 < rebated < 150.0
        assert pool == 150.0 - rebated
        assert np.isfinite(balances).all()

    def test_zero_income_not_taxed(self):
        policy = ThresholdIncomeTax(rate=0.1, threshold=10.0)
        balances, collected, _, pool = apply(policy, [100.0], [0.0])
        assert (collected, pool) == (0.0, 0.0)
        assert balances.tolist() == [100.0]

    def test_tax_is_capped_at_the_balance(self):
        policy = ThresholdIncomeTax(rate=1.0, threshold=0.0, rebate_unit=0.0)
        balances, collected, _, pool = apply(policy, [3.0], [8.0])
        assert balances.tolist() == [0.0]
        assert collected == pool == 3.0

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
        policy = ThresholdIncomeTax(rate=0.5, threshold=50.0)
        balances, collected, _, _ = apply(policy, [50.0, 0.0], [10.0, 0.0])
        assert collected == 0.0
        assert balances.tolist() == [50.0, 0.0]

    def test_zero_rate_collects_nothing(self):
        policy = ThresholdIncomeTax(rate=0.0, threshold=10.0)
        balances, collected, rebated, pool = apply(policy, [500.0, 0.0], [100.0, 0.0])
        assert (collected, rebated, pool) == (0.0, 0.0, 0.0)
        assert balances.tolist() == [500.0, 0.0]

    def test_zero_rebate_unit_keeps_the_pool(self):
        policy = ThresholdIncomeTax(rate=0.5, threshold=10.0, rebate_unit=0.0)
        balances, pool, collected = np.array([100.0, 0.0]), 0.0, 0.0
        for _ in range(3):
            taxed, rebated, pool = policy.apply(balances, np.array([10.0, 0.0]), pool)
            collected += taxed
            assert rebated == 0.0
        assert collected == pytest.approx(15.0)
        assert pool == pytest.approx(15.0)
        assert balances.tolist() == pytest.approx([85.0, 0.0])

    def test_conserves_credits_over_many_incomes(self):
        rng = np.random.default_rng(4)
        balances = rng.integers(0, 200, size=8).astype(float)
        before = balances.sum()
        policy = ThresholdIncomeTax(rate=0.2, threshold=80.0)
        pool = collected = rebated = 0.0
        for _ in range(200):
            incomes = np.where(rng.random(8) < 0.5, rng.uniform(0, 20, size=8), 0.0)
            taxed, paid, pool = policy.apply(balances, incomes, pool)
            collected += taxed
            rebated += paid
            assert balances.min() >= 0.0
        assert balances.sum() + pool == pytest.approx(before)
        assert collected == pytest.approx(rebated + pool)
        assert rebated > 0

    def test_apply_leaves_the_policy_unchanged(self):
        policy = ThresholdIncomeTax(rate=0.5, threshold=10.0)
        before = dict(vars(policy))
        apply(policy, [100.0, 0.0], [10.0, 0.0])
        assert vars(policy) == before


def tax_sim(policy, balances, alive):
    """The attributes :func:`apply_income_taxation` reads, plus per-slot balances."""
    return SimpleNamespace(
        config=SimpleNamespace(tax_policy=policy),
        _balance=np.array(balances, dtype=float),
        _tax_pool=0.0,
        _tax_collected=0.0,
        _tax_rebated=0.0,
        alive_slots=np.flatnonzero(alive),
    )


def tax_round(sim, income):
    """One round's tax step as the simulators take it, on per-slot ``income``.

    The alive rows' balances are gathered once, taxed in place by
    :func:`apply_income_taxation` against the alive rows' income, and
    scattered back once.
    """
    balances = sim._balance[sim.alive_slots]
    apply_income_taxation(sim, balances, np.asarray(income, dtype=float)[sim.alive_slots])
    sim._balance[sim.alive_slots] = balances


class TestApplyIncomeTaxation:
    def test_rebates_go_only_to_alive_peers(self):
        # Slot 2 is free: the pool needs only 2 credits for a round of 1 each.
        sim = tax_sim(ThresholdIncomeTax(rate=0.5, threshold=10.0), [100.0, 0.0, 7.0], [1, 1, 0])
        tax_round(sim, [4.0, 0.0, 9.0])
        assert sim._balance.tolist() == [99.0, 1.0, 7.0]
        assert (sim._tax_collected, sim._tax_rebated, sim._tax_pool) == (2.0, 2.0, 0.0)

    def test_totals_accumulate_over_rounds(self):
        sim = tax_sim(ThresholdIncomeTax(rate=0.5, threshold=10.0), [100.0, 0.0], [1, 1])
        for _ in range(3):
            tax_round(sim, [3.0, 0.0])
        # 1.5 per round: rebate rounds after the 2nd (3.0) and 3rd (2.5) rounds.
        assert sim._tax_collected == 4.5
        assert sim._tax_rebated == 4.0
        assert sim._tax_pool == 0.5
        assert sim._balance.sum() + sim._tax_pool == 100.0

    def test_no_tax_and_empty_population_change_nothing(self):
        untaxed = tax_sim(NoTax(), [100.0, 0.0], [1, 1])
        tax_round(untaxed, [50.0, 50.0])
        empty = tax_sim(ThresholdIncomeTax(rate=0.5, threshold=0.0), [100.0, 0.0], [0, 0])
        tax_round(empty, [50.0, 50.0])
        for sim in (untaxed, empty):
            assert sim._balance.tolist() == [100.0, 0.0]
            assert (sim._tax_collected, sim._tax_rebated, sim._tax_pool) == (0.0, 0.0, 0.0)

    def test_credit_counts_tax_like_their_floats(self):
        # The market taxes its routed credits as int64 counts, in row order.
        policy = ThresholdIncomeTax(rate=0.3, threshold=10.0)
        taxed = []
        for income in (np.array([7, 0, 3]), np.array([7.0, 0.0, 3.0])):
            sim = tax_sim(policy, [], [])
            balances = np.array([50.0, 60.0, 9.0])
            apply_income_taxation(sim, balances, income)
            taxed.append((balances.tobytes(), sim._tax_collected, sim._tax_pool))
        assert taxed[0] == taxed[1]
        assert taxed[0][1] == 7 * 0.3


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
        self._assert_shared_rate_broadcasts(policy)

    def _assert_shared_rate_broadcasts(self, policy):
        # A market whose peers all share one base rate passes it as a scalar.
        shared = policy.effective_rate_vector(2.0, self.WEALTHS)
        full = policy.effective_rate_vector(np.full(self.WEALTHS.size, 2.0), self.WEALTHS)
        assert np.broadcast_to(shared, full.shape).tobytes() == full.tobytes()

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
        self._assert_shared_rate_broadcasts(policy)

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
