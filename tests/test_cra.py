"""Challenge-response scheduling (repro.core.cra)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ChallengeSchedule, PRBSGenerator


class TestPRBSGenerator:
    def test_deterministic_for_seed(self):
        a = PRBSGenerator(seed=0xBEEF)
        b = PRBSGenerator(seed=0xBEEF)
        assert [a.next_bit() for _ in range(64)] == [b.next_bit() for _ in range(64)]

    def test_different_seeds_differ(self):
        a = PRBSGenerator(seed=1)
        b = PRBSGenerator(seed=2)
        assert [a.next_bit() for _ in range(64)] != [b.next_bit() for _ in range(64)]

    def test_rejects_zero_state(self):
        with pytest.raises(ValueError):
            PRBSGenerator(seed=0)
        with pytest.raises(ValueError):
            PRBSGenerator(seed=1 << 16)  # 0 modulo 2^16

    def test_maximal_period(self):
        # The (16, 15, 13, 4) taps give the full 2^16 - 1 state cycle.
        gen = PRBSGenerator(seed=1)
        state0 = gen._state
        period = 0
        while True:
            gen.next_bit()
            period += 1
            if gen._state == state0:
                break
            assert period < (1 << 16)
        assert period == (1 << 16) - 1

    def test_bit_balance(self):
        gen = PRBSGenerator(seed=0xACE1)
        ones = sum(gen.next_bit() for _ in range(10000))
        assert 4700 < ones < 5300

    def test_next_word(self):
        gen = PRBSGenerator(seed=0xACE1)
        word = gen.next_word(16)
        assert 0 <= word < (1 << 16)
        with pytest.raises(ValueError):
            gen.next_word(0)

    def test_bernoulli_rate(self):
        gen = PRBSGenerator(seed=0xACE1)
        hits = sum(gen.bernoulli(0.1) for _ in range(5000))
        assert 350 < hits < 650

    def test_bernoulli_validation(self):
        with pytest.raises(ValueError):
            PRBSGenerator().bernoulli(1.5)

    def test_full_period_words_cover_every_nonzero_value(self):
        # Non-overlapping 16-bit draws over one full period: because
        # gcd(16, 2^16 - 1) = 1, the 2^16 - 1 draws land on every
        # distinct window offset, and an m-sequence's 16-bit windows
        # are exactly the nonzero 16-bit values, each once.  This is
        # the distribution the endpoint-corrected bernoulli() relies on.
        gen = PRBSGenerator(seed=1)
        period = (1 << 16) - 1
        words = {gen.next_word(16) for _ in range(period)}
        assert words == set(range(1, 1 << 16))

    def test_bernoulli_endpoints_exact_over_full_period(self):
        # Regression for the endpoint bias: the LFSR word is uniform on
        # [1, 2^16 - 1] (never 0), so the naive `word < p * 2^16`
        # threshold made any p < 2 / 2^16 unreachable.  Post-fix the
        # per-period fire count is exactly floor(p * (2^16 - 1)):
        # p = 0 never fires, p = 1 always fires, and the smallest
        # representable rate p = 1 / (2^16 - 1) fires exactly once —
        # the case that could NEVER fire before the fix.
        period = (1 << 16) - 1
        never = PRBSGenerator(seed=1)
        always = PRBSGenerator(seed=1)
        tiny = PRBSGenerator(seed=1)
        half = PRBSGenerator(seed=1)
        counts = [0, 0, 0, 0]
        for _ in range(period):
            counts[0] += never.bernoulli(0.0)
            counts[1] += always.bernoulli(1.0)
            counts[2] += tiny.bernoulli(1.0 / period)
            counts[3] += half.bernoulli(0.5)
        assert counts[0] == 0
        assert counts[1] == period
        assert counts[2] == 1
        assert counts[3] == period // 2

    def test_bernoulli_short_draws_unchanged(self):
        # Sub-register draws can legitimately produce zero words and
        # keep the plain threshold; the empirical rate stays sane.
        gen = PRBSGenerator(seed=0xACE1)
        hits = sum(gen.bernoulli(0.25, resolution_bits=8) for _ in range(4000))
        assert 800 < hits < 1200


class TestChallengeScheduleExplicit:
    def test_paper_instants(self):
        schedule = ChallengeSchedule.from_times([15.0, 50.0, 175.0, 182.0])
        for t in (15.0, 50.0, 175.0, 182.0):
            assert schedule.is_challenge(t)
        assert not schedule.is_challenge(100.0)

    def test_contains_and_len(self):
        schedule = ChallengeSchedule.from_times([1.0, 2.0])
        assert 1.0 in schedule
        assert 3.0 not in schedule
        assert len(schedule) == 2

    def test_times_sorted(self):
        schedule = ChallengeSchedule.from_times([5.0, 1.0, 3.0])
        assert schedule.times == (1.0, 3.0, 5.0)

    def test_tolerance_matching(self):
        schedule = ChallengeSchedule.from_times([10.0])
        assert schedule.is_challenge(10.0 + 1e-12)
        assert not schedule.is_challenge(10.1)

    def test_rejects_negative_times(self):
        with pytest.raises(ValueError):
            ChallengeSchedule.from_times([-1.0])

    def test_rejects_nan_times(self):
        with pytest.raises(ValueError):
            ChallengeSchedule.from_times([1.0, math.nan])

    def test_next_challenge_bound(self):
        # The structural detection-latency bound the paper achieves.
        schedule = ChallengeSchedule.from_times([15.0, 50.0, 175.0, 182.0])
        assert schedule.next_challenge_at_or_after(180.0) == 182.0
        assert schedule.next_challenge_at_or_after(182.0) == 182.0
        assert schedule.next_challenge_at_or_after(183.0) is None


class TestChallengeScheduleRandom:
    def test_rate_controls_density(self):
        sparse = ChallengeSchedule.random(horizon=1000.0, rate=0.02, seed=1)
        dense = ChallengeSchedule.random(horizon=1000.0, rate=0.2, seed=1)
        assert len(dense) > len(sparse) > 0

    def test_deterministic_for_seed(self):
        a = ChallengeSchedule.random(horizon=300.0, rate=0.05, seed=7)
        b = ChallengeSchedule.random(horizon=300.0, rate=0.05, seed=7)
        assert a.times == b.times

    def test_min_gap_respected(self):
        schedule = ChallengeSchedule.random(
            horizon=500.0, rate=0.5, seed=3, min_gap=5.0
        )
        times = schedule.times
        assert all(b - a >= 5.0 for a, b in zip(times, times[1:]))

    def test_exclude_start(self):
        schedule = ChallengeSchedule.random(
            horizon=300.0, rate=0.5, seed=3, exclude_start=20.0
        )
        assert all(t >= 20.0 for t in schedule.times)

    def test_validation(self):
        with pytest.raises(ValueError):
            ChallengeSchedule.random(horizon=0.0, rate=0.1)
        with pytest.raises(ValueError):
            ChallengeSchedule.random(horizon=10.0, rate=0.1, sample_period=0.0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=65535))
    def test_property_all_times_within_horizon(self, seed):
        schedule = ChallengeSchedule.random(horizon=100.0, rate=0.1, seed=seed)
        assert all(0.0 <= t <= 100.0 for t in schedule.times)


def linear_is_challenge(instants, time, tolerance):
    """The scan ``is_challenge`` ran before the sorted lookup."""
    if time in instants:
        return True
    if tolerance > 0.0:
        return any(abs(time - t) <= tolerance for t in instants)
    return False


def linear_next_challenge(instants, time):
    """The scan ``next_challenge_at_or_after`` ran before ``bisect``."""
    later = [t for t in instants if t >= time]
    return min(later) if later else None


#: Instants on a coarse grid (so schedules have near-collisions) or
#: anywhere in [0, 1000], plus the occasional +inf.
INSTANTS = st.one_of(
    st.integers(min_value=0, max_value=400).map(lambda k: k * 0.25),
    st.floats(min_value=0.0, max_value=1000.0),
    st.just(math.inf),
)


class TestChallengeLookupMatchesLinearScan:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(INSTANTS, max_size=40),
        st.sampled_from([0.0, 1e-9, 0.5]),
        st.data(),
    )
    def test_lookups_agree(self, raw, tolerance, data):
        schedule = ChallengeSchedule.from_times(raw)
        instants = frozenset(float(t) for t in raw)
        assert schedule.times == tuple(sorted(instants))
        anchor = data.draw(st.sampled_from(sorted(instants) or [0.0]))
        queries = [
            anchor,
            anchor + tolerance,
            anchor - tolerance,
            math.nextafter(anchor + tolerance, math.inf),
            math.nextafter(anchor - tolerance, -math.inf),
            math.nan,
            math.inf,
            -math.inf,
            data.draw(st.floats(allow_nan=True, allow_infinity=True)),
            data.draw(st.floats(min_value=-1.0, max_value=1001.0)),
        ]
        for query in queries:
            assert schedule.is_challenge(query, tolerance) == (
                linear_is_challenge(instants, query, tolerance)
            ), query
            assert schedule.next_challenge_at_or_after(query) == (
                linear_next_challenge(instants, query)
            ), query

    def test_exact_tolerance_boundary(self):
        schedule = ChallengeSchedule.from_times([10.0, 20.0])
        assert schedule.is_challenge(10.5, 0.5)
        assert schedule.is_challenge(19.5, 0.5)
        assert not schedule.is_challenge(math.nextafter(10.5, 11.0), 0.5)
        assert not schedule.is_challenge(15.0, 0.0)
        assert not schedule.is_challenge(math.nan, 0.5)
        assert schedule.next_challenge_at_or_after(math.nan) is None
        assert schedule.next_challenge_at_or_after(-math.inf) == 10.0
        assert schedule.next_challenge_at_or_after(math.inf) is None
