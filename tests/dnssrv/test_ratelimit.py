"""Response rate limiting tests."""

import pytest

from repro.dnssrv.ratelimit import ResponseRateLimiter


class TestTokenBucket:
    def test_burst_then_block(self):
        limiter = ResponseRateLimiter(rate_per_second=1.0, burst=3.0)
        results = [limiter.allow("9.9.9.9", 0.0) for _ in range(5)]
        assert results == [True, True, True, False, False]
        assert limiter.dropped == 2

    def test_refill_over_time(self):
        limiter = ResponseRateLimiter(rate_per_second=2.0, burst=2.0)
        assert limiter.allow("9.9.9.9", 0.0)
        assert limiter.allow("9.9.9.9", 0.0)
        assert not limiter.allow("9.9.9.9", 0.0)
        # 1 second at 2 tokens/s refills two responses.
        assert limiter.allow("9.9.9.9", 1.0)
        assert limiter.allow("9.9.9.9", 1.0)
        assert not limiter.allow("9.9.9.9", 1.0)

    def test_per_client_isolation(self):
        limiter = ResponseRateLimiter(rate_per_second=1.0, burst=1.0)
        assert limiter.allow("1.1.1.1", 0.0)
        assert limiter.allow("2.2.2.2", 0.0)  # separate bucket
        assert not limiter.allow("1.1.1.1", 0.0)

    def test_tokens_capped_at_burst(self):
        limiter = ResponseRateLimiter(rate_per_second=100.0, burst=2.0)
        limiter.allow("9.9.9.9", 0.0)
        # A long quiet period cannot bank more than the burst.
        assert limiter.allow("9.9.9.9", 100.0)
        assert limiter.allow("9.9.9.9", 100.0)
        assert not limiter.allow("9.9.9.9", 100.0)

    def test_drop_rate(self):
        limiter = ResponseRateLimiter(rate_per_second=1.0, burst=1.0)
        limiter.allow("9.9.9.9", 0.0)
        limiter.allow("9.9.9.9", 0.0)
        assert limiter.drop_rate == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            ResponseRateLimiter(rate_per_second=0)
        with pytest.raises(ValueError):
            ResponseRateLimiter(burst=-1)


class TestRrlOnResolver:
    def test_rrl_caps_amplification(self):
        from repro.amplification import build_rich_zone
        from repro.attacks import AmplificationAttack
        from repro.dnssrv.hierarchy import build_hierarchy
        from repro.dnssrv.recursive import RecursiveResolver
        from repro.netsim.network import Network

        def attack(limited: bool):
            network = Network(seed=2)
            hierarchy = build_hierarchy(
                network, sld="amp.example", auth_ip="198.51.100.53"
            )
            hierarchy.auth.load_zone(build_rich_zone("amp.example"))
            limiter = (
                ResponseRateLimiter(rate_per_second=1.0, burst=2.0)
                if limited
                else None
            )
            ips = []
            for index in range(3):
                ip = f"100.0.0.{index + 1}"
                RecursiveResolver(
                    ip, hierarchy.root_servers, rate_limiter=limiter
                ).attach(network)
                ips.append(ip)
            return AmplificationAttack(
                network, "6.6.6.6", "203.0.113.9", ips, "amp.example"
            ).launch(rounds=20)

        unlimited = attack(limited=False)
        limited = attack(limited=True)
        assert unlimited.victim_packets == unlimited.queries_sent
        # RRL suppresses most of the reflected flood.
        assert limited.victim_packets < 0.35 * unlimited.victim_packets
        assert limited.victim_bytes < 0.35 * unlimited.victim_bytes


class TestIdleEviction:
    def test_bucket_table_stays_bounded(self):
        limiter = ResponseRateLimiter(
            rate_per_second=10.0, burst=5.0, idle_horizon=2.0
        )
        # A slow scan over many one-shot clients: each bucket goes idle
        # long before the sweep, so the table never holds the full
        # client population.
        for index in range(500):
            limiter.allow(f"10.0.{index // 250}.{index % 250}", index * 1.0)
        assert len(limiter) < 10
        assert limiter.evicted > 400
        assert limiter.allowed == 500

    def test_horizon_clamped_to_full_refill(self):
        # A horizon shorter than burst/rate would evict buckets that
        # still owe drops; the ctor clamps it so eviction is lossless.
        limiter = ResponseRateLimiter(
            rate_per_second=1.0, burst=10.0, idle_horizon=1.0
        )
        assert limiter.idle_horizon == 10.0

    def test_eviction_matches_unbounded_counters(self):
        bounded = ResponseRateLimiter(
            rate_per_second=1.0, burst=2.0, idle_horizon=3.0
        )
        unbounded = ResponseRateLimiter(rate_per_second=1.0, burst=2.0)
        trace = [
            ("1.1.1.1", t * 0.5) for t in range(40)
        ] + [("2.2.2.2", 20.0 + t) for t in range(40)]
        for ip, now in trace:
            assert bounded.allow(ip, now) == unbounded.allow(ip, now)
        assert (bounded.allowed, bounded.dropped) == (
            unbounded.allowed,
            unbounded.dropped,
        )

    def test_unbounded_by_default(self):
        limiter = ResponseRateLimiter(rate_per_second=1.0, burst=1.0)
        for index in range(100):
            limiter.allow(f"10.1.0.{index}", index * 100.0)
        assert len(limiter) == 100
        assert limiter.evicted == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ResponseRateLimiter(idle_horizon=0.0)
        with pytest.raises(ValueError):
            ResponseRateLimiter(idle_horizon=-5.0)


class TestClockRegression:
    def test_backwards_clock_mints_no_free_tokens(self):
        limiter = ResponseRateLimiter(rate_per_second=1.0, burst=2.0)
        # Drain the burst at t=10.
        assert limiter.allow("9.9.9.9", 10.0)
        assert limiter.allow("9.9.9.9", 10.0)
        assert not limiter.allow("9.9.9.9", 10.0)
        # The clock jumps backwards (reordered events, a resync): the
        # refill watermark must not move back with it...
        assert not limiter.allow("9.9.9.9", 5.0)
        # ...or returning to the original time would re-credit the
        # 10s-5s "elapsed" interval as free tokens.
        assert not limiter.allow("9.9.9.9", 10.0)
        # Genuine forward progress still refills from the watermark.
        assert limiter.allow("9.9.9.9", 11.0)

    def test_regression_then_partial_recovery_charges_nothing(self):
        limiter = ResponseRateLimiter(rate_per_second=2.0, burst=1.0)
        assert limiter.allow("9.9.9.9", 100.0)
        assert not limiter.allow("9.9.9.9", 0.0)
        # Time seen so far peaked at 100; 99.9 is still the past.
        assert not limiter.allow("9.9.9.9", 99.9)
        assert limiter.allow("9.9.9.9", 100.5)
