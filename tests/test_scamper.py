"""Scamper model: Doubletree at 10 Kpps with the empirical Fig. 7 quirk."""

import pytest

from repro.baselines.scamper import Scamper, ScamperConfig
from repro.core.config import FlashRouteConfig
from repro.core.prober import FlashRoute
from repro.simnet.network import SimulatedNetwork


@pytest.fixture(scope="module")
def scamper_result(small_topology, small_targets):
    return Scamper(ScamperConfig.scamper_16()).scan(
        SimulatedNetwork(small_topology), targets=small_targets)


@pytest.fixture(scope="module")
def flashroute_result(small_topology, small_targets):
    return FlashRoute(FlashRouteConfig(
        split_ttl=16, preprobe="none")).scan(
        SimulatedNetwork(small_topology), targets=small_targets)


class TestConfig:
    def test_defaults_match_paper(self):
        config = ScamperConfig.scamper_16()
        assert config.first_ttl == 16
        assert config.max_ttl == 32
        assert config.gap_limit == 5

    @pytest.mark.parametrize("kwargs", [
        {"first_ttl": 0}, {"first_ttl": 20, "max_ttl": 18},
        {"max_ttl": 40}, {"gap_limit": -1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ScamperConfig(**kwargs)


class TestBehaviour:
    def test_terminates(self, scamper_result):
        assert scamper_result.duration > 0
        assert scamper_result.probes_sent > 0

    def test_interfaces_real(self, scamper_result, small_topology):
        assert scamper_result.interfaces() <= set(small_topology.iface_addrs)

    def test_probes_every_target_at_split(self, scamper_result, small_targets):
        assert scamper_result.ttl_probe_histogram[16] == len(small_targets)

    def test_max_ttl_respected(self, scamper_result):
        assert max(scamper_result.ttl_probe_histogram) <= 32

    def test_uses_more_probes_than_flashroute(self, scamper_result,
                                              flashroute_result):
        # The Fig. 7 quirk: Scamper keeps probing through the no-stop
        # window, spending more probes than FlashRoute-16.
        assert scamper_result.probes_sent > flashroute_result.probes_sent

    def test_finds_at_least_flashroute_interfaces(self, scamper_result,
                                                  flashroute_result):
        assert scamper_result.interface_count() >= \
            0.95 * flashroute_result.interface_count()

    def test_flat_window_in_ttl_histogram(self, scamper_result):
        """Inside the no-stop window backward probing never terminates, so
        the per-TTL target counts are (nearly) flat from 14 down to 7."""
        histogram = scamper_result.ttl_probe_histogram
        window_counts = [histogram[ttl] for ttl in range(7, 14)]
        assert max(window_counts) - min(window_counts) <= \
            0.05 * max(window_counts)

    def test_plunge_below_window(self, scamper_result):
        """Below TTL 6 stop-set termination resumes: far fewer targets are
        probed at TTL 4 than inside the window."""
        histogram = scamper_result.ttl_probe_histogram
        assert histogram[4] < 0.8 * histogram[10]

    def test_flashroute_declines_earlier_than_scamper(self, scamper_result,
                                                      flashroute_result):
        """Fig. 7: FlashRoute's curve is below Scamper's throughout the
        backward region."""
        for ttl in range(6, 15):
            assert flashroute_result.ttl_probe_histogram[ttl] <= \
                scamper_result.ttl_probe_histogram[ttl]

    def test_scan_slower_than_flashroute(self, tiny_topology, tiny_targets):
        # 10 Kpps vs 100 Kpps: Scamper must take several times longer
        # despite a comparable probe count.  Rates are set explicitly here
        # because the scaled-rate floor erases the 10:1 ratio on a
        # 128-prefix test topology.
        slow = Scamper(ScamperConfig.scamper_16(probing_rate=100.0)).scan(
            SimulatedNetwork(tiny_topology), targets=tiny_targets)
        # Shrink the fixed round pacing too: on 128 targets the >= 1 s
        # rounds, not the probing rate, would dominate FlashRoute's time.
        fast = FlashRoute(FlashRouteConfig(
            split_ttl=16, preprobe="none", probing_rate=1000.0,
            round_seconds=0.05)).scan(
            SimulatedNetwork(tiny_topology), targets=tiny_targets)
        assert slow.duration > 2 * fast.duration
