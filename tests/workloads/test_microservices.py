"""Tests for the SocialNet microservice models."""

import pytest

from repro.workloads.microservices import (
    SOCIALNET_SERVICES,
    MicroserviceDeployment,
    MicroserviceInstance,
    MicroserviceSpec,
    socialnet_service,
)

TURBO = 3.3
OVERCLOCK = 4.0


class TestSpec:
    def test_eight_services(self):
        assert len(SOCIALNET_SERVICES) == 8

    def test_lookup_by_name(self):
        assert socialnet_service("Usr").name == "Usr"
        with pytest.raises(KeyError):
            socialnet_service("Nope")

    def test_slo_is_five_times_unloaded(self):
        """Paper §III: SLO = 5x execution time on an unloaded system."""
        for spec in SOCIALNET_SERVICES:
            assert spec.slo_ms == pytest.approx(5.0 * spec.unloaded_ms)

    def test_service_rate_at_turbo(self):
        spec = MicroserviceSpec("x", unloaded_ms=2.0, workers=4,
                                freq_sensitivity=1.0)
        assert spec.service_rate(TURBO) == pytest.approx(500.0)

    def test_overclocking_raises_capacity(self):
        for spec in SOCIALNET_SERVICES:
            assert spec.capacity(OVERCLOCK) > spec.capacity(TURBO)

    def test_memory_bound_service_gains_less(self):
        media = socialnet_service("Media")       # sensitivity 0.4
        urlshort = socialnet_service("UrlShort")  # sensitivity 0.9
        gain = lambda s: s.capacity(OVERCLOCK) / s.capacity(TURBO)
        assert gain(media) < gain(urlshort)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            MicroserviceSpec("x", unloaded_ms=0.0, workers=1,
                             freq_sensitivity=0.5)
        with pytest.raises(ValueError):
            MicroserviceSpec("x", unloaded_ms=1.0, workers=0,
                             freq_sensitivity=0.5)
        with pytest.raises(ValueError):
            MicroserviceSpec("x", unloaded_ms=1.0, workers=1,
                             freq_sensitivity=1.5)
        with pytest.raises(ValueError):
            MicroserviceSpec("x", unloaded_ms=1.0, workers=1,
                             freq_sensitivity=0.5, slo_multiplier=1.0)

    def test_rho_for_slo_hits_slo(self):
        for spec in SOCIALNET_SERVICES:
            rho = spec.rho_for_slo(TURBO)
            instance = MicroserviceInstance(spec)
            instance.set_load(rho * spec.capacity(TURBO))
            assert instance.p99_latency_ms() == pytest.approx(
                spec.slo_ms, rel=0.01)

    def test_fragile_service_has_lower_critical_load(self):
        """§III Q1: UrlShort violates its SLO at a much lower utilization
        than Usr."""
        assert socialnet_service("UrlShort").rho_for_slo() < \
            0.5 * socialnet_service("Usr").rho_for_slo()


class TestInstance:
    def test_latency_grows_with_load(self):
        spec = socialnet_service("ComposePost")
        instance = MicroserviceInstance(spec)
        p99s = []
        for rho in (0.2, 0.5, 0.8):
            instance.set_load(rho * spec.capacity(TURBO))
            p99s.append(instance.p99_latency_ms())
        assert p99s[0] < p99s[1] < p99s[2]

    def test_overclocking_lowers_latency(self):
        spec = socialnet_service("ComposePost")
        rate = 0.7 * spec.capacity(TURBO)
        base = MicroserviceInstance(spec, TURBO)
        base.set_load(rate)
        boosted = MicroserviceInstance(spec, OVERCLOCK)
        boosted.set_load(rate)
        assert boosted.p99_latency_ms() < base.p99_latency_ms()
        assert boosted.utilization < base.utilization

    def test_overload_reports_finite_latency(self):
        spec = socialnet_service("Usr")
        instance = MicroserviceInstance(spec)
        instance.set_load(1.5 * spec.capacity(TURBO))
        p99 = instance.p99_latency_ms()
        assert p99 > spec.slo_ms
        assert p99 < float("inf")

    def test_overload_latency_grows_with_excess(self):
        spec = socialnet_service("Usr")
        instance = MicroserviceInstance(spec)
        instance.set_load(1.2 * spec.capacity(TURBO))
        at_12 = instance.p99_latency_ms()
        instance.set_load(1.6 * spec.capacity(TURBO))
        assert instance.p99_latency_ms() > at_12

    def test_utilization_clamped(self):
        spec = socialnet_service("Usr")
        instance = MicroserviceInstance(spec)
        instance.set_load(2.0 * spec.capacity(TURBO))
        assert instance.utilization == 1.0
        assert instance.offered_rho == pytest.approx(2.0)

    def test_meets_slo(self):
        spec = socialnet_service("Usr")
        instance = MicroserviceInstance(spec)
        instance.set_load(0.3 * spec.capacity(TURBO))
        assert instance.meets_slo()

    def test_negative_load_rejected(self):
        with pytest.raises(ValueError):
            MicroserviceInstance(socialnet_service("Usr")).set_load(-1.0)


class TestLatencyMemo:
    """An instance remembers its last latency on its exact inputs; after a
    query, every way of changing an input gives exactly what a fresh
    instance with the new inputs gives."""

    SPEC = socialnet_service("ComposePost")
    RATE = 0.6 * SPEC.capacity(TURBO)

    @staticmethod
    def latencies(instance):
        return (instance.p99_latency_ms(), instance.mean_latency_ms(),
                instance.latency_quantile_ms(0.9),
                instance.p99_latency_ms())

    @classmethod
    def fresh(cls, spec=SPEC, rate=RATE, freq=TURBO):
        instance = MicroserviceInstance(spec, freq)
        instance.set_load(rate)
        return instance

    def test_repeated_query_matches_fresh(self):
        instance = self.fresh()
        first = self.latencies(instance)
        assert self.latencies(instance) == first
        assert first == self.latencies(self.fresh())

    @pytest.mark.parametrize("change,spec,rate,freq", [
        (lambda i: i.set_load(0.8 * i.spec.capacity(TURBO)),
         SPEC, 0.8 * SPEC.capacity(TURBO), TURBO),
        (lambda i: i.set_load(1.3 * i.spec.capacity(TURBO)),
         SPEC, 1.3 * SPEC.capacity(TURBO), TURBO),
        (lambda i: i.set_frequency(OVERCLOCK), SPEC, RATE, OVERCLOCK),
        (lambda i: setattr(i, "arrival_rate", 0.3 * i.spec.capacity(TURBO)),
         SPEC, 0.3 * SPEC.capacity(TURBO), TURBO),
        (lambda i: setattr(i, "freq_ghz", 3.6), SPEC, RATE, 3.6),
        (lambda i: setattr(i, "spec", socialnet_service("Text")),
         socialnet_service("Text"), RATE, TURBO),
    ], ids=["set_load", "set_load_overloaded", "set_frequency",
            "write_arrival_rate", "write_freq_ghz", "write_spec"])
    def test_changed_input_matches_fresh(self, change, spec, rate, freq):
        instance = self.fresh()
        self.latencies(instance)
        change(instance)
        assert self.latencies(instance) \
            == self.latencies(self.fresh(spec, rate, freq))


class TestDeployment:
    def test_load_balanced_evenly(self):
        spec = socialnet_service("ComposePost")
        deployment = MicroserviceDeployment(spec, initial_instances=4)
        deployment.set_load(100.0)
        assert all(i.arrival_rate == pytest.approx(25.0)
                   for i in deployment.instances)

    def test_scale_out_reduces_latency(self):
        spec = socialnet_service("ComposePost")
        deployment = MicroserviceDeployment(spec, initial_instances=1)
        deployment.set_load(0.85 * spec.capacity(TURBO))
        before = deployment.p99_latency_ms()
        deployment.scale_to(2)
        assert deployment.p99_latency_ms() < before

    def test_scale_in(self):
        spec = socialnet_service("Usr")
        deployment = MicroserviceDeployment(spec, initial_instances=3)
        deployment.set_load(30.0)
        deployment.scale_to(1)
        assert deployment.n_instances == 1
        assert deployment.instances[0].arrival_rate == pytest.approx(30.0)

    def test_scale_to_zero_rejected(self):
        deployment = MicroserviceDeployment(socialnet_service("Usr"))
        with pytest.raises(ValueError):
            deployment.scale_to(0)

    def test_set_frequency_propagates(self):
        deployment = MicroserviceDeployment(socialnet_service("Usr"),
                                            initial_instances=2)
        deployment.set_frequency(3.9)
        assert all(i.freq_ghz == 3.9 for i in deployment.instances)

    def test_required_instances(self):
        spec = socialnet_service("ComposePost")
        deployment = MicroserviceDeployment(spec)
        needed = deployment.required_instances(
            2.0 * spec.capacity(TURBO), target_rho=0.7)
        assert needed == 3  # 2.0 / 0.7 = 2.86 -> ceil 3

    def test_required_instances_invalid_rho(self):
        deployment = MicroserviceDeployment(socialnet_service("Usr"))
        with pytest.raises(ValueError):
            deployment.required_instances(10.0, target_rho=1.0)
