"""Unit tests for workload generation and scenarios."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.nfv.sfc import SFCRequest, ServiceFunctionChain
from repro.nfv.sla import ServiceLevelAgreement
from repro.workloads.generator import RequestGenerator, WorkloadConfig
from repro.workloads.scenarios import (
    diurnal_scenario,
    hotspot_scenario,
    reference_scenario,
    scalability_scenario,
)


class TestRequestGenerator:
    def test_sampled_requests_are_valid(self, generator, edge_cloud_network):
        for _ in range(20):
            request = generator.sample_request(arrival_time=1.0)
            assert request.source_node_id in edge_cloud_network.edge_node_ids
            assert request.bandwidth_mbps > 0
            assert request.sla.max_latency_ms > 0
            assert request.holding_time >= 1.0
            assert request.num_vnfs >= 1

    def test_trace_is_time_ordered(self, generator):
        trace = generator.generate_trace(horizon=50.0)
        times = [r.arrival_time for r in trace]
        assert times == sorted(times)
        assert all(t <= 50.0 for t in times)

    def test_batch_count_and_rate(self, generator):
        batch = generator.generate_batch(30)
        assert len(batch) == 30
        times = [r.arrival_time for r in batch]
        assert times == sorted(times)
        # Mean inter-arrival should be near 1/arrival_rate = 2.0.
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert 0.5 < sum(gaps) / len(gaps) < 5.0

    def test_class_mix_roughly_matches_weights(self, edge_cloud_network, catalog, templates):
        generator = RequestGenerator(
            edge_cloud_network,
            catalog,
            templates,
            WorkloadConfig(arrival_rate=1.0, horizon=100.0, seed=1),
        )
        counts = Counter(generator.sample_request().service_class for _ in range(600))
        assert counts["web_service"] > counts["ar_vr_offload"]
        assert abs(counts["web_service"] / 600 - 0.30) < 0.10

    def test_hotspot_skew(self, edge_cloud_network, catalog, templates):
        hotspots = tuple(edge_cloud_network.edge_node_ids[:2])
        generator = RequestGenerator(
            edge_cloud_network,
            catalog,
            templates,
            WorkloadConfig(
                arrival_rate=1.0,
                horizon=100.0,
                hotspot_fraction=0.9,
                hotspot_nodes=hotspots,
                seed=2,
            ),
        )
        sources = [generator.sample_source_node() for _ in range(300)]
        hotspot_fraction = sum(1 for s in sources if s in hotspots) / len(sources)
        assert hotspot_fraction > 0.7

    def test_non_edge_hotspot_nodes_rejected(self, edge_cloud_network, catalog, templates):
        non_edge = [
            n
            for n in edge_cloud_network.node_ids
            if n not in edge_cloud_network.edge_node_ids
        ]
        assert non_edge, "fixture network needs at least one non-edge node"
        with pytest.raises(ValueError, match="not edge nodes"):
            RequestGenerator(
                edge_cloud_network,
                catalog,
                templates,
                WorkloadConfig(
                    hotspot_fraction=0.5,
                    hotspot_nodes=(edge_cloud_network.edge_node_ids[0], non_edge[0]),
                ),
            )

    def test_inactive_non_edge_hotspots_warn_only(
        self, edge_cloud_network, catalog, templates
    ):
        non_edge = [
            n
            for n in edge_cloud_network.node_ids
            if n not in edge_cloud_network.edge_node_ids
        ]
        with pytest.warns(UserWarning, match="inert"):
            generator = RequestGenerator(
                edge_cloud_network,
                catalog,
                templates,
                WorkloadConfig(hotspot_fraction=0.0, hotspot_nodes=(non_edge[0],)),
            )
        # the inert set never influences ingress
        assert generator.sample_source_node() in edge_cloud_network.edge_node_ids

    def test_inert_edge_hotspots_leave_the_stream_untouched(self):
        # hotspot_fraction == 0 makes the set inert: the trace must be the
        # no-hotspot trace of the same seed, draw for draw.
        scenario = reference_scenario(num_edge_nodes=6, seed=3)
        network = scenario.build_network()
        inert = replace(
            scenario,
            workload_config=replace(
                scenario.workload_config, hotspot_nodes=network.edge_node_ids[:1]
            ),
        )
        plain = scenario.build_generator(network)
        skewless = inert.build_generator(network)
        for _ in range(200):
            assert skewless.sample_request() == plain.sample_request()
        assert skewless._rng.bit_generator.state == plain._rng.bit_generator.state

    def test_hotspot_fraction_without_hotspots_rejected(
        self, edge_cloud_network, catalog, templates
    ):
        with pytest.raises(ValueError, match="empty hotspot_nodes"):
            RequestGenerator(
                edge_cloud_network,
                catalog,
                templates,
                WorkloadConfig(hotspot_fraction=0.4, hotspot_nodes=()),
            )

    def test_sla_scale_stretches_budgets(self, edge_cloud_network, catalog, templates):
        tight = RequestGenerator(
            edge_cloud_network, catalog, templates,
            WorkloadConfig(arrival_rate=1.0, sla_scale=0.5, seed=3),
        )
        loose = RequestGenerator(
            edge_cloud_network, catalog, templates,
            WorkloadConfig(arrival_rate=1.0, sla_scale=2.0, seed=3),
        )
        tight_mean = sum(tight.sample_request().sla.max_latency_ms for _ in range(100)) / 100
        loose_mean = sum(loose.sample_request().sla.max_latency_ms for _ in range(100)) / 100
        assert loose_mean > 2.5 * tight_mean

    def test_deterministic_with_seed(self, edge_cloud_network, catalog, templates):
        def build():
            return RequestGenerator(
                edge_cloud_network, catalog, templates,
                WorkloadConfig(arrival_rate=0.5, horizon=50.0, seed=7),
            ).generate_trace()

        first, second = build(), build()
        assert [r.bandwidth_mbps for r in first] == [r.bandwidth_mbps for r in second]
        assert [r.source_node_id for r in first] == [r.source_node_id for r in second]

    def test_request_ids_are_a_function_of_the_seed(
        self, edge_cloud_network, catalog, templates
    ):
        # Each generator numbers its own requests from 0, so a generator that
        # ran before in the process does not shift the next one's ids.
        config = WorkloadConfig(arrival_rate=0.5, horizon=50.0, seed=7)
        first = RequestGenerator(edge_cloud_network, catalog, templates, config)
        first_ids = [r.request_id for r in first.generate_trace()]
        second = RequestGenerator(edge_cloud_network, catalog, templates, config)
        second_ids = [r.request_id for r in second.generate_trace()]
        assert len(first_ids) > 10
        assert first_ids == second_ids == list(range(len(first_ids)))

    def test_network_without_edges_rejected(self, catalog, templates):
        from repro.substrate.network import SubstrateNetwork
        from repro.substrate.node import make_cloud_node
        from repro.substrate.geo import GeoPoint

        network = SubstrateNetwork()
        network.add_node(make_cloud_node(0, GeoPoint(0, 0)))
        with pytest.raises(ValueError):
            RequestGenerator(network, catalog, templates, WorkloadConfig(arrival_rate=1.0))


def sample_request_reference(
    generator: RequestGenerator, arrival_time: float, request_id: int
) -> tuple:
    """``sample_request`` as one ``Generator.choice`` call per table draw.

    Reads ``generator``'s rng, config, templates, catalog and network, and
    rebuilds every table per call: the template from ``choice(n, p=...)``, the
    ingress from ``choice`` over the hotspots or the edge ids (the skew coin
    only while the skew is active), the chain from its template through the
    catalog, and each VNF's demand as ``base + per_mbps * bw`` arrays.
    Returns the request and its stacked demand rows.
    """
    rng, config = generator._rng, generator.config
    templates = generator.templates
    weights = np.array([t.weight for t in templates], dtype=float)
    template = templates[int(rng.choice(len(templates), p=weights / weights.sum()))]
    bandwidth = float(rng.uniform(*template.bandwidth_range))
    sla_latency = float(rng.uniform(*template.latency_sla_range_ms) * config.sla_scale)
    holding_time = max(
        1.0,
        float(
            rng.exponential(template.mean_holding_time * config.mean_holding_time_scale)
        ),
    )
    chain = ServiceFunctionChain.from_template(template, generator.catalog, bandwidth)
    hotspots = list(config.hotspot_nodes)
    if config.hotspot_fraction > 0 and rng.uniform() < config.hotspot_fraction:
        source = int(rng.choice(hotspots))
    else:
        source = int(rng.choice(list(generator.network.edge_node_ids)))
    request = SFCRequest(
        chain=chain,
        source_node_id=source,
        sla=ServiceLevelAgreement(max_latency_ms=sla_latency),
        arrival_time=arrival_time,
        holding_time=holding_time,
        request_id=request_id,
    )
    demand = np.stack(
        [
            vnf.base_demand.as_array() + vnf.demand_per_mbps.as_array() * bandwidth
            for vnf in chain.vnf_types
        ]
    )
    return request, demand


def _twin_generators(case: str, edge_cloud_network):
    """Two generators of one workload, built alike: (production, reference)."""
    if case == "edge_cloud_fixture":
        config = WorkloadConfig(seed=11)
        return (
            RequestGenerator(edge_cloud_network, config=config),
            RequestGenerator(edge_cloud_network, config=config),
        )
    if case == "hotspot":
        scenario = hotspot_scenario(hotspot_fraction=0.6, seed=0)
    else:
        scenario = reference_scenario(seed=int(case[-1]))
    network = scenario.build_network()
    return scenario.build_generator(network), scenario.build_generator(network)


class TestSameStream:
    """Cached tables draw the stream that per-call ``Generator.choice`` draws."""

    @pytest.mark.parametrize(
        "case", ["reference_0", "reference_1", "reference_2", "hotspot", "edge_cloud_fixture"]
    )
    def test_requests_match_the_reference_draw_for_draw(self, case, edge_cloud_network):
        production, reference = _twin_generators(case, edge_cloud_network)
        if case == "hotspot":
            assert production.config.hotspot_fraction == 0.6
        for step in range(2000):
            arrival = 0.5 * step
            request = production.sample_request(arrival_time=arrival)
            expected, demand = sample_request_reference(reference, arrival, step)
            assert request == expected
            assert request.chain.demand_rows.tobytes() == demand.tobytes()
        assert (
            production._rng.bit_generator.state == reference._rng.bit_generator.state
        )


class TestScenarios:
    def test_reference_scenario_builds(self):
        scenario = reference_scenario(arrival_rate=0.5, num_edge_nodes=6, horizon=100.0, seed=1)
        network = scenario.build_network()
        assert len(network.edge_node_ids) == 6
        requests = scenario.generate_requests()
        assert len(requests) > 0

    def test_reference_scenario_topology_reproducible(self):
        scenario = reference_scenario(seed=4, num_edge_nodes=6)
        a, b = scenario.build_network(), scenario.build_network()
        assert [n.capacity.as_tuple() for n in a.nodes()] == [
            n.capacity.as_tuple() for n in b.nodes()
        ]

    def test_with_arrival_rate_copy(self):
        scenario = reference_scenario(arrival_rate=0.5, num_edge_nodes=6)
        faster = scenario.with_arrival_rate(2.0)
        assert faster.workload_config.arrival_rate == 2.0
        assert scenario.workload_config.arrival_rate == 0.5

    def test_with_sla_scale_copy(self):
        scenario = reference_scenario(num_edge_nodes=6)
        strict = scenario.with_sla_scale(0.5)
        assert strict.workload_config.sla_scale == 0.5

    def test_scalability_scenario_load_scales_with_size(self):
        small = scalability_scenario(8, arrival_rate_per_node=0.05)
        large = scalability_scenario(24, arrival_rate_per_node=0.05)
        assert large.workload_config.arrival_rate == pytest.approx(
            3 * small.workload_config.arrival_rate
        )
        assert len(large.build_network().edge_node_ids) == 24

    def test_hotspot_scenario_sets_hotspots(self):
        scenario = hotspot_scenario(num_edge_nodes=8, seed=2)
        assert scenario.workload_config.hotspot_fraction > 0
        assert len(scenario.workload_config.hotspot_nodes) >= 1

    def test_diurnal_scenario_kind(self):
        scenario = diurnal_scenario(num_edge_nodes=6)
        assert scenario.arrival_kind == "diurnal"
        process = scenario.build_arrival_process()
        assert process.mean_rate() > 0

    def test_unknown_arrival_kind_rejected(self):
        from dataclasses import replace

        scenario = replace(reference_scenario(num_edge_nodes=6), arrival_kind="weibull")
        with pytest.raises(ValueError):
            scenario.build_arrival_process()
