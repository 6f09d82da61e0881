"""Unit tests for service chains, requests and SLAs."""

import pytest

from repro.nfv.catalog import default_catalog, default_chain_templates
from repro.nfv.sfc import SFCRequest, ServiceFunctionChain, chain_summary
from repro.nfv.sla import (
    DEFAULT_NODE_AVAILABILITY,
    ServiceLevelAgreement,
    placement_availability,
)
from tests.conftest import build_request


class TestServiceFunctionChain:
    def test_from_template(self):
        catalog = default_catalog()
        template = default_chain_templates()[0]
        chain = ServiceFunctionChain.from_template(template, catalog, bandwidth_mbps=50.0)
        assert chain.vnf_names == template.vnf_sequence
        assert chain.service_class == template.name
        assert chain.length == len(template.vnf_sequence)

    def test_total_processing_delay(self):
        catalog = default_catalog()
        chain = ServiceFunctionChain(
            vnf_types=(catalog.get("firewall"), catalog.get("nat")),
            bandwidth_mbps=10.0,
        )
        expected = (
            catalog.get("firewall").processing_delay_ms
            + catalog.get("nat").processing_delay_ms
        )
        assert chain.total_processing_delay_ms() == pytest.approx(expected)

    def test_total_base_demand_aggregates(self):
        catalog = default_catalog()
        chain = ServiceFunctionChain(
            vnf_types=(catalog.get("firewall"), catalog.get("firewall")),
            bandwidth_mbps=10.0,
        )
        single = catalog.get("firewall").demand_for(10.0)
        assert chain.total_base_demand().cpu == pytest.approx(2 * single.cpu)

    def test_demand_rows_are_built_once_and_read_only(self):
        catalog = default_catalog()
        template = default_chain_templates()[0]
        chain = ServiceFunctionChain.from_template(template, catalog, bandwidth_mbps=37.3)
        rows = chain.demand_rows
        assert rows.shape == (chain.length, 3)
        for row, vnf in zip(rows, chain.vnf_types):
            assert row.tobytes() == vnf.demand_for(37.3).as_array().tobytes()
        assert chain.demand_rows is rows
        with pytest.raises(ValueError):
            rows[0, 0] = 0.0
        with pytest.raises(ValueError):
            rows += 1.0

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            ServiceFunctionChain(vnf_types=(), bandwidth_mbps=10.0)

    def test_zero_bandwidth_rejected(self):
        catalog = default_catalog()
        with pytest.raises(ValueError):
            ServiceFunctionChain(vnf_types=(catalog.get("nat"),), bandwidth_mbps=0.0)


class TestSFCRequest:
    def test_departure_time(self, catalog):
        request = build_request(catalog, arrival=5.0, holding=25.0)
        assert request.departure_time == pytest.approx(30.0)

    def test_request_ids_increment(self, catalog):
        first = build_request(catalog)
        second = build_request(catalog)
        assert second.request_id == first.request_id + 1

    def test_revenue_scales_with_bandwidth_and_holding(self, catalog):
        small = build_request(catalog, bandwidth=10.0, holding=10.0)
        large = build_request(catalog, bandwidth=100.0, holding=10.0)
        assert large.revenue() == pytest.approx(10 * small.revenue())

    def test_snapshot_fields(self, catalog):
        request = build_request(catalog)
        snapshot = request.snapshot()
        assert snapshot["vnfs"] == ["firewall", "nat"]
        assert snapshot["sla"]["max_latency_ms"] == 60.0

    def test_chain_summary(self, catalog):
        requests = [build_request(catalog) for _ in range(3)]
        assert chain_summary(requests) == {"test": 3}

    def test_invalid_holding_time_rejected(self, catalog):
        with pytest.raises(ValueError):
            build_request(catalog, holding=0.0)


class TestSLA:
    def test_latency_satisfaction(self):
        sla = ServiceLevelAgreement(max_latency_ms=20.0)
        assert sla.latency_satisfied(20.0)
        assert sla.latency_satisfied(19.9)
        assert not sla.latency_satisfied(20.1)

    def test_headroom_and_fraction(self):
        sla = ServiceLevelAgreement(max_latency_ms=40.0)
        assert sla.latency_headroom_ms(30.0) == pytest.approx(10.0)
        assert sla.latency_fraction_used(30.0) == pytest.approx(0.75)
        assert sla.latency_headroom_ms(50.0) < 0

    def test_availability_term(self):
        sla = ServiceLevelAgreement(max_latency_ms=40.0, min_availability=0.99)
        assert sla.is_satisfied(latency_ms=10.0, availability=0.995)
        assert not sla.is_satisfied(latency_ms=10.0, availability=0.98)

    def test_invalid_latency_budget_rejected(self):
        with pytest.raises(ValueError):
            ServiceLevelAgreement(max_latency_ms=0.0)

    def test_placement_availability_decreases_with_more_nodes(self):
        one = placement_availability({0: "edge"})
        two = placement_availability({0: "edge", 1: "edge"})
        assert two < one
        assert one == pytest.approx(DEFAULT_NODE_AVAILABILITY["edge"])

    def test_cloud_availability_higher_than_edge(self):
        assert placement_availability({0: "cloud"}) > placement_availability({0: "edge"})
