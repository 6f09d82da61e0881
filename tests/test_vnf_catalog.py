"""Unit tests for VNF types and the catalog."""

import pytest

from repro.nfv.catalog import (
    ChainTemplate,
    UnknownVNFTypeError,
    VNFCatalog,
    default_catalog,
    default_chain_templates,
    validate_templates,
)
from repro.nfv.vnf import VNFType, make_vnf_type
from repro.substrate.resources import ResourceVector


class TestVNFType:
    def test_demand_for_scales_with_bandwidth(self):
        vnf = make_vnf_type("fw", cpu=2.0, memory=2.0, cpu_per_mbps=0.01)
        low = vnf.demand_for(10.0)
        high = vnf.demand_for(100.0)
        assert high.cpu > low.cpu
        assert high.memory == low.memory  # no per-mbps memory term configured

    def test_demand_for_zero_bandwidth_is_base(self):
        vnf = make_vnf_type("fw", cpu=2.0, memory=3.0, cpu_per_mbps=0.01)
        assert vnf.demand_for(0.0) == vnf.base_demand

    def test_negative_bandwidth_rejected(self):
        vnf = make_vnf_type("fw", cpu=1.0, memory=1.0)
        with pytest.raises(ValueError):
            vnf.demand_for(-1.0)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            VNFType(name="", base_demand=ResourceVector(1, 1, 1))

    def test_str_is_name(self):
        assert str(make_vnf_type("ids", cpu=1, memory=1)) == "ids"


class TestCatalog:
    def test_default_catalog_contents(self):
        catalog = default_catalog()
        assert len(catalog) == 7
        for name in ("firewall", "nat", "ids", "load_balancer", "transcoder"):
            assert name in catalog

    def test_get_unknown_raises(self):
        with pytest.raises(UnknownVNFTypeError):
            default_catalog().get("quantum_router")

    def test_duplicate_registration_rejected(self):
        catalog = default_catalog()
        with pytest.raises(ValueError):
            catalog.register(make_vnf_type("firewall", cpu=1, memory=1))

    def test_index_of_is_stable(self):
        catalog = default_catalog()
        names = catalog.names
        for index, name in enumerate(names):
            assert catalog.index_of(name) == index

    def test_index_of_unknown_raises(self):
        with pytest.raises(UnknownVNFTypeError):
            default_catalog().index_of("nope")


class TestChainTemplates:
    def test_default_templates_reference_known_vnfs(self):
        validate_templates(default_chain_templates(), default_catalog())

    def test_default_templates_cover_latency_spectrum(self):
        templates = default_chain_templates()
        slas = [t.latency_sla_range_ms for t in templates]
        tightest = min(hi for _, hi in slas)
        loosest = max(hi for _, hi in slas)
        assert tightest < 40.0 < loosest

    def test_template_weights_positive(self):
        assert all(t.weight > 0 for t in default_chain_templates())

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            ChainTemplate(
                name="bad",
                vnf_sequence=(),
                bandwidth_range=(1.0, 2.0),
                latency_sla_range_ms=(10.0, 20.0),
                mean_holding_time=10.0,
            )

    def test_invalid_bandwidth_range_rejected(self):
        with pytest.raises(ValueError):
            ChainTemplate(
                name="bad",
                vnf_sequence=("firewall",),
                bandwidth_range=(5.0, 2.0),
                latency_sla_range_ms=(10.0, 20.0),
                mean_holding_time=10.0,
            )

    def test_validate_templates_catches_unknown_vnf(self):
        template = ChainTemplate(
            name="bad",
            vnf_sequence=("does_not_exist",),
            bandwidth_range=(1.0, 2.0),
            latency_sla_range_ms=(10.0, 20.0),
            mean_holding_time=10.0,
        )
        with pytest.raises(UnknownVNFTypeError):
            validate_templates([template], default_catalog())

    def test_template_length(self):
        template = default_chain_templates()[0]
        assert template.length == len(template.vnf_sequence)
