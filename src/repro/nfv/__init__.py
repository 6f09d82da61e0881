"""VNF, service-chain, SLA and placement models."""

from repro.nfv.catalog import (
    ChainTemplate,
    UnknownVNFTypeError,
    VNFCatalog,
    default_catalog,
    default_chain_templates,
    validate_templates,
)
from repro.nfv.placement import Placement, PlacementError
from repro.nfv.sfc import (
    SFCRequest,
    ServiceFunctionChain,
    chain_summary,
    reset_request_counter,
)
from repro.nfv.sla import (
    DEFAULT_NODE_AVAILABILITY,
    ServiceLevelAgreement,
    placement_availability,
)
from repro.nfv.vnf import VNFType, make_vnf_type

__all__ = [
    "ChainTemplate",
    "UnknownVNFTypeError",
    "VNFCatalog",
    "default_catalog",
    "default_chain_templates",
    "validate_templates",
    "Placement",
    "PlacementError",
    "SFCRequest",
    "ServiceFunctionChain",
    "chain_summary",
    "reset_request_counter",
    "DEFAULT_NODE_AVAILABILITY",
    "ServiceLevelAgreement",
    "placement_availability",
    "VNFType",
    "make_vnf_type",
]
