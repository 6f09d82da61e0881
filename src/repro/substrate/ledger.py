"""The array-backed usage ledger of one substrate network.

:class:`SubstrateLedger` is the only usage state of a
:class:`~repro.substrate.network.SubstrateNetwork`.  Nodes, links and their
static columns live in the read-only
:class:`~repro.substrate.network.SubstrateTopology` the ledger is built over
(and keeps references to); what is allocated on them lives here, in
contiguous numpy arrays plus one record dict per node row and per link slot:

* ``node_used`` — a ``(num_nodes, 3)`` matrix in the canonical
  ``(cpu, memory, storage)`` dimension order, with ``node_alloc_count`` and
  ``node_records`` (handle → demand) per row,
* ``link_used`` — a ``(num_links,)`` vector addressed through the
  topology's ``edge_index`` (canonical link endpoints → slot), with
  ``link_records`` (handle → bandwidth) per slot.

:meth:`~SubstrateLedger.allocate_node`, :meth:`~SubstrateLedger.release_node`,
:meth:`~SubstrateLedger.reserve_link`, :meth:`~SubstrateLedger.release_link`,
:meth:`~SubstrateLedger.allocate_chain`, :meth:`~SubstrateLedger.release_chain`
and :meth:`~SubstrateLedger.reset` update those arrays in place, so views
held by consumers stay valid, and each bumps ``write_count``, which names
the usage state memos are kept against.  Hot paths — state encoding,
action masking, utilization statistics — read whole columns at once
instead of looping node-by-node or link-by-link.

One kernel — :func:`chain_fits`, :func:`reserve_chain`, :func:`free_chain` —
checks, commits and releases a placed chain (a :class:`CompiledChain`) on
``(node_used, link_used)`` views: a ledger's arrays or one SoA lane's rows.
:func:`chain_cost` prices a placed chain for both environment cores.

The ledger is built lazily by :attr:`SubstrateNetwork.ledger` and rebuilt,
empty, after a topology mutation (``add_node`` / ``add_link``), which the
network refuses while any allocation or reservation is live.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

import numpy as np

from repro.substrate.link import InsufficientBandwidthError, UnknownReservationError
from repro.substrate.node import InsufficientCapacityError, UnknownAllocationError
from repro.utils.validation import check_non_negative

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.substrate.network import SubstrateNetwork, SubstrateTopology

#: Feasibility tolerance of every node and link fit check.
CAPACITY_TOL = 1e-9


class SubstrateLedger:
    """Usage and live allocations of one network's nodes and links."""

    def __init__(self, topology: "SubstrateTopology") -> None:
        self.topology = topology
        # Static columns, shared read-only with every ledger over the topology.
        self.node_ids = topology.node_ids
        self.node_row = topology.node_row
        self.node_capacity = topology.node_capacity
        self.node_capacity_safe = topology.node_capacity_safe
        self.capacity_plus_tol = topology.capacity_plus_tol
        self.node_cost_per_unit = topology.node_cost_per_unit
        self.edge_tier_mask = topology.edge_tier_mask
        self.cloud_tier_mask = topology.cloud_tier_mask
        self.edge_index = topology.edge_index
        self.link_capacity = topology.link_capacity

        self.num_nodes = num_nodes = topology.num_nodes
        self.num_links = num_links = topology.num_links
        self.node_used = np.zeros((num_nodes, 3))
        self.node_alloc_count = np.zeros(num_nodes, dtype=np.int64)
        #: Live allocations per node row: handle -> demand, a ``(3,)`` array.
        self.node_records: List[Dict[str, np.ndarray]] = [{} for _ in range(num_nodes)]
        self.link_used = np.zeros(num_links, dtype=float)
        #: Live reservations per link slot: handle -> bandwidth (Mbps).
        self.link_records: List[Dict[str, float]] = [{} for _ in range(num_links)]

        #: Bumped by every usage write (node, link, chain, fence, reset), so
        #: ``(ledger, write_count)`` names one usage state.  Derived matrices
        #: (utilization, per-node max utilization, free capacity) and
        #: ``Placement.is_feasible`` verdicts are memoized against it.
        self.write_count = 0
        self._util_version = -1
        self._util_matrix: np.ndarray = np.zeros((num_nodes, 3))
        self._max_util_version = -1
        self._max_util: np.ndarray = np.zeros(num_nodes)
        self._free_tol_version = -1
        self._free_tol: np.ndarray = np.zeros((num_nodes, 3))
        # Single-entry memo for can_host_all: the encoder and the action mask
        # query the same demand in the same decision step.
        self._can_host_key: Tuple[int, Tuple[int, ...], bytes] = (-1, (), b"")
        self._can_host_result: np.ndarray = np.zeros(num_nodes, dtype=bool)

    # ------------------------------------------------------------------ #
    # Allocation primitives (every usage write goes through these)
    # ------------------------------------------------------------------ #
    def allocate_node(self, row: int, handle: str, demand: np.ndarray) -> None:
        """Reserve ``demand`` (a ``(3,)`` array) on node ``row`` under ``handle``.

        Raises
        ------
        InsufficientCapacityError
            If the demand does not fit in the node's free capacity.
        ValueError
            If the node already holds ``handle`` (allocations must be unique
            so that release is unambiguous).
        """
        records = self.node_records[row]
        if handle in records:
            raise ValueError(
                f"allocation handle {handle!r} already exists on node {self.node_ids[row]}"
            )
        used = self.node_used[row]
        if not (used + demand <= self.capacity_plus_tol[row]).all():
            free = np.maximum(self.node_capacity[row] - used, 0.0)
            raise InsufficientCapacityError(
                f"node {self.node_ids[row]} cannot host demand {demand.tolist()}; "
                f"free {free.tolist()}"
            )
        records[handle] = demand
        used += demand
        self.node_alloc_count[row] = len(records)
        self.write_count += 1

    def release_node(self, row: int, handle: str) -> np.ndarray:
        """Free the allocation held under ``handle`` on node ``row`` and return it."""
        records = self.node_records[row]
        if handle not in records:
            raise UnknownAllocationError(
                f"node {self.node_ids[row]} holds no allocation {handle!r}"
            )
        demand = records.pop(handle)
        used = self.node_used[row]
        # Clamp at zero like ResourceVector.__sub__ to absorb float noise.
        np.maximum(used - demand, 0.0, out=used)
        self.node_alloc_count[row] = len(records)
        self.write_count += 1
        return demand

    def reserve_link(self, slot: int, handle: str, bandwidth: float) -> None:
        """Reserve ``bandwidth`` Mbps on link ``slot`` under ``handle``.

        Raises
        ------
        InsufficientBandwidthError
            If the bandwidth does not fit in the link's free capacity.
        ValueError
            If ``bandwidth`` is negative or the link already holds ``handle``.
        """
        check_non_negative(bandwidth, "bandwidth")
        records = self.link_records[slot]
        if handle in records:
            raise ValueError(
                f"reservation handle {handle!r} already exists on link "
                f"{self.topology.links[slot].endpoints}"
            )
        free = max(0.0, self.link_capacity[slot] - self.link_used[slot])
        if not bandwidth <= free + CAPACITY_TOL:
            raise InsufficientBandwidthError(
                f"link {self.topology.links[slot].endpoints} cannot carry {bandwidth} Mbps "
                f"(available {free:.3f} Mbps)"
            )
        records[handle] = bandwidth
        self.link_used[slot] += bandwidth
        self.write_count += 1

    def release_link(self, slot: int, handle: str) -> float:
        """Free the reservation held under ``handle`` on link ``slot`` and return it."""
        records = self.link_records[slot]
        if handle not in records:
            raise UnknownReservationError(
                f"link {self.topology.links[slot].endpoints} holds no reservation {handle!r}"
            )
        bandwidth = records.pop(handle)
        self.link_used[slot] = max(0.0, self.link_used[slot] - bandwidth)
        self.write_count += 1
        return bandwidth

    def allocate_chain(
        self, chain: CompiledChain, node_handles: List[str], segment_handles: List[str]
    ) -> None:
        """Reserve a chain under one handle per instance and per segment, atomically.

        A handle already held raises ``ValueError`` before any write; a miss
        raises once :func:`reserve_chain` has rolled back.
        """
        node_records, link_records = self.node_records, self.link_records
        for row, handle in zip(chain.rows, node_handles):
            if handle in node_records[row]:
                raise ValueError(f"node {self.node_ids[row]} already holds {handle!r}")
        for slots, handle in zip(chain.segments, segment_handles):
            for slot in slots:
                if handle in link_records[slot]:
                    link = self.topology.links[slot].endpoints
                    raise ValueError(f"link {link} already holds {handle!r}")
        try:
            reserve_chain(
                self.topology, self.node_used, self.link_used,
                chain.rows, chain.demands, chain.segments, chain.bandwidth,
            )
        finally:
            self.write_count += 1
        for row, handle, demand in zip(chain.rows, node_handles, chain.arrays):
            node_records[row][handle] = demand
            self.node_alloc_count[row] = len(node_records[row])
        for slots, handle in zip(chain.segments, segment_handles):
            for slot in slots:
                link_records[slot][handle] = chain.bandwidth

    def release_chain(
        self, chain: CompiledChain, node_handles: List[str], segment_handles: List[str]
    ) -> None:
        """Free what :meth:`allocate_chain` reserved, hops first, like the primitives.

        A hop whose link lacks its handle is skipped; the first instance whose
        node lacks its handle (say, after a reset) raises
        :class:`UnknownAllocationError` once the instances before it are freed.
        """
        link_records, node_records = self.link_records, self.node_records
        segments = [
            [slot for slot in slots if link_records[slot].pop(handle, None) is not None]
            for slots, handle in zip(chain.segments, segment_handles)
        ]
        freed = 0
        for row, handle in zip(chain.rows, node_handles):
            if node_records[row].pop(handle, None) is None:
                break
            self.node_alloc_count[row] = len(node_records[row])
            freed += 1
        free_chain(
            self.node_used, self.link_used,
            chain.rows[:freed], chain.demands, segments, chain.bandwidth,
        )
        self.write_count += 1
        if freed < len(chain.rows):
            row, handle = chain.rows[freed], node_handles[freed]
            node_id = self.node_ids[row]
            raise UnknownAllocationError(f"node {node_id} holds no {handle!r}")

    def reset(self) -> None:
        """Drop every allocation and reservation (start of an episode)."""
        for node_records in self.node_records:
            node_records.clear()
        for link_records in self.link_records:
            link_records.clear()
        self.node_used.fill(0.0)
        self.node_alloc_count.fill(0)
        self.link_used.fill(0.0)
        self.write_count += 1

    # ------------------------------------------------------------------ #
    # Vectorized node queries
    # ------------------------------------------------------------------ #
    def can_host_all(self, demand: np.ndarray) -> np.ndarray:
        """Vectorized feasibility: which nodes can host ``demand``.

        ``demand`` is a ``(3,)`` array in canonical dimension order, or an
        ``(L, 3)`` stack of them (a chain's ``demand_rows``); the result is a
        boolean ``(num_nodes,)`` vector, or ``(L, num_nodes)`` matrix, over
        ledger rows, true where :meth:`allocate_node` would accept the
        demand.  Treat it as read-only: consecutive queries for the same
        demand (the encoder and the action mask of one decision) share one
        memoized computation.
        """
        key = (self.write_count, demand.shape, demand.tobytes())
        if key != self._can_host_key:
            if self._free_tol_version != self.write_count:
                np.subtract(self.capacity_plus_tol, self.node_used, out=self._free_tol)
                self._free_tol_version = self.write_count
            self._can_host_result = (demand[..., None, :] <= self._free_tol).all(axis=-1)
            self._can_host_key = key
        return self._can_host_result

    def utilization_matrix(self) -> np.ndarray:
        """Per-node, per-dimension utilization ratios, ``(num_nodes, 3)``.

        Memoized against the node mutation counter; treat as read-only.
        """
        if self._util_version != self.write_count:
            np.divide(self.node_used, self.node_capacity_safe, out=self._util_matrix)
            self._util_version = self.write_count
        return self._util_matrix

    def max_utilization(self) -> np.ndarray:
        """Per-node bottleneck (largest-dimension) utilization, ``(num_nodes,)``.

        Memoized against the node mutation counter; treat as read-only.
        """
        if self.num_nodes == 0:
            return np.zeros(0)
        if self._max_util_version != self.write_count:
            np.max(self.utilization_matrix(), axis=1, out=self._max_util)
            self._max_util_version = self.write_count
        return self._max_util

    def utilization_stats(self, edge_only: bool = True) -> Tuple[float, float]:
        """(mean, standard deviation) of per-node bottleneck utilizations."""
        values = self.max_utilization()
        if edge_only:
            values = values[self.edge_tier_mask]
        if values.size == 0:
            return 0.0, 0.0
        mean = float(values.mean())
        return mean, float(np.sqrt(np.mean((values - mean) ** 2)))

    def cost_rate(self) -> float:
        """Instantaneous cost rate of all node and link allocations."""
        node_cost = float(np.sum(self.node_used * self.node_cost_per_unit))
        node_cost += float(
            np.sum(self.topology.node_activation_cost[self.node_alloc_count > 0])
        )
        link_cost = float(self.link_used @ self.topology.link_cost)
        return node_cost + link_cost

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SubstrateLedger(nodes={self.num_nodes}, links={self.num_links})"
        )


class CompiledChain:
    """One placed chain flattened against one topology's rows and slots.

    Per instance in chain order: ``rows``, ``arrays`` (the ``(3,)`` demand
    records) and ``demands`` (as float lists); per segment, its link slots.
    For the check: ``row_demands`` (each distinct row, the demands on it
    summed in instance order), ``traversals`` (hops per slot) and
    ``slot_loads`` (slot, ``traversals * bandwidth``).
    """

    __slots__ = (
        "topology", "rows", "arrays", "demands", "segments", "bandwidth",
        "row_demands", "traversals", "slot_loads",
    )

    def __init__(
        self, topology: "SubstrateTopology", rows: List[int],
        arrays: List[np.ndarray], segments: List[Sequence[int]], bandwidth: float,
    ) -> None:
        self.topology = topology
        self.rows = rows
        self.arrays = arrays
        self.demands = demands = [array.tolist() for array in arrays]
        self.segments = segments
        self.bandwidth = bandwidth
        grouped: Dict[int, List[float]] = {}
        for row, demand in zip(rows, demands):
            prior = grouped.get(row)
            grouped[row] = (
                demand
                if prior is None
                else [prior[0] + demand[0], prior[1] + demand[1], prior[2] + demand[2]]
            )
        self.row_demands = list(grouped.items())
        traversals: Dict[int, int] = {}
        for slots in segments:
            for slot in slots:
                traversals[slot] = traversals.get(slot, 0) + 1
        self.traversals = traversals
        self.slot_loads = [
            (slot, count * bandwidth) for slot, count in traversals.items()
        ]


# --------------------------------------------------------------------------- #
# The chain kernel.  Capacities come from the topology, which every ledger
# and SoA lane over it shares; each write is the float expression of the
# primitive it replaces, in the same order, so usage stays bitwise what those
# would leave.
# --------------------------------------------------------------------------- #
def chain_fits(
    node_used: np.ndarray, link_used: np.ndarray, chain: CompiledChain
) -> bool:
    """True when all ``d <= (cap - used) + tol`` and no ``load > cap - used + tol``."""
    topology = chain.topology
    capacity = topology.capacity_rows
    for row, (d0, d1, d2) in chain.row_demands:
        c0, c1, c2 = capacity[row]
        u0, u1, u2 = node_used[row].tolist()
        if not (
            d0 <= (c0 - u0) + CAPACITY_TOL
            and d1 <= (c1 - u1) + CAPACITY_TOL
            and d2 <= (c2 - u2) + CAPACITY_TOL
        ):
            return False
    link_capacity = topology.link_capacity_list
    for slot, load in chain.slot_loads:
        if load > link_capacity[slot] - link_used.item(slot) + CAPACITY_TOL:
            return False
    return True


def reserve_chain(
    topology: "SubstrateTopology", node_used: np.ndarray, link_used: np.ndarray,
    rows: Sequence[int], demands: Sequence[Sequence[float]],
    segments: Sequence[Sequence[int]], bandwidth: float,
) -> None:
    """Add a chain's instances, then its hops, as the allocation primitives would.

    On the first miss, :func:`free_chain` takes back the failing segment's
    earlier hops, the earlier segments and the instances, each front to back
    (usage may drift by rounding), and the primitive's error is raised.
    """
    capacity_tol = topology.capacity_tol_rows
    for placed, (row, (d0, d1, d2)) in enumerate(zip(rows, demands)):
        u0, u1, u2 = node_used[row].tolist()
        n0, n1, n2 = u0 + d0, u1 + d1, u2 + d2
        c0, c1, c2 = capacity_tol[row]
        if not (n0 <= c0 and n1 <= c1 and n2 <= c2):
            c0, c1, c2 = topology.capacity_rows[row]
            free = [max(0.0, c0 - u0), max(0.0, c1 - u1), max(0.0, c2 - u2)]
            free_chain(node_used, link_used, rows[:placed], demands, (), bandwidth)
            raise InsufficientCapacityError(
                f"node {topology.node_ids[row]} cannot host demand "
                f"{[d0, d1, d2]}; free {free}"
            )
        node_used[row] = (n0, n1, n2)
    link_capacity = topology.link_capacity_list
    for index, slots in enumerate(segments):
        for hop, slot in enumerate(slots):
            current = link_used.item(slot)
            free = link_capacity[slot] - current
            free = free if free > 0.0 else 0.0  # max(0.0, free) without the call
            if not bandwidth <= free + CAPACITY_TOL:
                free_chain(
                    node_used, link_used, rows, demands,
                    [slots[:hop], *segments[:index]], bandwidth,
                )
                link = topology.links[slot].endpoints
                raise InsufficientBandwidthError(
                    f"link {link} cannot carry {bandwidth} Mbps "
                    f"(available {free:.3f} Mbps)"
                )
            link_used[slot] = current + bandwidth


def free_chain(
    node_used: np.ndarray, link_used: np.ndarray, rows: Sequence[int],
    demands: Sequence[Sequence[float]], segments: Sequence[Sequence[int]],
    bandwidth: float,
) -> None:
    """Take a chain's hops, then its instances, off the usage, clamped at zero.

    ``x if x > 0.0 else 0.0`` is ``max(0.0, x)`` bit for bit, without the call.
    """
    for slots in segments:
        for slot in slots:
            left = link_used.item(slot) - bandwidth
            link_used[slot] = left if left > 0.0 else 0.0
    for row, (d0, d1, d2) in zip(rows, demands):
        u0, u1, u2 = node_used[row].tolist()
        u0, u1, u2 = u0 - d0, u1 - d1, u2 - d2
        node_used[row] = (
            u0 if u0 > 0.0 else 0.0, u1 if u1 > 0.0 else 0.0, u2 if u2 > 0.0 else 0.0
        )


def chain_cost(
    topology: "SubstrateTopology", rows: Sequence[int],
    demands: Sequence[Sequence[float]], licences: Sequence[float],
    holding: float, bandwidth: float, per_mbps: float,
) -> Tuple[float, float]:
    """(hosting, transport) cost of a placed chain over its holding time.

    Per instance, ``(d0*c0 + d1*c1 + d2*c2) * holding`` then its licence are
    added to the hosting cost; the transport cost is
    ``bandwidth * per_mbps * holding``, ``per_mbps`` being the routed
    segments' summed cost per Mbps.
    """
    cost_rows = topology.cost_rows
    hosting = 0.0
    for row, (d0, d1, d2), licence in zip(rows, demands, licences):
        c0, c1, c2 = cost_rows[row]
        hosting += (d0 * c0 + d1 * c1 + d2 * c2) * holding
        hosting += licence
    return hosting, bandwidth * per_mbps * holding


class LedgerRowCache:
    """Maps a fixed node ordering to ledger row indices, surviving rebuilds.

    The state encoder and the action space iterate substrate nodes in one
    frozen order.  This cache translates that order into ledger rows once per
    ledger build and detects the common identity case (node order == ledger
    order), which lets consumers skip the fancy-indexing gathers entirely.
    """

    def __init__(self, node_order: Sequence[int]) -> None:
        self.node_order: List[int] = list(node_order)
        self.identity = False
        self._rows: np.ndarray = np.zeros(0, dtype=np.int64)
        self._ledger: "SubstrateLedger" = None  # type: ignore[assignment]

    def get(self, network: "SubstrateNetwork") -> Tuple["SubstrateLedger", np.ndarray]:
        """The network's current ledger and this ordering's row indices."""
        ledger = network.ledger
        if self._ledger is not ledger:
            self._rows = np.array(
                [ledger.node_row[node_id] for node_id in self.node_order],
                dtype=np.int64,
            )
            self.identity = len(self._rows) == ledger.num_nodes and bool(
                np.array_equal(self._rows, np.arange(len(self._rows)))
            )
            self._ledger = ledger
        return ledger, self._rows
