"""The SoA core's usage ledgers, one primitive at a time.

:class:`~repro.core.soa.SoAVecPlacementEnv` keeps each lane's node and link
usage in two numpy arrays, ``_node_used`` ``(K, N, 3)`` and ``_link_used``
``(K, L)``.  Its scalar paths run the substrate ledger's chain kernel
(:func:`~repro.substrate.ledger.chain_fits`,
:func:`~repro.substrate.ledger.reserve_chain`,
:func:`~repro.substrate.ledger.free_chain`) on one lane's rows of those
arrays: the check and commit of a completed chain, with the commit's
rollback, and the release of a departing or disrupted record, which each lane
holds in its departure heap.  The env adds node fencing on failure, its
removal on recovery, and the per-lane reset.  These tests drive each
primitive on a fresh lane with a chain the env really committed in the
tight-link campaign, and check the exact ledger effect, that the other lanes
stay untouched, and that the decision reads see what was written.
"""

import heapq

import numpy as np
import pytest

from differential import masked_random_actions, tight_link_factory
from repro.core.soa import SoAVecPlacementEnv, _ChainRecord
from repro.core.vecenv import OUTCOME_CODE
from repro.substrate.ledger import CompiledChain, chain_fits, free_chain, reserve_chain
from repro.substrate.link import InsufficientBandwidthError
from repro.substrate.node import InsufficientCapacityError

#: Releases clamp at zero (``max(0, u - d)``), so round trips drift by rounding.
ATOL = 1e-12
LANE = 1


@pytest.fixture
def replayed(monkeypatch):
    """A freshly reset tight-link env and one chain it committed.

    Drives the campaign until ``_commit_chain`` commits a chain that crosses
    at least one link, then resets every lane, so the ledgers start at zero.
    Returns ``(env, view, rows, segments)``, ``segments`` being one list of
    link slots per routed segment.
    """
    captured = []
    commit = SoAVecPlacementEnv._commit_chain

    def spy(self, lane, st, view):
        outcome = commit(self, lane, st, view)
        if outcome[0] == OUTCOME_CODE["accepted"] and not captured:
            # The newest record, the one this commit pushed.
            record = max(st.heap, key=lambda entry: entry[1])[2]
            if any(record.segments):
                captured.append((view, list(record.rows), list(record.segments)))
        return outcome

    monkeypatch.setattr(SoAVecPlacementEnv, "_commit_chain", spy)
    env = tight_link_factory(SoAVecPlacementEnv)()
    rng = np.random.default_rng(123)
    env.reset(observe=False)
    for _ in range(300):
        masks = np.array(env.valid_action_masks(), dtype=bool, copy=True)
        env.step(masked_random_actions(masks, rng), observe=False, info=False)
        if captured:
            break
    monkeypatch.undo()
    assert captured, "the env committed no chain over a link"
    view, rows, segments = captured[0]
    env.reset(observe=False)
    assert not env._node_used.any() and not env._link_used.any()
    return env, view, rows, segments


def _commit(env, lane, view, rows, segments):
    """The kernel's commit of one chain on one lane's rows."""
    reserve_chain(
        env._topology, env._node_used[lane], env._link_used[lane],
        rows, view.demand_lists, segments, view.bw,
    )


def _fits(env, lane, view, rows, segments):
    """The kernel's read-only check of one chain on one lane's rows."""
    chain = CompiledChain(
        env._topology, rows, [vnf[0] for vnf in view.vnfs], segments, view.bw
    )
    return chain_fits(env._node_used[lane], env._link_used[lane], chain)


def _release(env, lane, view, rows, segments):
    """The kernel's release of one chain from one lane's rows."""
    free_chain(
        env._node_used[lane], env._link_used[lane],
        rows, view.demand_lists, segments, view.bw,
    )


def _expected_usage(env, view, rows, segments):
    """The node and link usage one committed chain reserves on a zero lane."""
    node = np.zeros_like(env._node_used[LANE])
    for vnf, row in zip(view.vnfs, rows):
        node[row] += vnf[1]
    link = np.zeros_like(env._link_used[LANE])
    for slots in segments:
        for slot in slots:
            link[slot] += view.bw
    return node, link


def _store_record(env, view, rows, segments, departure=None):
    """Push a committed chain onto ``LANE``'s heap the way the commit does."""
    st = env._lanes[LANE]
    st.counter += 1
    record = _ChainRecord(rows, view.demand_lists, segments, view.bw)
    due = view.departure if departure is None else departure
    heapq.heappush(st.heap, (due, st.counter, record))
    return record


def _other_lanes(array):
    return np.delete(array, LANE, axis=0).copy()


class TestCommitAndRollback:
    def test_commit_reserves_demands_and_bandwidth(self, replayed):
        env, view, rows, segments = replayed
        others_node = _other_lanes(env._node_used)
        others_link = _other_lanes(env._link_used)
        _commit(env, LANE, view, rows, segments)
        node, link = _expected_usage(env, view, rows, segments)
        np.testing.assert_allclose(env._node_used[LANE], node, rtol=0.0, atol=ATOL)
        np.testing.assert_allclose(env._link_used[LANE], link, rtol=0.0, atol=ATOL)
        np.testing.assert_array_equal(_other_lanes(env._node_used), others_node)
        np.testing.assert_array_equal(_other_lanes(env._link_used), others_link)

    def test_node_overflow_rolls_back_placed_instances(self, replayed):
        env, view, rows, segments = replayed
        full_row = rows[-1]
        env._node_used[LANE, full_row] = env._capacity[full_row]
        before = env._node_used[LANE].copy()
        with pytest.raises(InsufficientCapacityError):
            _commit(env, LANE, view, rows, segments)
        np.testing.assert_allclose(env._node_used[LANE], before, rtol=0.0, atol=ATOL)
        assert not env._link_used[LANE].any()

    def test_link_overflow_rolls_back_nodes_and_segments(self, replayed):
        env, view, rows, segments = replayed
        last_slots = [slots for slots in segments if slots][-1]
        full_slot = last_slots[-1]
        env._link_used[LANE, full_slot] = env._topology.link_capacity[full_slot]
        link_before = env._link_used[LANE].copy()
        with pytest.raises(InsufficientBandwidthError):
            _commit(env, LANE, view, rows, segments)
        np.testing.assert_allclose(env._node_used[LANE], 0.0, rtol=0.0, atol=ATOL)
        np.testing.assert_allclose(
            env._link_used[LANE], link_before, rtol=0.0, atol=ATOL
        )
        assert (env._node_used[LANE] >= 0.0).all()
        assert (env._link_used[LANE] >= 0.0).all()

    def test_link_overflow_mid_segment_returns_the_segment_prefix(self, replayed):
        # Every route of the tight-link topology is one hop, so the two-link
        # segment is synthetic: its first slot is taken before the second
        # one overflows.
        env, view, rows, _ = replayed
        free_slot, full_slot = 0, 1
        env._link_used[LANE, full_slot] = env._topology.link_capacity[full_slot]
        link_before = env._link_used[LANE].copy()
        with pytest.raises(InsufficientBandwidthError):
            _commit(env, LANE, view, rows, [[free_slot, full_slot]])
        np.testing.assert_allclose(env._node_used[LANE], 0.0, rtol=0.0, atol=ATOL)
        np.testing.assert_array_equal(env._link_used[LANE], link_before)


class TestFeasibilityReadsTheLedger:
    def test_committed_chain_is_feasible_on_an_empty_lane(self, replayed):
        env, view, rows, segments = replayed
        assert _fits(env, LANE, view, rows, segments)

    def test_full_node_makes_the_chain_infeasible(self, replayed):
        env, view, rows, segments = replayed
        env._node_used[LANE, rows[0]] = env._capacity[rows[0]]
        assert not _fits(env, LANE, view, rows, segments)
        # Another lane's usage is not this lane's.
        assert _fits(env, LANE - 1, view, rows, segments)

    def test_full_link_makes_the_chain_infeasible(self, replayed):
        env, view, rows, segments = replayed
        slot = [slots for slots in segments if slots][0][0]
        env._link_used[LANE, slot] = env._topology.link_capacity[slot]
        assert not _fits(env, LANE, view, rows, segments)


class TestRelease:
    def test_release_returns_the_reservation(self, replayed):
        env, view, rows, segments = replayed
        _commit(env, LANE, view, rows, segments)
        _release(env, LANE, view, rows, segments)
        np.testing.assert_allclose(env._node_used[LANE], 0.0, rtol=0.0, atol=ATOL)
        np.testing.assert_allclose(env._link_used[LANE], 0.0, rtol=0.0, atol=ATOL)

    def test_release_clamps_at_zero(self, replayed):
        env, view, rows, segments = replayed
        # The ledger holds less than the chain reserved (rounding loss).
        slot = [slots for slots in segments if slots][0][0]
        env._node_used[LANE, rows[0]] = 1e-15
        env._link_used[LANE, slot] = 1e-15
        _release(env, LANE, view, rows, segments)
        assert not env._node_used[LANE].any()
        assert not env._link_used[LANE].any()


class TestFailAndRecover:
    def test_fail_fences_the_free_capacity(self, replayed):
        env, _, rows, _ = replayed
        st = env._lanes[LANE]
        row = rows[0]
        env._fail_node(LANE, st, row)
        np.testing.assert_array_equal(env._node_used[LANE, row], env._capacity[row])
        np.testing.assert_array_equal(st.fences[row], env._capacity[row])
        assert env._fence_rows[LANE, row]
        assert row in st.failed_rows
        assert not env._node_used[LANE - 1].any()

    def test_fail_tears_down_hosted_records(self, replayed):
        env, view, rows, segments = replayed
        st = env._lanes[LANE]
        _commit(env, LANE, view, rows, segments)
        record = _store_record(env, view, rows, segments)
        disrupted = st.stats.disrupted
        row = rows[-1]
        env._fail_node(LANE, st, row)
        assert not record.live
        assert st.stats.disrupted == disrupted + 1
        np.testing.assert_allclose(env._link_used[LANE], 0.0, rtol=0.0, atol=ATOL)
        np.testing.assert_allclose(
            env._node_used[LANE, row], env._capacity[row], rtol=0.0, atol=ATOL
        )
        others = [other for other in range(env._num_nodes) if other != row]
        np.testing.assert_allclose(
            env._node_used[LANE, others], 0.0, rtol=0.0, atol=ATOL
        )

    def test_departure_skips_a_record_the_failure_released(self, replayed):
        env, view, rows, segments = replayed
        st = env._lanes[LANE]
        _commit(env, LANE, view, rows, segments)
        record = _store_record(env, view, rows, segments)
        env._fail_node(LANE, st, rows[-1])
        node_after_fail = env._node_used.tobytes()
        link_after_fail = env._link_used.tobytes()
        env._release_departed(LANE, st, view.departure)
        assert not st.heap
        assert not record.live
        assert env._node_used.tobytes() == node_after_fail
        assert env._link_used.tobytes() == link_after_fail

    def test_recover_removes_the_fence(self, replayed):
        env, _, rows, _ = replayed
        st = env._lanes[LANE]
        row = rows[0]
        env._fail_node(LANE, st, row)
        env._recover_node(LANE, st, row)
        assert not env._node_used[LANE].any()
        assert not st.fences and not st.failed_rows
        assert not env._fence_rows[LANE, row]

    def test_fail_and_recover_are_idempotent(self, replayed):
        env, _, rows, _ = replayed
        st = env._lanes[LANE]
        row = rows[0]
        env._recover_node(LANE, st, row)
        assert not env._node_used[LANE].any()
        env._fail_node(LANE, st, row)
        fenced = env._node_used[LANE].copy()
        env._fail_node(LANE, st, row)
        np.testing.assert_array_equal(env._node_used[LANE], fenced)
        env._recover_node(LANE, st, row)
        env._recover_node(LANE, st, row)
        assert not env._node_used[LANE].any()


class TestResetLane:
    def test_reset_lane_clears_only_its_ledgers(self, replayed):
        env, view, rows, segments = replayed
        for lane in range(env.num_lanes):
            _commit(env, lane, view, rows, segments)
        env._fail_node(LANE, env._lanes[LANE], rows[0])
        others_node = _other_lanes(env._node_used)
        others_link = _other_lanes(env._link_used)
        # Due after any arrival, so only the reset can drop it.
        _store_record(env, view, rows, segments, departure=np.inf)
        env.reset_lane(LANE)
        assert not env._node_used[LANE].any()
        assert not env._link_used[LANE].any()
        assert not env._lanes[LANE].fences
        assert not env._lanes[LANE].heap
        np.testing.assert_array_equal(_other_lanes(env._node_used), others_node)
        np.testing.assert_array_equal(_other_lanes(env._link_used), others_link)
