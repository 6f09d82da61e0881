"""The SoA core's usage ledgers, one primitive at a time.

:class:`~repro.core.soa.SoAVecPlacementEnv` keeps each lane's node and link
usage in two numpy arrays, ``_node_used`` ``(K, N, 3)`` and ``_link_used``
``(K, L)``, and every scalar path reads and writes them directly: the
feasibility check and atomic commit of the scalar replay, the rollback of a
partial commit, the release of a departing or disrupted record, node
fencing on failure and its removal on recovery, and the per-lane reset.
These tests drive each primitive on a fresh lane with a chain the scalar
replay really committed in the tight-link campaign, and check the exact
ledger effect, that the other lanes stay untouched, and that the decision
reads see what was written.
"""

import numpy as np
import pytest

from differential import masked_random_actions, tight_link_factory
from repro.core.soa import SoAVecPlacementEnv

#: Releases clamp at zero (``max(0, u - d)``), so round trips drift by rounding.
ATOL = 1e-12
LANE = 1


@pytest.fixture
def replayed(monkeypatch):
    """A freshly reset tight-link env and one chain its replay committed.

    Drives the campaign until ``_commit`` accepts a chain that crosses at
    least one link, then resets every lane, so the ledgers start at zero.
    Returns ``(env, view, rows, segments, propagation, per_mbps)``.
    """
    captured = []
    commit = SoAVecPlacementEnv._commit

    def spy(self, lane, view, rows, segments):
        ok = commit(self, lane, view, rows, segments)
        if ok and not captured and any(entry[1] for entry in segments):
            captured.append((view, list(rows), list(segments)))
        return ok

    monkeypatch.setattr(SoAVecPlacementEnv, "_commit", spy)
    env = tight_link_factory(SoAVecPlacementEnv)()
    rng = np.random.default_rng(123)
    env.reset(observe=False)
    for _ in range(300):
        masks = np.array(env.valid_action_masks(), dtype=bool, copy=True)
        env.step(masked_random_actions(masks, rng), observe=False, info=False)
        if captured:
            break
    monkeypatch.undo()
    assert captured, "the scalar replay committed no chain"
    view, rows, segments = captured[0]
    propagation = 0.0
    per_mbps = 0.0
    for entry in segments:
        propagation += entry[0]
        per_mbps += entry[2]
    env.reset(observe=False)
    assert not env._node_used.any() and not env._link_used.any()
    return env, view, rows, segments, propagation, per_mbps


def _expected_usage(env, view, rows, segments):
    """The node and link usage one committed chain reserves on a zero lane."""
    node = np.zeros_like(env._node_used[LANE])
    for vnf, row in zip(view.vnfs, rows):
        node[row] += vnf[1]
    link = np.zeros_like(env._link_used[LANE])
    for entry in segments:
        for slot in entry[1]:
            link[slot] += view.bw
    return node, link


def _store_record(env, view, rows, segments):
    """Register a committed chain on ``LANE`` the way the replay does."""
    st = env._lanes[LANE]
    st.counter += 1
    rec = env._store.alloc(
        LANE,
        view.departure,
        view.bw,
        tuple(rows),
        [vnf[1] for vnf in view.vnfs],
        [entry[1] for entry in segments],
        frozenset(rows),
    )
    st.heap.append((view.departure, st.counter, rec))
    return rec


def _other_lanes(array):
    return np.delete(array, LANE, axis=0).copy()


class TestCommitAndRollback:
    def test_commit_reserves_demands_and_bandwidth(self, replayed):
        env, view, rows, segments, _, _ = replayed
        others_node = _other_lanes(env._node_used)
        others_link = _other_lanes(env._link_used)
        assert env._commit(LANE, view, rows, segments)
        node, link = _expected_usage(env, view, rows, segments)
        np.testing.assert_allclose(env._node_used[LANE], node, rtol=0.0, atol=ATOL)
        np.testing.assert_allclose(env._link_used[LANE], link, rtol=0.0, atol=ATOL)
        np.testing.assert_array_equal(_other_lanes(env._node_used), others_node)
        np.testing.assert_array_equal(_other_lanes(env._link_used), others_link)

    def test_node_overflow_rolls_back_placed_instances(self, replayed):
        env, view, rows, segments, _, _ = replayed
        full_row = rows[-1]
        env._node_used[LANE, full_row] = env._capacity[full_row]
        before = env._node_used[LANE].copy()
        assert not env._commit(LANE, view, rows, segments)
        np.testing.assert_allclose(env._node_used[LANE], before, rtol=0.0, atol=ATOL)
        assert not env._link_used[LANE].any()

    def test_link_overflow_rolls_back_nodes_and_segments(self, replayed):
        env, view, rows, segments, _, _ = replayed
        last_slots = [entry[1] for entry in segments if entry[1]][-1]
        full_slot = last_slots[-1]
        env._link_used[LANE, full_slot] = env._link_cap_list[full_slot]
        link_before = env._link_used[LANE].copy()
        assert not env._commit(LANE, view, rows, segments)
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
        env, view, rows, _, _, _ = replayed
        free_slot, full_slot = 0, 1
        env._link_used[LANE, full_slot] = env._link_cap_list[full_slot]
        link_before = env._link_used[LANE].copy()
        assert not env._commit(LANE, view, rows, [(0.0, [free_slot, full_slot], 0.0)])
        np.testing.assert_allclose(env._node_used[LANE], 0.0, rtol=0.0, atol=ATOL)
        np.testing.assert_array_equal(env._link_used[LANE], link_before)


class TestFeasibilityReadsTheLedger:
    def test_committed_chain_is_feasible_on_an_empty_lane(self, replayed):
        env, view, rows, segments, propagation, per_mbps = replayed
        feasible, e2e, cost = env._check_feasible(
            LANE, view, rows, segments, propagation, per_mbps
        )
        assert feasible
        assert 0.0 < e2e <= view.sla + 1e-9
        assert cost > 0.0

    def test_full_node_makes_the_chain_infeasible(self, replayed):
        env, view, rows, segments, propagation, per_mbps = replayed
        env._node_used[LANE, rows[0]] = env._capacity[rows[0]]
        assert env._check_feasible(
            LANE, view, rows, segments, propagation, per_mbps
        ) == (False, 0.0, 0.0)
        # Another lane's usage is not this lane's.
        assert env._check_feasible(
            LANE - 1, view, rows, segments, propagation, per_mbps
        )[0]

    def test_full_link_makes_the_chain_infeasible(self, replayed):
        env, view, rows, segments, propagation, per_mbps = replayed
        slot = [entry[1] for entry in segments if entry[1]][0][0]
        env._link_used[LANE, slot] = env._link_cap_list[slot]
        assert env._check_feasible(
            LANE, view, rows, segments, propagation, per_mbps
        ) == (False, 0.0, 0.0)


class TestRelease:
    def test_release_returns_the_reservation(self, replayed):
        env, view, rows, segments, _, _ = replayed
        assert env._commit(LANE, view, rows, segments)
        rec = _store_record(env, view, rows, segments)
        env._release_record(LANE, rec)
        assert not env._store.committed[rec]
        np.testing.assert_allclose(env._node_used[LANE], 0.0, rtol=0.0, atol=ATOL)
        np.testing.assert_allclose(env._link_used[LANE], 0.0, rtol=0.0, atol=ATOL)

    def test_release_clamps_at_zero(self, replayed):
        env, view, rows, segments, _, _ = replayed
        rec = _store_record(env, view, rows, segments)
        # The ledger holds less than the record reserved (rounding loss).
        slot = [entry[1] for entry in segments if entry[1]][0][0]
        env._node_used[LANE, rows[0]] = 1e-15
        env._link_used[LANE, slot] = 1e-15
        env._release_record(LANE, rec)
        assert not env._node_used[LANE].any()
        assert not env._link_used[LANE].any()


class TestFailAndRecover:
    def test_fail_fences_the_free_capacity(self, replayed):
        env, _, rows, _, _, _ = replayed
        st = env._lanes[LANE]
        row = rows[0]
        env._fail_node(LANE, st, row)
        np.testing.assert_array_equal(env._node_used[LANE, row], env._capacity[row])
        np.testing.assert_array_equal(st.fences[row], env._capacity[row])
        assert env._fence_rows[LANE, row]
        assert row in st.failed_rows
        assert not env._node_used[LANE - 1].any()

    def test_fail_tears_down_hosted_records(self, replayed):
        env, view, rows, segments, _, _ = replayed
        st = env._lanes[LANE]
        assert env._commit(LANE, view, rows, segments)
        rec = _store_record(env, view, rows, segments)
        disrupted = st.stats.disrupted
        row = rows[-1]
        env._fail_node(LANE, st, row)
        assert not env._store.committed[rec]
        assert st.stats.disrupted == disrupted + 1
        np.testing.assert_allclose(env._link_used[LANE], 0.0, rtol=0.0, atol=ATOL)
        np.testing.assert_allclose(
            env._node_used[LANE, row], env._capacity[row], rtol=0.0, atol=ATOL
        )
        others = [other for other in range(env._num_nodes) if other != row]
        np.testing.assert_allclose(
            env._node_used[LANE, others], 0.0, rtol=0.0, atol=ATOL
        )

    def test_recover_removes_the_fence(self, replayed):
        env, _, rows, _, _, _ = replayed
        st = env._lanes[LANE]
        row = rows[0]
        env._fail_node(LANE, st, row)
        env._recover_node(LANE, st, row)
        assert not env._node_used[LANE].any()
        assert not st.fences and not st.failed_rows
        assert not env._fence_rows[LANE, row]

    def test_fail_and_recover_are_idempotent(self, replayed):
        env, _, rows, _, _, _ = replayed
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
        env, view, rows, segments, _, _ = replayed
        for lane in range(env.num_lanes):
            assert env._commit(lane, view, rows, segments)
        env._fail_node(LANE, env._lanes[LANE], rows[0])
        others_node = _other_lanes(env._node_used)
        others_link = _other_lanes(env._link_used)
        env.reset_lane(LANE)
        assert not env._node_used[LANE].any()
        assert not env._link_used[LANE].any()
        assert not env._lanes[LANE].fences
        np.testing.assert_array_equal(_other_lanes(env._node_used), others_node)
        np.testing.assert_array_equal(_other_lanes(env._link_used), others_link)
