"""Lean-step protocol unit tests plus an SoA cache regression.

Covers two behaviours around the lean-step fast path:

* the ``_type_info`` cache must key on stable type *names* (with an
  identity check), never on ``id()`` — CPython recycles ids after GC,
  which silently handed brand-new VNF types a stale cached row;
* the lean accessors (``last_outcome_codes`` / ``last_request_done`` /
  ``last_request_ids`` / ``last_episode_stats``) must mirror the info
  dicts of the full protocol and reject lanes that did not finish.
"""

import gc

import numpy as np
import pytest

from differential import masked_random_actions
from repro.core.env import EnvConfig
from repro.core.soa import SoAVecPlacementEnv
from repro.core.vecenv import OUTCOME_CODE, VecPlacementEnv
from repro.nfv.vnf import make_vnf_type
from repro.workloads.scenarios import reference_scenario


def _scenario(seed: int = 0):
    return reference_scenario(
        arrival_rate=0.9, num_edge_nodes=6, horizon=120.0, seed=seed
    )


def _soa_env(num_lanes: int = 3, *, seed: int = 0):
    return SoAVecPlacementEnv.from_scenario(
        _scenario(seed),
        num_lanes,
        seed=seed,
        env_config=EnvConfig(requests_per_episode=6),
    )


def _ref_env(num_lanes: int = 3, seed: int = 0):
    return VecPlacementEnv.from_scenario(
        _scenario(seed),
        num_lanes,
        seed=seed,
        env_config=EnvConfig(requests_per_episode=6),
    )


class TestTypeInfoCache:
    """Regression: ``_type_info`` must survive id reuse and name collisions."""

    def test_cache_keys_are_names_not_ids(self):
        env = _soa_env(1)
        vnf = make_vnf_type("firewall", cpu=2.0, memory=2.0)
        env._vnf_info(vnf)
        assert all(isinstance(key, str) for key in env._type_info), (
            "cache keys must be stable type names, not id() integers"
        )
        assert "firewall" in env._type_info

    def test_id_reuse_does_not_serve_stale_info(self):
        """Force CPython to recycle a freed type's id onto a new type.

        With the historical ``id(vnf_type)``-keyed cache the recycled id
        aliased the stale entry and the new type inherited the old type's
        processing delay / license cost.  The name-keyed cache with an
        identity check must rebuild instead.
        """
        env = _soa_env(1)
        stales = [
            make_vnf_type(
                "firewall", cpu=2.0, memory=2.0,
                processing_delay_ms=111.0, license_cost=5.0,
            )
            for _ in range(64)
        ]
        for stale in stales:
            assert env._vnf_info(stale)[0] == 111.0
        # The cache holds a strong reference to the cached object (so a live
        # entry's id can never be recycled).  Evict it with a same-named
        # replacement, then free the whole stale batch so their ids return
        # to the allocator, and allocate a bigger batch of new types — some
        # of them land on recycled ids.
        replacement = make_vnf_type(
            "firewall", cpu=2.0, memory=2.0,
            processing_delay_ms=50.0, license_cost=1.0,
        )
        assert env._vnf_info(replacement)[0] == 50.0
        freed_ids = {id(stale) for stale in stales}
        del stales, stale
        gc.collect()
        candidates = [
            make_vnf_type(
                "firewall", cpu=2.0, memory=2.0,
                processing_delay_ms=222.0, license_cost=7.0,
            )
            for _ in range(512)
        ]
        fresh = next((c for c in candidates if id(c) in freed_ids), None)
        if fresh is None:
            pytest.skip("allocator never recycled a freed id on this runtime")
        proc, _, license_cost, cached_type = env._vnf_info(fresh)
        assert proc == 222.0, "stale cached processing delay served after id reuse"
        assert license_cost == 7.0
        assert cached_type is fresh

    def test_same_name_different_object_rebuilds(self):
        env = _soa_env(1)
        first = make_vnf_type(
            "nat", cpu=1.0, memory=1.0, processing_delay_ms=0.3
        )
        second = make_vnf_type(
            "nat", cpu=1.0, memory=1.0, processing_delay_ms=9.9
        )
        assert env._vnf_info(first)[0] == 0.3
        assert env._vnf_info(second)[0] == 9.9
        # And a repeat hit on the cached object stays a genuine cache hit.
        assert env._vnf_info(second)[3] is second


class TestLeanAccessors:
    """Lean-step accessors mirror the full protocol's info dicts."""

    @pytest.mark.parametrize("make_env", [_ref_env, _soa_env])
    def test_accessors_match_full_infos(self, make_env):
        env = make_env(3)
        rng = np.random.default_rng(11)
        env.reset()
        saw_done = False
        for _ in range(30):
            masks = env.valid_action_masks()
            actions = masked_random_actions(masks, rng)
            _, _, dones, infos = env.step(actions)
            codes = env.last_outcome_codes()
            req_done = env.last_request_done()
            req_ids = env.last_request_ids()
            assert codes.dtype == np.int8 and codes.shape == (3,)
            for lane, info in enumerate(infos):
                assert codes[lane] == OUTCOME_CODE[info["outcome"]]
                assert bool(req_done[lane]) == bool(info["request_done"])
                assert int(req_ids[lane]) == int(info["request_id"])
                if dones[lane]:
                    saw_done = True
                    assert env.last_episode_stats(lane) == info["episode_stats"]
                else:
                    with pytest.raises(
                        KeyError, match="did not finish an episode"
                    ):
                        env.last_episode_stats(lane)
        assert saw_done, "no episode finished in 30 steps; lengthen the drive"

    @pytest.mark.parametrize("make_env", [_ref_env, _soa_env])
    def test_info_false_returns_none_infos(self, make_env):
        env = make_env(2)
        rng = np.random.default_rng(1)
        env.reset()
        masks = env.valid_action_masks()
        _, rewards, dones, infos = env.step(
            masked_random_actions(masks, rng), info=False
        )
        assert infos is None
        assert rewards.shape == (2,) and dones.shape == (2,)
        # The outcome arrays are still recorded on lean steps.
        assert env.last_outcome_codes().shape == (2,)
        assert env.last_request_done().shape == (2,)
