"""Unit tests for the utility helpers."""

import dataclasses
import zlib
from enum import Enum

import numpy as np
import pytest


from repro.utils.rng import (
    choice_without_replacement,
    derive_seed,
    exponential_sample,
    mix_seed_labels,
    new_rng,
    seed_base,
    spawn_rngs,
)
from repro.utils.serialization import load_json, save_json, to_jsonable
from repro.utils.validation import (
    check_in_range,
    check_non_negative,
    check_not_empty,
    check_positive,
    check_probability,
    check_type,
)


class TestRng:
    def test_new_rng_from_int_deterministic(self):
        assert new_rng(5).integers(0, 100, 10).tolist() == new_rng(5).integers(0, 100, 10).tolist()

    def test_new_rng_passthrough(self):
        generator = np.random.default_rng(0)
        assert new_rng(generator) is generator

    def test_spawn_rngs_independent(self):
        children = spawn_rngs(3, 4)
        assert len(children) == 4
        draws = [rng.integers(0, 1_000_000) for rng in children]
        assert len(set(int(d) for d in draws)) > 1

    def test_spawn_rngs_negative_count(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_derive_seed_deterministic_and_label_sensitive(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_derive_seed_returns_the_single_pass_ints(self):
        # The single-pass derivation derive_seed replaced by the base draw
        # and the label mix.
        def single_pass(seed, *labels):
            mixed = int(new_rng(seed).integers(0, 2**31 - 1))
            for label in labels:
                label_hash = zlib.crc32(str(label).encode("utf-8"))
                mixed = (mixed * 1000003 + label_hash) % (2**31 - 1)
            return mixed

        labels = [(), ("a",), ("request", 3.25, 7, 50.0, 30.0, 4), (np.int64(2), None)]
        for value in [0, 1, 7, 2**31 - 2, 2**40 + 3]:
            for case in labels:
                expected = single_pass(value, *case)
                assert derive_seed(value, *case) == expected
                assert derive_seed(np.int64(value), *case) == expected
                assert mix_seed_labels(seed_base(value), *case) == expected
                ours, theirs = np.random.default_rng(value), np.random.default_rng(value)
                assert derive_seed(ours, *case) == single_pass(theirs, *case)
                assert derive_seed(ours, *case) == single_pass(theirs, *case)
                assert ours.bit_generator.state == theirs.bit_generator.state

    def test_choice_without_replacement(self):
        rng = new_rng(0)
        chosen = choice_without_replacement(rng, range(10), 5)
        assert len(chosen) == len(set(chosen)) == 5

    def test_choice_without_replacement_too_many(self):
        with pytest.raises(ValueError):
            choice_without_replacement(new_rng(0), range(3), 5)

    def test_exponential_sample_mean(self):
        rng = new_rng(1)
        samples = exponential_sample(rng, rate=2.0, size=20_000)
        assert np.mean(samples) == pytest.approx(0.5, rel=0.05)

    def test_exponential_sample_invalid_rate(self):
        with pytest.raises(ValueError):
            exponential_sample(new_rng(0), rate=0.0)


class TestValidation:
    def test_check_positive(self):
        assert check_positive(1.5, "x") == 1.5
        with pytest.raises(ValueError):
            check_positive(0.0, "x")

    def test_check_non_negative(self):
        assert check_non_negative(0.0, "x") == 0.0
        with pytest.raises(ValueError):
            check_non_negative(-0.1, "x")

    def test_check_probability(self):
        assert check_probability(0.5, "p") == 0.5
        with pytest.raises(ValueError):
            check_probability(1.1, "p")

    def test_check_in_range(self):
        assert check_in_range(5, 0, 10, "x") == 5
        with pytest.raises(ValueError):
            check_in_range(0, 0, 10, "x", inclusive=False)

    def test_check_type(self):
        assert check_type("abc", str, "x") == "abc"
        with pytest.raises(TypeError):
            check_type("abc", int, "x")

    def test_check_not_empty(self):
        assert check_not_empty([1], "x") == [1]
        with pytest.raises(ValueError):
            check_not_empty([], "x")


class Color(Enum):
    RED = "red"


@dataclasses.dataclass
class Sample:
    name: str
    values: list


class TestSerialization:
    def test_numpy_scalars_and_arrays(self):
        data = to_jsonable({"a": np.int64(3), "b": np.float64(1.5), "c": np.arange(3)})
        assert data == {"a": 3, "b": 1.5, "c": [0, 1, 2]}

    def test_dataclass_and_enum(self):
        data = to_jsonable(Sample(name="x", values=[Color.RED]))
        assert data == {"name": "x", "values": ["red"]}

    def test_nested_containers(self):
        data = to_jsonable({"outer": [{"inner": (1, 2)}]})
        assert data == {"outer": [{"inner": [1, 2]}]}

    def test_unknown_objects_stringified(self):
        class Strange:
            def __str__(self):
                return "strange"

        assert to_jsonable(Strange()) == "strange"

    def test_save_and_load_round_trip(self, tmp_path):
        payload = {"metrics": {"acceptance": 0.75}, "series": [1, 2, 3]}
        path = save_json(payload, tmp_path / "out" / "result.json")
        assert load_json(path) == payload
