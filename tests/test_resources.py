"""Unit tests for resource vectors."""

import pytest

from repro.substrate.resources import RESOURCE_DIMENSIONS, ResourceVector, aggregate


class TestConstruction:
    def test_default_is_zero(self):
        assert ResourceVector().as_tuple() == (0.0, 0.0, 0.0)

    def test_zero_constructor(self):
        assert ResourceVector.zero().is_zero()

    def test_uniform_constructor(self):
        vector = ResourceVector.uniform(3.0)
        assert vector.as_tuple() == (3.0, 3.0, 3.0)

    def test_from_dict(self):
        vector = ResourceVector.from_dict({"cpu": 2.0, "memory": 4.0})
        assert vector.cpu == 2.0
        assert vector.memory == 4.0
        assert vector.storage == 0.0

    def test_from_dict_rejects_unknown_dimension(self):
        with pytest.raises(ValueError, match="unknown resource dimensions"):
            ResourceVector.from_dict({"gpu": 1.0})

    def test_negative_component_rejected(self):
        with pytest.raises(ValueError, match="must be >= 0"):
            ResourceVector(cpu=-1.0)

    def test_non_finite_component_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ResourceVector(cpu=float("nan"))

    def test_dimension_names(self):
        assert RESOURCE_DIMENSIONS == ("cpu", "memory", "storage")


class TestArithmetic:
    def test_addition(self):
        total = ResourceVector(1, 2, 3) + ResourceVector(4, 5, 6)
        assert total.as_tuple() == (5.0, 7.0, 9.0)

    def test_subtraction_clamps_at_zero(self):
        result = ResourceVector(1, 1, 1) - ResourceVector(2, 0.5, 1)
        assert result.as_tuple() == (0.0, 0.5, 0.0)

    def test_scalar_multiplication(self):
        assert (ResourceVector(1, 2, 3) * 2).as_tuple() == (2.0, 4.0, 6.0)

    def test_right_multiplication(self):
        assert (3 * ResourceVector(1, 0, 1)).as_tuple() == (3.0, 0.0, 3.0)

    def test_negative_scaling_rejected(self):
        with pytest.raises(ValueError):
            ResourceVector(1, 1, 1) * -1

    def test_aggregate(self):
        vectors = [ResourceVector(1, 1, 1)] * 3
        assert aggregate(vectors).as_tuple() == (3.0, 3.0, 3.0)

    def test_aggregate_empty(self):
        assert aggregate([]).is_zero()


class TestRatiosAndReductions:
    def test_dot_product(self):
        assert ResourceVector(1, 2, 3).dot(ResourceVector(2, 0.5, 1)) == pytest.approx(6.0)

    def test_total(self):
        assert ResourceVector(1, 2, 3).total() == 6.0


class TestConversions:
    def test_as_dict_round_trip(self):
        vector = ResourceVector(1.5, 2.5, 3.5)
        assert ResourceVector.from_dict(vector.as_dict()) == vector

    def test_iteration_order(self):
        assert list(ResourceVector(1, 2, 3)) == [1.0, 2.0, 3.0]

    def test_almost_equal(self):
        assert ResourceVector(1, 1, 1).almost_equal(ResourceVector(1 + 1e-12, 1, 1))
        assert not ResourceVector(1, 1, 1).almost_equal(ResourceVector(1.1, 1, 1))

    def test_frozen(self):
        vector = ResourceVector(1, 1, 1)
        with pytest.raises(AttributeError):
            vector.cpu = 5.0
