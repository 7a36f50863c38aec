"""Max-min waterfilling tests."""

import pytest

from repro.hw.hbm import waterfill


class TestWaterfill:
    def test_empty(self):
        assert waterfill([], 100.0) == []

    def test_single_flow_capped_by_demand(self):
        assert waterfill([30.0], 100.0) == [30.0]

    def test_single_flow_capped_by_pool(self):
        assert waterfill([300.0], 100.0) == [100.0]

    def test_equal_split(self):
        rates = waterfill([100.0, 100.0, 100.0, 100.0], 100.0)
        assert rates == pytest.approx([25.0] * 4)

    def test_max_min_fairness(self):
        # the small flow gets its demand; the leftovers split evenly
        rates = waterfill([10.0, 100.0, 100.0], 100.0)
        assert rates[0] == pytest.approx(10.0)
        assert rates[1] == rates[2] == pytest.approx(45.0)

    def test_conservation(self):
        rates = waterfill([50.0, 70.0, 90.0], 120.0)
        assert sum(rates) <= 120.0 + 1e-9
        for r, d in zip(rates, [50.0, 70.0, 90.0]):
            assert r <= d + 1e-9

    def test_underloaded_pool(self):
        rates = waterfill([10.0, 20.0], 1000.0)
        assert rates == pytest.approx([10.0, 20.0])

    def test_zero_pool(self):
        assert waterfill([10.0, 20.0], 0.0) == [0.0, 0.0]

    def test_order_preserved(self):
        # result order matches input order, not sorted order
        rates = waterfill([100.0, 5.0], 50.0)
        assert rates[1] == pytest.approx(5.0)
        assert rates[0] == pytest.approx(45.0)

