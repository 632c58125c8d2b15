"""Unit tests for repro.nn.schedules."""

import numpy as np
import pytest

from repro.nn.module import Parameter
from repro.nn.optim import Adam
from repro.nn.schedules import ConstantSchedule, ReduceOnLossIncrease


def make_optimizer(learning_rate=0.1):
    return Adam([Parameter(np.zeros(1))], learning_rate=learning_rate)


class TestConstantSchedule:
    def test_never_changes(self):
        optimizer = make_optimizer(0.05)
        schedule = ConstantSchedule(optimizer)
        for loss in [1.0, 2.0, 0.5, 3.0]:
            assert schedule.step(loss) == 0.05


class TestReduceOnLossIncrease:
    def test_no_decay_while_improving(self):
        optimizer = make_optimizer(0.1)
        schedule = ReduceOnLossIncrease(optimizer, factor=0.5)
        for loss in [1.0, 0.9, 0.8, 0.7]:
            schedule.step(loss)
        assert optimizer.learning_rate == 0.1

    def test_decays_on_increase(self):
        optimizer = make_optimizer(0.1)
        schedule = ReduceOnLossIncrease(optimizer, factor=0.5, patience=1)
        schedule.step(1.0)
        schedule.step(2.0)  # increase -> decay
        assert optimizer.learning_rate == pytest.approx(0.05)

    def test_patience_delays_decay(self):
        optimizer = make_optimizer(0.1)
        schedule = ReduceOnLossIncrease(optimizer, factor=0.5, patience=2)
        schedule.step(1.0)
        schedule.step(2.0)
        assert optimizer.learning_rate == 0.1
        schedule.step(2.5)
        assert optimizer.learning_rate == pytest.approx(0.05)

    def test_floor(self):
        optimizer = make_optimizer(1e-5)
        schedule = ReduceOnLossIncrease(
            optimizer, factor=0.1, patience=1, min_learning_rate=1e-6
        )
        schedule.step(1.0)
        for _ in range(5):
            schedule.step(2.0)
        # Decays stop exactly at the floor.
        assert optimizer.learning_rate == 1e-6

    def test_rate_below_the_floor_is_never_raised(self):
        optimizer = make_optimizer(1e-7)
        schedule = ReduceOnLossIncrease(
            optimizer, factor=0.5, patience=1, min_learning_rate=1e-6
        )
        schedule.step(1.0)
        for _ in range(3):
            schedule.step(2.0)  # every step is an increase -> a decay
        assert optimizer.learning_rate == 1e-7

    def test_validation(self):
        with pytest.raises(ValueError):
            ReduceOnLossIncrease(make_optimizer(), factor=1.5)
        with pytest.raises(ValueError):
            ReduceOnLossIncrease(make_optimizer(), min_learning_rate=0.0)
