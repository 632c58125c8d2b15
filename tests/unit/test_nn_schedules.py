"""Unit tests for repro.nn.schedules."""

import numpy as np
import pytest

from repro.nn.module import Parameter
from repro.nn.optim import Adam
from repro.nn.schedules import MIN_LEARNING_RATE, ReduceOnLossIncrease


def make_optimizer(learning_rate=0.1):
    return Adam([Parameter(np.zeros(1))], learning_rate=learning_rate)


class TestReduceOnLossIncrease:
    def test_no_decay_while_improving(self):
        optimizer = make_optimizer(0.1)
        schedule = ReduceOnLossIncrease(optimizer)
        for loss in [1.0, 0.9, 0.8, 0.7]:
            schedule.step(loss)
        assert optimizer.learning_rate == 0.1

    def test_decays_on_increase(self):
        optimizer = make_optimizer(0.1)
        schedule = ReduceOnLossIncrease(optimizer)
        schedule.step(1.0)
        schedule.step(2.0)  # increase -> decay
        assert optimizer.learning_rate == pytest.approx(0.05)
        schedule.step(2.0)  # no new best -> decay again
        assert optimizer.learning_rate == pytest.approx(0.025)

    def test_floor(self):
        optimizer = make_optimizer(1e-5)
        schedule = ReduceOnLossIncrease(optimizer)
        schedule.step(1.0)
        for _ in range(6):
            schedule.step(2.0)
        # Decays stop exactly at the floor.
        assert optimizer.learning_rate == MIN_LEARNING_RATE == 1e-6

    def test_rate_below_the_floor_is_never_raised(self):
        optimizer = make_optimizer(1e-7)
        schedule = ReduceOnLossIncrease(optimizer)
        schedule.step(1.0)
        for _ in range(3):
            schedule.step(2.0)  # every step is an increase -> a decay
        assert optimizer.learning_rate == 1e-7

    @pytest.mark.parametrize(
        "keyword", [{"factor": 0.1}, {"patience": 2}, {"min_learning_rate": 1e-3}]
    )
    def test_factor_patience_and_floor_are_not_knobs(self, keyword):
        with pytest.raises(TypeError):
            ReduceOnLossIncrease(make_optimizer(), **keyword)
