"""Tests for the uniform time grid."""
import math

import pytest

from fracwiener.grids import TimeGrid


class TestTimeGrid:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(t0=math.inf, dt=0.1, n_steps=4),
            dict(t0=0.0, dt=0.0, n_steps=4),
            dict(t0=0.0, dt=math.inf, n_steps=4),
            dict(t0=0.0, dt=0.1, n_steps=0),
            dict(t0=0.0, dt=0.1, n_steps=2.5),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TimeGrid(**kwargs)
