import math

import numpy as np
import pytest

from dunking import lcm


def test_time_constant_worked_values():
    model = lcm.LumpedModel(B=0.0678, gamma=4.0)
    assert abs(model.tau_eq - 3.688) < 1e-3


def test_time_scale_ratio_worked_values():
    ts = lcm.time_scales(r1=1.0, r2=0.8220, Re=143.0, Pr=0.71,
                         B=0.0678, gamma=4.0)
    assert abs(ts.ratio - 307.0) < 1.0
    assert abs(ts.tau_conv - 1.0 / (0.8220 * 143.0 * 0.71)) < 1e-15
    assert ts.tau_diff == 1.0
    assert abs(ts.tau_eq_L * ts.tau_conv ** -1 - ts.ratio) < 1e-9


def test_zero_biot_never_cools():
    model = lcm.LumpedModel(B=0.0, gamma=2.0)
    assert model.tau_eq == math.inf
    t = np.linspace(0.0, 5.0, 11)
    assert np.all(lcm.lcm_evaluate(model, t) == 1.0)


def test_evaluate_is_exponential():
    model = lcm.LumpedModel(B=0.05, gamma=2.0)
    t = np.linspace(0.0, 30.0, 7)
    u = lcm.lcm_evaluate(model, t)
    assert np.allclose(u, np.exp(-0.1 * t), rtol=1e-15)
    assert lcm.lcm_evaluate(model, 0.0) == 1.0
    assert np.all(np.diff(u) < 0)


def test_validation():
    with pytest.raises(ValueError):
        lcm.LumpedModel(B=-0.1, gamma=2.0)
    with pytest.raises(ValueError):
        lcm.LumpedModel(B=0.1, gamma=0.0)
    with pytest.raises(ValueError):
        lcm.time_scales(r1=0.0, r2=1.0, Re=10.0, Pr=0.7, B=0.1, gamma=2.0)
    good = dict(r1=1.0, r2=1.0, Re=10.0, Pr=0.7, B=0.1, gamma=2.0)
    for name in good:
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="must be finite"):
                lcm.time_scales(**{**good, name: bad})
    with pytest.raises(ValueError):
        lcm.lcm_evaluate(lcm.LumpedModel(B=0.1, gamma=2.0), -1.0)
