"""Empirical Nusselt correlations, shape length scales, property tables."""
import csv
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from dunking import correlations as corr


# ------------------------------------------------------------ evaluation

def test_sphere_correlation_still_air_limit():
    rm = corr.get_correlation("ranz_marshall")
    nu, ok = corr.eval_correlation(rm, 0.0, 0.71)
    assert nu == 2.0
    assert ok


def test_sphere_correlation_forced_value():
    rm = corr.get_correlation("ranz_marshall")
    nu, ok = corr.eval_correlation(rm, 100.0, 0.71)
    assert ok
    assert abs(nu - 7.352672842673808) < 1e-12


def test_flat_plate_laminar_value():
    fpl = corr.get_correlation("flat_plate_laminar")
    nu, ok = corr.eval_correlation(fpl, 1.0e4, 0.71)
    assert ok
    assert abs(nu - 59.23624612559015) < 1e-10


def test_flat_plate_branches_continuous_at_transition():
    # the turbulent branch is anchored so both branches agree at Re_tr
    for re_tr in (5.0e5, 2.0e5, 1.0e6):
        fpl = corr.get_correlation("flat_plate_laminar")
        fpt = corr.get_correlation("flat_plate_turbulent", Re_tr=re_tr)
        for pr in (0.71, 6.66, 100.0):
            lo = fpl.evaluator(re_tr, pr)
            hi = fpt.evaluator(re_tr, pr)
            assert abs(hi - lo) < 1e-9 * lo


def test_cylinder_correlation_range_is_open():
    cb = corr.get_correlation("churchill_bernstein")
    # Pr = 0.7 sits exactly on the open lower limit
    assert not cb.in_range(100.0, 0.7)
    nu, ok = corr.eval_correlation(cb, 100.0, 0.7)
    assert not ok and nu > 0
    with pytest.raises(ValueError):
        corr.eval_correlation(cb, 100.0, 0.7, strict=True)
    # upper Re limit is open as well
    assert not cb.in_range(1.0e7, 0.71)
    assert cb.in_range(1.0e7 - 1.0, 0.71)


def test_invalid_arguments_always_raise():
    rm = corr.get_correlation("ranz_marshall")
    with pytest.raises(ValueError):
        corr.eval_correlation(rm, -1.0, 0.71)
    with pytest.raises(ValueError):
        corr.eval_correlation(rm, 10.0, 0.0)
    with pytest.raises(ValueError):
        corr.eval_correlation(rm, 10.0, -2.0)


def test_out_of_range_flag_without_strict():
    rm = corr.get_correlation("ranz_marshall")
    nu, ok = corr.eval_correlation(rm, 2.0e4, 0.71)   # above Re range
    assert not ok
    assert np.isfinite(nu)


def test_unknown_correlation_name():
    with pytest.raises(ValueError):
        corr.get_correlation("dittus_boelter")


def test_transition_reynolds_must_be_positive():
    with pytest.raises(ValueError):
        corr.get_correlation("flat_plate_turbulent", Re_tr=0.0)
    for name in corr.CORRELATION_NAMES:
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="Re_tr must be finite"):
                corr.get_correlation(name, Re_tr=bad)


# ------------------------------------------------------------ length scales

def test_sphere_length_scales():
    D = 3.0
    s = corr.Shape.sphere(D)
    assert abs(corr.length_scale(s, "diameter") - D) < 1e-14
    assert abs(corr.length_scale(s, "equivalent_sphere") - D) < 1e-12
    assert abs(corr.length_scale(s, "sqrt_area") - D * math.sqrt(math.pi)) < 1e-12
    assert abs(corr.length_scale(s, "volume_over_surface") - D / 6.0) < 1e-14


def test_length_scale_requires_data():
    cloud = corr.Shape("cloud", diameter=1.0)
    assert abs(corr.length_scale(cloud, "diameter") - 1.0) < 1e-14
    with pytest.raises(ValueError):
        corr.length_scale(cloud, "equivalent_sphere")
    with pytest.raises(ValueError):
        corr.length_scale(cloud, "volume_over_surface")
    with pytest.raises(ValueError):
        corr.length_scale(cloud, "no_such_kind")


def _spheroid_area_quadrature(a, b):
    # revolve x = a cos t, r = b sin t about the symmetry axis
    def ds(t):
        return b * np.sin(t) * np.hypot(a * np.sin(t), b * np.cos(t))
    val, _ = quad(ds, 0.0, math.pi, epsabs=1e-13, epsrel=1e-13)
    return 2.0 * math.pi * val


@pytest.mark.parametrize("a,b", [(2.0, 1.0), (0.5, 1.0), (1.0, 1.0),
                                 (7.0, 0.3), (0.05, 2.0)])
def test_spheroid_area_matches_quadrature(a, b):
    s = corr.Shape.spheroid(a, b)
    assert abs(s.surface_area - _spheroid_area_quadrature(a, b)) \
        < 1e-10 * s.surface_area
    assert abs(s.volume - 4.0 / 3.0 * math.pi * a * b * b) < 1e-14 * s.volume


def test_cuboid_and_cylinder_shapes():
    c = corr.Shape.cuboid(1.0, 2.0, 3.0)
    assert c.volume == 6.0
    assert c.surface_area == 22.0
    assert abs(c.diameter - math.sqrt(14.0)) < 1e-14
    cyl = corr.Shape.cylinder(1.0, 4.0)
    assert abs(cyl.volume - math.pi) < 1e-14
    with pytest.raises(ValueError):
        corr.Shape.sphere(-1.0)
    with pytest.raises(ValueError):
        corr.Shape.spheroid(1.0, 0.0)


# ------------------------------------------------------------ rescaling

def test_transform_correlation_consistency():
    rm = corr.get_correlation("ranz_marshall")
    q = 3.0
    re2, pr = 50.0, 0.71
    nu2, ok = corr.transform_correlation(rm, q, re2, pr)
    nu1, _ = corr.eval_correlation(rm, q * re2, pr)
    assert ok
    assert abs(nu2 * q - nu1) < 1e-12
    # q = 1 is the identity
    nu_id, _ = corr.transform_correlation(rm, 1.0, re2, pr)
    assert nu_id == nu1 or abs(nu_id - corr.eval_correlation(rm, re2, pr)[0]) < 1e-14


def test_transform_checks_range_at_native_argument():
    rm = corr.get_correlation("ranz_marshall")          # valid to Re = 1e4
    _, ok = corr.transform_correlation(rm, 10.0, 5.0e3, 0.71)
    assert not ok                                        # native Re = 5e4


def test_biot_from_nusselt():
    assert corr.biot_from_nusselt(0.05, 2.0) == 0.1
    with pytest.raises(ValueError):
        corr.biot_from_nusselt(0.0, 2.0)
    with pytest.raises(ValueError):
        corr.biot_from_nusselt(0.05, -1.0)
    for r2, nu in ((float("nan"), 2.0), (math.inf, 2.0), (0.05, float("nan"))):
        with pytest.raises(ValueError, match="finite"):
            corr.biot_from_nusselt(r2, nu)


# ------------------------------------------------------------ tables

def test_material_table_loads():
    mats = corr.load_materials()
    assert mats["air"]["kind"] == "fluid"
    assert mats["air"]["Pr"] == 0.71
    assert mats["aluminum"]["kind"] == "solid"
    assert mats["aluminum"]["nu"] is None


def _published_ratios(name):
    """A published ratio table, keyed by fluid, then by solid."""
    with open(Path(__file__).parent / "data" / name, newline="") as fh:
        return {row.pop("fluid"): {k: float(v) for k, v in row.items()}
                for row in csv.DictReader(fh)}


def test_ratio_tables_match_material_properties():
    # r1 = (rho c)_f/(rho c)_s and r2 = k_f/k_s as published
    r1t, r2t = _published_ratios("r1_table.csv"), _published_ratios("r2_table.csv")
    mats = corr.load_materials()
    solids = [m for m, rec in mats.items() if rec["kind"] == "solid"]
    fluids = [m for m, rec in mats.items() if rec["kind"] == "fluid"]
    for f in fluids:
        for s in solids:
            r1, r2 = corr.property_ratios(s, f)
            # table entries are rounded to six decimal places
            assert abs(r1t[f][s] - r1) < max(1e-2 * r1, 1e-6)
            assert abs(r2t[f][s] - r2) < max(1e-2 * r2, 1e-6)


def test_property_ratio_role_check():
    with pytest.raises(ValueError):
        corr.property_ratios("air", "water")   # air is not a solid
    with pytest.raises(ValueError):
        corr.property_ratios("aluminum", "stainless_steel")


try:
    from hypothesis import given, strategies as st

    @given(st.floats(min_value=0.0, max_value=9.0e3),
           st.floats(min_value=1.0, max_value=9.0e3))
    def test_sphere_correlation_monotone_in_re(re, dre):
        rm = corr.get_correlation("ranz_marshall")
        lo, _ = corr.eval_correlation(rm, re, 0.71)
        hi, _ = corr.eval_correlation(rm, re + dre, 0.71)
        assert hi >= lo

    @given(st.floats(min_value=1.0, max_value=9.9e6),
           st.floats(min_value=0.701, max_value=400.0))
    def test_cylinder_correlation_positive_in_range(re, pr):
        cb = corr.get_correlation("churchill_bernstein")
        nu, ok = corr.eval_correlation(cb, re, pr)
        assert ok
        assert nu > 0.3
except ImportError:      # pragma: no cover - property tests are optional
    pass
