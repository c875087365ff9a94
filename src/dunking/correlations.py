"""Empirical Nusselt correlations, shape length scales, and transforms.

Registry of four standard forced-convection correlations with their validity
ranges, the four length-scale functions over simple convex bodies, a
correlation's evaluation in another length scale, and the Biot-from-Nusselt
conversion  B = r2 * Nu.  Property ratios for common solid/fluid pairs are
computed from bundled material data.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from importlib import resources

import numpy as np

LENGTH_SCALE_KINDS = ("diameter", "equivalent_sphere", "sqrt_area",
                      "volume_over_surface")

CORRELATION_NAMES = ("flat_plate_laminar", "flat_plate_turbulent",
                     "churchill_bernstein", "ranz_marshall")

RE_TRANSITION_DEFAULT = 5.0e5


# ------------------------------------------------------------- shapes

@dataclasses.dataclass
class Shape:
    """Convex body exposing volume / surface area / diameter as available.

    Analytic constructors fill all three; a body built directly may leave
    any of them None, and `length_scale` rejects the kinds that need one.
    """
    kind: str
    volume: float | None = None
    surface_area: float | None = None
    diameter: float | None = None

    @staticmethod
    def sphere(D: float) -> "Shape":
        _check_dimensions(D=D)
        return Shape("sphere", volume=math.pi * D**3 / 6.0,
                     surface_area=math.pi * D**2, diameter=D)

    @staticmethod
    def spheroid(a: float, b: float) -> "Shape":
        """Semi-axes (a, b, b): one distinguished axis a, two equal axes b."""
        _check_dimensions(a=a, b=b)
        vol = 4.0 / 3.0 * math.pi * a * b * b
        if abs(a - b) < 1e-14 * max(a, b):
            area = 4.0 * math.pi * b * b
        elif a > b:  # prolate: revolve about the long axis
            e = math.sqrt(1.0 - (b / a) ** 2)
            area = 2.0 * math.pi * b * b * (1.0 + (a / (b * e)) * math.asin(e))
        else:        # oblate
            e = math.sqrt(1.0 - (a / b) ** 2)
            area = 2.0 * math.pi * b * b * (1.0 + (1.0 - e * e) / e * math.atanh(e))
        return Shape("spheroid", volume=vol, surface_area=area,
                     diameter=2.0 * max(a, b))

    @staticmethod
    def cuboid(lx: float, ly: float, lz: float) -> "Shape":
        _check_dimensions(lx=lx, ly=ly, lz=lz)
        return Shape("cuboid", volume=lx * ly * lz,
                     surface_area=2.0 * (lx * ly + ly * lz + lz * lx),
                     diameter=math.sqrt(lx * lx + ly * ly + lz * lz))

    @staticmethod
    def cylinder(D: float, L: float) -> "Shape":
        _check_dimensions(D=D, L=L)
        return Shape("cylinder", volume=math.pi * D * D * L / 4.0,
                     surface_area=math.pi * D * L + math.pi * D * D / 2.0,
                     diameter=math.sqrt(D * D + L * L))


def _check_dimensions(**dims: float) -> None:
    for name, value in dims.items():
        if not 0 < value < math.inf:  # NaN fails too
            raise ValueError(f"{name} must be finite and positive")


def length_scale(shape: Shape, kind: str) -> float:
    if kind not in LENGTH_SCALE_KINDS:
        raise ValueError(f"unknown length scale kind {kind!r}")
    if kind == "diameter":
        if shape.diameter is None:
            raise ValueError("shape does not expose a diameter")
        return float(shape.diameter)
    if kind == "equivalent_sphere":
        if shape.volume is None:
            raise ValueError("shape does not expose a volume")
        return float((6.0 * shape.volume / math.pi) ** (1.0 / 3.0))
    if kind == "sqrt_area":
        if shape.surface_area is None:
            raise ValueError("shape does not expose a surface area")
        return float(math.sqrt(shape.surface_area))
    if shape.volume is None or shape.surface_area is None:
        raise ValueError("shape does not expose volume and surface area")
    return float(shape.volume / shape.surface_area)


# -------------------------------------------------------- correlations

@dataclasses.dataclass(frozen=True)
class Correlation:
    name: str
    evaluator: object                    # (Re, Pr) -> Nu
    re_range: tuple                      # (lo, hi), inclusive unless noted
    pr_range: tuple
    reference_length: str                # named convention for Re and Nu
    re_open_upper: bool = False          # strict '<' on the Re upper limit
    pr_open: bool = False                # strict '<' on both Pr limits

    def in_range(self, Re: float, Pr: float) -> bool:
        lo, hi = self.re_range
        ok = Re >= lo and (Re < hi if self.re_open_upper else Re <= hi)
        plo, phi = self.pr_range
        if self.pr_open:
            ok = ok and (plo < Pr < phi)
        else:
            ok = ok and (plo <= Pr <= phi)
        return bool(ok)


def _flat_plate_laminar(Re, Pr):
    return 0.664 * np.sqrt(Re) * Pr ** (1.0 / 3.0)


def _churchill_bernstein(Re, Pr):
    lam = 0.62 * np.sqrt(Re) * Pr ** (1.0 / 3.0)
    lam = lam / (1.0 + (0.4 / Pr) ** (2.0 / 3.0)) ** 0.25
    return 0.3 + lam * (1.0 + (Re / 282000.0) ** 0.625) ** 0.8


def _ranz_marshall(Re, Pr):
    return 2.0 + 0.6 * np.sqrt(Re) * Pr ** (1.0 / 3.0)


def get_correlation(name: str, Re_tr: float = RE_TRANSITION_DEFAULT) -> Correlation:
    """Look up a correlation by name.

    Re_tr (transitional Reynolds number) only affects flat_plate_turbulent;
    it is configurable because only its order of magnitude is standard.
    """
    if not 0 < Re_tr < math.inf:
        raise ValueError("Re_tr must be finite and positive")
    if name == "flat_plate_laminar":
        return Correlation(name, _flat_plate_laminar, (0.0, 1.0e5),
                           (0.6, math.inf), "plate_length")
    if name == "flat_plate_turbulent":
        base = 0.664 * math.sqrt(Re_tr)

        def turb(Re, Pr, _b=base, _rt=Re_tr):
            return (_b * Pr ** (1.0 / 3.0)
                    + 0.037 * (Re ** 0.8 - _rt ** 0.8) * Pr ** 0.6)

        return Correlation(name, turb, (Re_tr, math.inf), (0.6, math.inf),
                           "plate_length")
    if name == "churchill_bernstein":
        return Correlation(name, _churchill_bernstein, (0.0, 1.0e7),
                           (0.7, 500.0), "diameter",
                           re_open_upper=True, pr_open=True)
    if name == "ranz_marshall":
        return Correlation(name, _ranz_marshall, (0.0, 1.0e4),
                           (0.0, math.inf), "diameter")
    raise ValueError(f"unknown correlation {name!r}; "
                     f"known: {', '.join(CORRELATION_NAMES)}")


def eval_correlation(corr: Correlation, Re, Pr, strict: bool = False):
    """Evaluate Nu(Re, Pr); returns (Nu, in_range_flag).

    strict mode raises instead of flagging when (Re, Pr) falls outside the
    correlation's stated validity range.
    """
    Re = float(Re)
    Pr = float(Pr)
    if not 0 <= Re < np.inf:
        raise ValueError("Re must be finite and nonnegative")
    if not 0 < Pr < np.inf:
        raise ValueError("Pr must be finite and positive")
    ok = corr.in_range(Re, Pr)
    if strict and not ok:
        raise ValueError(
            f"({Re:g}, {Pr:g}) outside validity range of {corr.name}: "
            f"Re in {corr.re_range}, Pr in {corr.pr_range}")
    return float(corr.evaluator(Re, Pr)), ok


def transform_correlation(corr: Correlation, q: float, Re_in_D2, Pr,
                          strict: bool = False):
    """Evaluate corr expressed in length scale D2 = D1/q.

    Nu[D2] = q^{-1} * corr(q * Re[D2], Pr); validity is checked at the
    correlation's native argument q*Re.  Returns (Nu, in_range_flag).
    """
    if not 0 < q < math.inf:
        raise ValueError("q (length scale ratio) must be finite and positive")
    nu1, ok = eval_correlation(corr, q * float(Re_in_D2), Pr, strict=strict)
    return nu1 / q, ok


def biot_from_nusselt(r2: float, Nu: float) -> float:
    """B = r2 * Nu (conductivity ratio times Nusselt number)."""
    if not 0 < r2 < math.inf:
        raise ValueError("conductivity ratio r2 must be finite and positive")
    if not 0 <= Nu < math.inf:
        raise ValueError("Nu must be finite and nonnegative")
    return r2 * Nu


# ------------------------------------------------------ bundled tables

def load_materials() -> dict:
    """Thermophysical properties keyed by material name.

    Values: dict with kind ('solid'|'fluid'), rho, cp, k, and for fluids
    nu and Pr (None where not applicable).
    """
    ref = resources.files("dunking.data").joinpath("materials.csv")
    with ref.open("r", newline="") as fh:
        rows = list(csv.DictReader(fh))
    out = {}
    for row in rows:
        rec = {"kind": row["kind"], "rho": float(row["rho"]),
               "cp": float(row["cp"]), "k": float(row["k"]),
               "nu": float(row["nu"]) if row["nu"] else None,
               "Pr": float(row["Pr"]) if row["Pr"] else None}
        out[row["material"]] = rec
    return out


def property_ratios(solid: str, fluid: str) -> tuple:
    """(r1, r2) computed from the bundled material properties."""
    mats = load_materials()
    if solid not in mats or mats[solid]["kind"] != "solid":
        raise ValueError(f"unknown solid {solid!r}")
    if fluid not in mats or mats[fluid]["kind"] != "fluid":
        raise ValueError(f"unknown fluid {fluid!r}")
    s, f = mats[solid], mats[fluid]
    r1 = (f["rho"] * f["cp"]) / (s["rho"] * s["cp"])
    r2 = f["k"] / s["k"]
    return r1, r2
