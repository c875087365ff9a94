"""Lumped capacitance model and time-scale diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import _require


@dataclass
class LumpedModel:
    """Nondimensional single-exponential cooling model u(t) = exp(-B*gamma*t).

    B is the Biot number and gamma the surface-to-volume ratio of the body;
    time is in units of the solid's diffusion time.
    """
    B: float
    gamma: float

    def __post_init__(self):
        _require("nonnegative", B=self.B)
        _require("positive", gamma=self.gamma)

    @property
    def tau_eq(self) -> float:
        """Nondimensional equilibration time constant 1/(B*gamma)."""
        if self.B == 0.0:
            return np.inf
        return 1.0 / (self.B * self.gamma)


def lcm_evaluate(model: LumpedModel, t):
    """u(t) = exp(-B*gamma*t) at nondimensional times t >= 0; a float for a
    scalar t, else an array of t's shape."""
    t = np.asarray(t, dtype=float)
    _require("nonnegative", t=t)
    out = np.exp(-model.B * model.gamma * t)
    return float(out) if out.ndim == 0 else out


@dataclass
class TimeScaleReport:
    tau_conv: float      # fluid convective scale r1/(r2 Re Pr)
    tau_eq_L: float      # lumped equilibration scale 1/(B gamma)
    ratio: float         # tau_eq_L / tau_conv
    tau_diff: float = 1.0


def time_scales(r1: float, r2: float, Re: float, Pr: float,
                B: float, gamma: float) -> TimeScaleReport:
    """Separation between the solid equilibration and fluid convection scales.

    ratio = (r2/r1)*Re*Pr/(B*gamma); a large value indicates the fluid
    reaches its (quasi-)steady state long before the solid cools.
    """
    _require("positive", r1=r1, r2=r2, Re=Re, Pr=Pr)
    tau_conv = r1 / (r2 * Re * Pr)
    tau_eq = LumpedModel(B, gamma).tau_eq
    return TimeScaleReport(tau_conv=tau_conv, tau_eq_L=tau_eq,
                           ratio=tau_eq / tau_conv)
