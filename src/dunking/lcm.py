"""Lumped capacitance model and time-scale diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class LumpedModel:
    """Single-exponential cooling model u(t) = exp(-B*gamma*t).

    The optional dimensional inputs allow evaluating the dimensional
    temperature ratio (T(t) - T_inf)/(T_i - T_inf) = exp(-t/tau_dim) with
    tau_dim = (volume/surface_area) * rho_c_avg / h_avg.
    """
    B: float
    gamma: float
    volume: float | None = None
    surface_area: float | None = None
    rho_c_avg: float | None = None
    h_avg: float | None = None
    T_inf: float | None = None
    T_init: float | None = None

    def __post_init__(self):
        if not 0 <= self.B < np.inf:
            raise ValueError("Biot number must be finite and nonnegative")
        if not 0 < self.gamma < np.inf:
            raise ValueError("gamma must be finite and positive")

    @property
    def tau_eq(self) -> float:
        """Nondimensional equilibration time constant 1/(B*gamma)."""
        if self.B == 0.0:
            return np.inf
        return 1.0 / (self.B * self.gamma)

    @property
    def has_dimensional(self) -> bool:
        return None not in (self.volume, self.surface_area,
                            self.rho_c_avg, self.h_avg)

    @property
    def tau_eq_dimensional(self) -> float:
        if not self.has_dimensional:
            raise ValueError("dimensional inputs not supplied")
        return (self.volume / self.surface_area) * self.rho_c_avg / self.h_avg


def lcm_evaluate(model: LumpedModel, t):
    """exp(-B*gamma*t); with dimensional inputs, t is dimensional time and
    the dimensional temperature ratio exp(-t/tau_dim) is returned."""
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("time must be finite")
    if np.any(t < 0):
        raise ValueError("negative time")
    if model.has_dimensional:
        out = np.exp(-t / model.tau_eq_dimensional)
    else:
        out = np.exp(-model.B * model.gamma * t)
    return float(out) if out.ndim == 0 else out


def lcm_temperature(model: LumpedModel, t):
    """Dimensional temperature T_inf + (T_init - T_inf)*ratio."""
    if model.T_inf is None or model.T_init is None:
        raise ValueError("temperature endpoints not supplied")
    return model.T_inf + (model.T_init - model.T_inf) * lcm_evaluate(model, t)


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
    for name, v in (("r1", r1), ("r2", r2), ("Re", Re), ("Pr", Pr)):
        if not 0 < v < np.inf:
            raise ValueError(f"{name} must be finite and positive")
    tau_conv = r1 / (r2 * Re * Pr)
    tau_eq = LumpedModel(B, gamma).tau_eq
    return TimeScaleReport(tau_conv=tau_conv, tau_eq_L=tau_eq,
                           ratio=tau_eq / tau_conv)
