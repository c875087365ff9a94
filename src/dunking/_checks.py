"""The one check of the numbers a public function takes.  Private, since
perfbench's tracer spans every public function of a `dunking` module."""

from __future__ import annotations

import math
import numbers

import numpy as np

# domain -> (test of a number, test of an array); each is False for NaN
_DOMAINS = {
    "finite": (lambda v: -math.inf < v < math.inf, np.isfinite),
    "positive": (lambda v: 0 < v < math.inf, lambda a: (a > 0) & (a < math.inf)),
    "nonnegative": (lambda v: 0 <= v < math.inf, lambda a: (a >= 0) & (a < math.inf)),
    "a positive integer": (lambda v: isinstance(v, numbers.Integral) and v >= 1, None),
}


def _require(domain: str, /, *, most: float = math.inf, at: tuple | None = None,
             **values) -> None:
    """Refuse the first of `values` (name=value) that is not finite, in
    `domain` and at most `most`: "<name> must be finite and <domain>, got
    <value>".  A number is compared as it is; an array (or list or tuple)
    is checked in one vectorized pass, and its first bad entry is named by
    index, or by the coordinate it was taken at, with at = (label, xs).
    """
    scalar, array = _DOMAINS[domain]
    for name, value in values.items():
        where = ""
        if isinstance(value, (np.ndarray, list, tuple)):
            a = np.asarray(value, dtype=float)
            ok = array(a)
            if most < math.inf:
                ok &= a <= most
            if ok.all():
                continue
            i = int(np.argmin(ok))  # the first False
            value = a.flat[i]
            if at is not None:
                where = f" at {at[0]} = {at[1][i]:.17g}"
            elif a.ndim:
                index = tuple(map(int, np.unravel_index(i, a.shape)))
                where = f" at index {index if a.ndim > 1 else i}"
        elif scalar(value) and value <= most:
            continue
        words = "finite" if domain == "finite" else f"finite and {domain}"
        if most < math.inf:
            words += f" and at most {most:.6g}"
        raise ValueError(f"{name} must be {words}, got {value}{where}")
