"""Exception types shared across the library, and the checks of array and
count arguments at its public boundaries: a malformed argument is a
:class:`StructuralError` that names it, never an error of numpy's."""

import numpy as np


class StructuralError(ValueError):
    """Malformed input object: overlapping intervals, mismatched shapes, bad schema."""


class DegenerateSetError(ValueError):
    """An operation required a set of positive Lebesgue measure."""


class UnsupportedFamilyError(ValueError):
    """The section family does not support the requested construction."""


class InvalidPriceError(ValueError):
    """Price vector is zero or has negative components."""


class ConfigError(ValueError):
    """Bad CLI / JSON configuration (unknown keys, missing fields, bad values)."""


def _array(value, name: str, *shapes: tuple, sign: str | None = "non-negative") -> np.ndarray:
    """``value`` as a float array of one of ``shapes`` (per axis its exact
    length, or None for any positive length), finite, and >= 0
    (``sign="non-negative"``), > 0 (``"positive"``) or of any sign (None).
    Anything else is a StructuralError naming the argument ``name``."""
    try:
        a = np.asarray(value, dtype=float)
    except (TypeError, ValueError):  # ragged rows, non-numeric strings, ...
        raise StructuralError(f"{name} must be an array of numbers") from None
    if a.shape not in shapes and not any(
        a.ndim == len(s) and all(n > 0 if m is None else n == m for n, m in zip(a.shape, s))
        for s in shapes
    ):
        want = " or ".join(str(s).replace("None", "*") for s in shapes)
        raise StructuralError(f"{name} must be {want}, not {a.shape}")
    if a.size:  # NaN fails every comparison
        lo, hi = a.min(), a.max()
        if not (hi < np.inf and (lo > 0 if sign == "positive" else lo >= 0 if sign else lo > -np.inf)):
            raise StructuralError(f"{name} must be finite" + (f" and {sign}" if sign else ""))
    return a


def _count(value, name: str, low: int = 1, high: int | None = None) -> int:
    """``value`` as an int from ``low`` to ``high`` (no bound when None);
    booleans, floats and strings are a StructuralError naming ``name``."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, np.integer))
        or value < low
        or (high is not None and value > high)
    ):
        span = f"from {low} to {high}" if high is not None else f"of at least {low}"
        raise StructuralError(f"{name} must be an integer {span} (got {value!r})")
    return int(value)
