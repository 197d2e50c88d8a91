"""Banded mutual-coupling model and the off-diagonal leakage metric.

Coupling between two sensors depends only on their separation q (in
half-wavelength units): c_0 = 1, |c_q| proportional to 1/q with a linearly
retarded phase, and c_q = 0 beyond a band limit.  The leakage number
compresses the whole matrix into one scalar for cross-array comparison.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

if TYPE_CHECKING:  # geometry takes its input rules from here
    from .geometry import SensorArray


def real_field(value, name: str) -> float:
    """``value`` as a float, or a ValueError naming the field when it is not
    a number (a JSON null, a string, a list) or lies beyond float range."""
    if isinstance(value, str):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number, got {value!r}") from None
    except OverflowError:
        raise ValueError(f"{name} must lie within float range, got {value!r}") from None


def integer_field(value, name: str, minimum: int | None = None) -> int:
    """The one integer rule: ``value`` as an int, or a ValueError naming the
    field when it is not a number, not integral (Python and NumPy bools,
    NaN and +-inf included) or, given ``minimum``, below it.  A plain int
    is taken as it is, however large."""
    if type(value) is not int:
        if isinstance(value, (bool, np.bool_)) or not real_field(value, name).is_integer():
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def json_object(data, what: str, required: tuple[str, ...] = (),
                optional: tuple[str, ...] = ()) -> dict:
    """``data`` after checking that it is a JSON object holding every
    ``required`` field and no field outside ``required`` and ``optional``;
    a ValueError names ``what`` and the offending fields."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(data).__name__}")
    missing = [key for key in required if key not in data]
    if missing:
        raise ValueError(f"{what} is missing fields: {missing}")
    unknown = sorted(set(data) - set(required) - set(optional))
    if unknown:
        raise ValueError(f"unknown {what} fields: {unknown}")
    return data


def read_json(path, what: str):
    """The parsed contents of the JSON file at ``path``; a file that does
    not decode or parse is a ValueError naming ``what`` and the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as err:  # bad syntax, encoding or nesting
            raise ValueError(f"malformed {what} {path}: {err}") from None


def lookup(table: Mapping, name, what: str):
    """``table[name]``, or a ValueError listing the names it knows."""
    try:
        return table[name]
    except (KeyError, TypeError):
        known = ", ".join(sorted(table))
        raise ValueError(f"unknown {what} {name!r} (known: {known})") from None


@dataclass(frozen=True)
class CouplingModel:
    """Separation-indexed coupling coefficients.

    c_q = c1_magnitude * exp(j*(c1_phase - (q-1)*phase_decrement)) / q for
    1 <= q <= band_limit, c_0 = 1, zero beyond the band.  The defaults are
    the reference model used throughout the leakage tables and the coupled
    simulations.
    """

    c1_magnitude: float = 0.3
    c1_phase: float = math.pi / 3
    phase_decrement: float = math.pi / 8
    band_limit: int = 100

    def __post_init__(self) -> None:
        if not 0.0 <= real_field(self.c1_magnitude, "c1_magnitude") < math.inf:
            raise ValueError("c1_magnitude must be finite and nonnegative")
        for name in ("c1_phase", "phase_decrement"):
            if not math.isfinite(real_field(getattr(self, name), name)):
                raise ValueError(f"{name} must be finite")
        object.__setattr__(self, "band_limit", integer_field(self.band_limit, "band_limit", 0))
        if self.c1_magnitude > 1.0:
            warnings.warn(
                "coupling |c1| > 1 breaks the |c_0| >= |c_1| >= ... ordering",
                stacklevel=2,
            )

    def coefficient(self, q: int) -> complex:
        q = abs(integer_field(q, "q"))
        if q == 0:
            return 1.0 + 0.0j
        if q > self.band_limit:
            return 0.0 + 0.0j
        phase = self.c1_phase - (q - 1) * self.phase_decrement
        return self.c1_magnitude * complex(math.cos(phase), math.sin(phase)) / q

    def coefficients(self, max_q: int) -> np.ndarray:
        """Vector [c_0, c_1, ..., c_max_q]."""
        return np.array([self.coefficient(q) for q in range(max_q + 1)])

    def to_dict(self) -> dict:
        return {
            "c1_magnitude": self.c1_magnitude,
            "c1_phase": self.c1_phase,
            "phase_decrement": self.phase_decrement,
            "band_limit": self.band_limit,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CouplingModel":
        known = ("c1_magnitude", "c1_phase", "phase_decrement", "band_limit")
        return cls(**json_object(data, "coupling", optional=known))


#: Reference coefficient set used by the leakage tables and the coupled
#: Monte-Carlo scenarios.
PAPER_V = CouplingModel()

#: No coupling at all (identity matrix for every geometry).
NONE = CouplingModel(c1_magnitude=0.0, band_limit=0)

_PRESETS = {"paper-v": PAPER_V, "none": NONE}


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(_PRESETS))


def get_preset(name: str) -> CouplingModel:
    return lookup(_PRESETS, name, "coupling preset")


def coupling_matrix(array: SensorArray, model: CouplingModel) -> np.ndarray:
    """N x N matrix C with C[u, v] = c_{|m_u - m_v|}.  The coefficient is
    taken once per distinct separation inside the band and every entry past
    it is 0, so the cost grows neither with the aperture nor with the band
    limit."""
    pos = array.as_array()
    sep = np.abs(pos[:, None] - pos[None, :])
    inside = sep <= min(model.band_limit, int(pos[-1] - pos[0]))
    distinct, index = np.unique(sep[inside], return_inverse=True)
    coeff = np.array([model.coefficient(q) for q in distinct.tolist()], dtype=complex)
    c = np.zeros(sep.shape, dtype=complex)
    c[inside] = coeff[index]
    return c


def coupling_leakage(c: np.ndarray) -> float:
    """Off-diagonal energy fraction L = ||C - diag(C)||_F / ||C||_F."""
    c = np.asarray(c)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError("coupling matrix must be square")
    total = np.linalg.norm(c, "fro")
    if total == 0:
        raise ValueError("coupling matrix is identically zero")
    off = c - np.diag(np.diag(c))
    return float(np.linalg.norm(off, "fro") / total)
