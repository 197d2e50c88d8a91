"""Banded mutual-coupling model and the off-diagonal leakage metric.

Coupling between two sensors depends only on their separation q (in
half-wavelength units): c_0 = 1, |c_q| proportional to 1/q with a linearly
retarded phase, and c_q = 0 beyond a band limit.  The leakage number
compresses the whole matrix into one scalar for cross-array comparison.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import SensorArray
from .inputs import integer_field, json_object, lookup, real_field


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
