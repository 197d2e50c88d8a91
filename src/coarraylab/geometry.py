"""Sparse linear array geometries on the integer half-wavelength grid.

All sensor locations are integer multiples of d = lambda/2, so co-array
arithmetic downstream is exact integer set work.  The augmented-ULA family
(AULAs and its shifted / transformed / compressed variants) is generated from
closed-form location sets parameterized only by the sensor count N; classic
ULA and two-level nested geometries are provided for comparison, and arbitrary
user-supplied geometries round-trip through a small JSON descriptor.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, NamedTuple

import numpy as np

from .inputs import integer_field, json_object, lookup, read_json

POSITION_UNIT = "half-wavelength"

#: Every sensor position p has |p| < POSITION_LIMIT, so every pair sum and
#: difference (|m_u +/- m_v| < 2**63) fits in int64.
POSITION_LIMIT = 2**62

#: The largest sensor count (for a nested array, per stage) that any
#: builder, ``design`` or ``sensor_counts`` takes.  The generated families
#: stay inside coarray.MAX_SPAN up to it.
MAX_SENSORS = 1024


class DesignError(ValueError):
    """Invalid design parameters or malformed geometry input."""


class _as_design_error:
    """Raise the ValueError of a shared input rule as a DesignError."""

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, err, traceback) -> None:
        if kind is not None and issubclass(kind, ValueError):
            raise DesignError(str(err)) from None


def _sensor_count(n, name: str) -> int:
    """``n`` as an int of at most MAX_SENSORS, or a DesignError naming the
    parameter when it is not an integer (bools included) or too large."""
    with _as_design_error():
        n = integer_field(n, name)
    if n > MAX_SENSORS:
        raise DesignError(f"{name} must be at most {MAX_SENSORS} sensors, got {n}")
    return n


@dataclass(frozen=True)
class SensorArray:
    """A physical linear array: named, with sorted integer positions."""

    name: str
    positions: tuple[int, ...]
    unit: str = POSITION_UNIT

    def __post_init__(self) -> None:
        pos = _integer_positions(self.positions)
        if not all(map(operator.lt, pos, pos[1:])):
            raise DesignError("sensor positions must be distinct and increasing")
        object.__setattr__(self, "positions", pos)
        if self.unit != POSITION_UNIT:
            raise DesignError(f"unsupported position unit {self.unit!r}")

    @property
    def n(self) -> int:
        return len(self.positions)

    @property
    def aperture(self) -> int:
        return self.positions[-1] - self.positions[0]

    @property
    def spacings(self) -> tuple[int, ...]:
        """Consecutive inter-sensor gaps, length n - 1."""
        return tuple(b - a for a, b in zip(self.positions, self.positions[1:]))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.positions, dtype=np.int64)

    def translated(self, shift: int, name: str | None = None) -> "SensorArray":
        """Rigidly translate every sensor by ``shift`` grid units."""
        with _as_design_error():
            shift = integer_field(shift, "shift")
        return SensorArray(
            name=name if name is not None else f"{self.name}+{shift}",
            positions=tuple(p + shift for p in self.positions),
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "unit": self.unit,
            "positions": list(self.positions),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SensorArray":
        with _as_design_error():
            fields = json_object(data, "array descriptor", ("name", "positions"), ("unit",))
        return from_positions(**fields)


class Family(NamedTuple):
    """One generated augmented-ULA family.

    With the sparse spacing m = 2*ceil(n/4), the family puts
    n1 = n - m + n1_offset sensors on the coarse grid and sizes its second
    dense tail as n3 = m/2 - n3_offset; ``layout`` gives the increasing
    sensor positions from those ``AulasParams``.
    """

    display_name: str
    min_n: int
    n1_offset: int
    n3_offset: int
    layout: Callable[["AulasParams"], np.ndarray]


@dataclass(frozen=True)
class AulasParams:
    """Sub-array bookkeeping for the augmented-ULA family.

    m is the sparse spacing 2*ceil(n/4); n1 sensors sit on the coarse grid and
    n2 / n3 form the dense tail(s).  Each family fixes (n1, n3) its own way
    in FAMILIES; ``for_family`` reads it from there.
    """

    n: int
    m: int
    n1: int
    n2: int
    n3: int

    @classmethod
    def for_family(cls, family: str, n: int) -> "AulasParams":
        with _as_design_error():
            spec = lookup(FAMILIES, family, "augmented-ULA family")
        n = _sensor_count(n, "n")
        if n < spec.min_n:
            raise DesignError(f"{spec.display_name} needs n >= {spec.min_n}, got {n}")
        m = 2 * math.ceil(n / 4)
        return cls(n=n, m=m, n1=n - m + spec.n1_offset, n2=m // 2 - 1,
                   n3=m // 2 - spec.n3_offset)


def family_array(family: str, p: AulasParams) -> SensorArray:
    """The array of a generated family laid out from its AulasParams ``p``;
    ``design`` sizes it first, a caller that holds the params does not."""
    spec = FAMILIES[family]
    return SensorArray(spec.display_name, tuple(spec.layout(p).tolist()))


def _augmented(p: AulasParams) -> np.ndarray:
    """The augmented ULA's positions: a coarse n1-element grid of pitch m,
    then the dense run from n1*m - m/2 to n1*m + m/2 - 1 without n1*m."""
    n1m, half = p.n1 * p.m, p.m // 2
    return np.concatenate((np.arange(0, n1m, p.m), np.arange(n1m - half, n1m),
                           np.arange(n1m + 1, n1m + half)))


def _transformed_shifted(p: AulasParams) -> np.ndarray:
    """The transformed-shifted array's positions: the mirrored sensor, the
    coarse grid from m/2 at pitch m and two tails at pitch 2."""
    n1m, half = p.n1 * p.m, p.m // 2
    return np.concatenate(([-n1m - half + 1], np.arange(half, n1m, p.m),
                           np.arange(n1m - half + 2, n1m + half - 1, 2),
                           np.arange(n1m + half + 1, n1m + 3 * half - 2, 2)))


def design_aulas(n: int) -> SensorArray:
    """Augmented ULA: a coarse n1-element grid of pitch m plus two dense
    tails straddling the last coarse sensor."""
    return family_array("aulas", AulasParams.for_family("aulas", n))


def design_saulas(n: int) -> SensorArray:
    """Shifted variant: the same structure as design_aulas moved up by m/2,
    which relocates the sum co-array without touching the difference set."""
    return family_array("saulas", AulasParams.for_family("saulas", n))


def design_tsaulas(n: int) -> SensorArray:
    """Transformed-shifted variant: dense tails opened up to pitch 2 and a
    single mirrored sensor far on the negative axis."""
    return family_array("tsaulas", AulasParams.for_family("tsaulas", n))


def design_cotsaulas(n: int) -> SensorArray:
    """Compressed variant of design_tsaulas: one fewer coarse sensor and one
    extra tail sensor, trading a shorter span for a hole-free co-array."""
    return family_array("cotsaulas", AulasParams.for_family("cotsaulas", n))


def design_ula(n: int) -> SensorArray:
    n = _sensor_count(n, "n")
    if n < _MIN_N["ula"]:
        raise DesignError(f"ULA needs n >= {_MIN_N['ula']}, got {n}")
    return SensorArray("ULA", tuple(range(n)))


def design_nested(n_dense: int, n_sparse: int) -> SensorArray:
    """Two-level nested array: a dense ULA of n_dense sensors starting at 0,
    then n_sparse sensors at pitch n_dense + 1 ending each coarse period.

    design_nested(6, 6) -> positions {0..5, 6, 13, 20, 27, 34, 41}.
    """
    n_dense, n_sparse = _sensor_count(n_dense, "n_dense"), _sensor_count(n_sparse, "n_sparse")
    if n_dense < 1 or n_sparse < 1:
        raise DesignError("nested array needs n_dense >= 1 and n_sparse >= 1")
    dense = list(range(n_dense))
    sparse = [k * (n_dense + 1) - 1 for k in range(1, n_sparse + 1)]
    return SensorArray("NA", tuple(sorted(set(dense + sparse))))


#: The generated augmented-ULA families, by CLI name.
FAMILIES: dict[str, Family] = {
    "aulas": Family("AULAs", 9, n1_offset=1, n3_offset=2, layout=_augmented),
    "saulas": Family("SAULAs", 9, n1_offset=1, n3_offset=2,
                     layout=lambda p: _augmented(p) + p.m // 2),
    "tsaulas": Family("TSAULAs", 5, n1_offset=1, n3_offset=1, layout=_transformed_shifted),
    "cotsaulas": Family("Co-TSAULAs", 9, n1_offset=0, n3_offset=1,
                        layout=lambda p: np.append(_transformed_shifted(p),
                                                   p.n1 * p.m + 3 * (p.m // 2) - 2)),
}

_FAMILY_BUILDERS = {"aulas": design_aulas, "saulas": design_saulas, "tsaulas": design_tsaulas,
                    "cotsaulas": design_cotsaulas, "ula": design_ula}

#: The smallest sensor count of every family ``design`` builds.
_MIN_N = {**{name: f.min_n for name, f in FAMILIES.items()}, "ula": 1}

#: Every family ``design`` builds from a sensor count alone.
GENERATED_FAMILIES = tuple(_FAMILY_BUILDERS)


def _generated(family: str) -> str:
    """The lower-case name of a family ``design`` builds."""
    name = str(family).lower()
    with _as_design_error():
        lookup(_FAMILY_BUILDERS, name, "family")
    return name


def design(family: str, n: int) -> SensorArray:
    """Build a named single-parameter geometry ('aulas', 'saulas', 'tsaulas',
    'cotsaulas', 'ula'); nested arrays take two parameters, use design_nested."""
    return _FAMILY_BUILDERS[_generated(family)](n)


def sensor_counts(family: str, n_min: int, n_max: int) -> range:
    """The one sensor-count rule of the sweeps: every size ``family``
    admits from n_min to n_max inclusive, that is from its smallest sensor
    count on if n_min is below it.  An inverted range, a count that is not
    an integer or exceeds MAX_SENSORS, or an unknown family is a
    DesignError."""
    smallest = _MIN_N[_generated(family)]
    n_min, n_max = _sensor_count(n_min, "n_min"), _sensor_count(n_max, "n_max")
    if n_min > n_max:
        raise DesignError(f"n_min {n_min} exceeds n_max {n_max}")
    return range(max(smallest, n_min), n_max + 1)


def selected_sensor_counts(n_min: Mapping[str, int], n_max: int) -> dict[str, range]:
    """``sensor_counts`` of each family ``n_min`` names, from its own n_min
    up to n_max.  Every range is checked first, and a selection that holds
    no sensor count at all is a DesignError naming each range."""
    sizes = {family: sensor_counts(family, low, n_max) for family, low in n_min.items()}
    if not any(sizes.values()):
        ranges = ", ".join(f"{f} n {n_min[f]}..{n_max} (smallest {r.start})"
                           for f, r in sizes.items())
        raise DesignError(f"no sensor count selected: {ranges}")
    return sizes


def _integer_positions(values: Iterable) -> tuple[int, ...]:
    """The one definition of a valid sensor position: an integer by
    ``integer_field``, below POSITION_LIMIT in magnitude.

    A tuple of plain ints, as the designs and ``translated`` build, needs
    only the range check and is returned as it is."""
    if type(values) is tuple and values and set(map(type, values)) == {int}:
        cleaned = values
    elif not isinstance(values, Iterable):
        raise DesignError(f"sensor positions must be a list, got {values!r}")
    else:
        with _as_design_error():
            cleaned = tuple(integer_field(p, "sensor position") for p in values)
    if not cleaned:
        raise DesignError("sensor positions must hold at least one sensor")
    for q in (min(cleaned), max(cleaned)):
        if abs(q) >= POSITION_LIMIT:
            raise DesignError(
                f"sensor position {q} outside (-2**62, 2**62): its pair sums overflow int64"
            )
    return cleaned


def from_positions(
    name: str, positions: Iterable[int], unit: str = POSITION_UNIT
) -> SensorArray:
    """Wrap externally supplied sensor locations in any order; duplicates
    and non-integers are rejected."""
    return SensorArray(str(name), tuple(sorted(_integer_positions(positions))), unit=unit)


def load_descriptor(path) -> SensorArray:
    """Read a JSON array descriptor {"name", "unit", "positions"} from disk."""
    with _as_design_error():
        data = read_json(path, "array descriptor")
    return SensorArray.from_dict(data)


def save_descriptor(array: SensorArray, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(array.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def inbuilt_shared_locations(a: SensorArray, b: SensorArray) -> tuple[int, ...]:
    """Physical positions common to two arrays (useful when geometries for
    different N are deployed on the same rail)."""
    return tuple(sorted(set(a.positions) & set(b.positions)))
