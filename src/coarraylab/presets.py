"""Canned Monte-Carlo scenarios for the two reference experiments.

Both place equal-power sources on an even angular comb at 0 dB SNR; the
second adds banded mutual coupling.  Grids run at a 0.05-degree pitch, which
resolves the comb spacing comfortably while keeping a 20-trial sweep quick.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coupling import PAPER_V, CouplingModel
from .estimation import MusicConfig
from .inputs import lookup
from .signal import Scenario


@dataclass(frozen=True)
class ScenarioPreset:
    name: str
    scenario: Scenario
    music: MusicConfig
    coupling: CouplingModel | None


#: Each preset: source count, first and last comb angle (degrees),
#: snapshots, default seed and coupling model.
_PRESETS = {
    "fig12": (55, -49.0, 49.0, 600, 101, None),
    "fig13": (27, -59.0, 59.0, 1000, 202, PAPER_V),
}


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(_PRESETS))


def get_scenario_preset(name: str, seed: int | None = None) -> ScenarioPreset:
    count, first, last, snapshots, default_seed, coupling = lookup(
        _PRESETS, name, "scenario preset"
    )
    spread = last - first
    scenario = Scenario(
        angles_deg=tuple(first + spread * z / (count - 1) for z in range(count)),
        snapshots=snapshots,
        snr_db=0.0,
        seed=default_seed if seed is None else seed,
    )
    return ScenarioPreset(name, scenario, MusicConfig.for_step(count, 0.05), coupling)
