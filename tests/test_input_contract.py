"""The input contract: every integer field follows one rule, and the CLI
answers malformed files and out-of-range flags with exit 2 and a message
that names what was wrong, never with exit 1.  The size bounds are checked
before anything is allocated at scale."""

from __future__ import annotations

import io
import json
import math
import re
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coarraylab import signal
from coarraylab.cli import EXIT_OK, EXIT_USAGE, main
from coarraylab.coupling import CouplingModel
from coarraylab.estimation import (
    MAX_GRID_POINTS,
    MusicConfig,
    SmoothedCovariance,
    monte_carlo,
    signal_subspace,
    trial_results,
)
from coarraylab.geometry import design, design_nested, design_ula, from_positions, sensor_counts
from coarraylab.inputs import integer_field
from coarraylab.signal import (
    MAX_TRIAL_SAMPLES,
    Scenario,
    VirtualObservation,
    simulate_snapshots,
)

# ---------------------------------------------------------------------------
# One integer rule
# ---------------------------------------------------------------------------

_ULA = design_ula(4)
_ONE_SOURCE = Scenario(angles_deg=(10.0,), snapshots=8)

#: Every integer field, as the call that takes it.
INTEGER_FIELDS = {
    "n": lambda v: design("ula", v),
    "n_dense": lambda v: design_nested(v, 2),
    "n_sparse": lambda v: design_nested(2, v),
    "n_min": lambda v: sensor_counts("aulas", v, 12),
    "n_max": lambda v: sensor_counts("aulas", 9, v),
    "num_sources": lambda v: MusicConfig(num_sources=v),
    "grid_points": lambda v: MusicConfig(num_sources=1, grid_points=v),
    "smoothing_length": lambda v: MusicConfig(num_sources=1, smoothing_length=v),
    "snapshots": lambda v: Scenario(angles_deg=(1.0,), snapshots=v),
    "trials": lambda v: trial_results(_ULA, _ONE_SOURCE, MusicConfig.for_step(1, 1.0), v),
    "trial": lambda v: simulate_snapshots(_ULA, _ONE_SOURCE, trial=v),
    "seed": lambda v: Scenario(angles_deg=(1.0,), snapshots=1, seed=v),
    "band_limit": lambda v: CouplingModel(band_limit=v),
    "lag": lambda v: VirtualObservation(np.arange(-2, 3), np.zeros(5, complex)).value_at(v),
    "shift": lambda v: _ULA.translated(v),
    "sensor position": lambda v: from_positions("probe", [0, v]),
    "q": lambda v: CouplingModel().coefficient(v),
}


@pytest.mark.parametrize("value", [np.True_, 1.5, "3", math.nan, math.inf],
                         ids=["numpy-bool", "fraction", "string", "nan", "inf"])
@pytest.mark.parametrize("field", INTEGER_FIELDS)
def test_every_integer_field_follows_the_one_rule(field, value):
    with pytest.raises(ValueError, match=rf"^{re.escape(field)} must be (an integer|a number)"):
        INTEGER_FIELDS[field](value)


@pytest.mark.parametrize("value", [3, 3.0, np.int64(3), np.float32(3.0), 2**80])
def test_integral_values_pass_as_plain_ints(value):
    got = integer_field(value, "x")
    assert got == value and type(got) is int


@pytest.mark.parametrize(("value", "message"), [
    (0, "^x must be >= 1, got 0$"),
    (-2.0, "^x must be >= 1, got -2$"),
    (np.False_, "^x must be an integer, got np.False_$"),
    (None, "^x must be a number, got None$"),
    (1j, "^x must be a number, got 1j$"),
])
def test_integer_rule_names_the_field_and_the_bound(value, message):
    with pytest.raises(ValueError, match=message):
        integer_field(value, "x", 1)


# ---------------------------------------------------------------------------
# Size bounds, checked before allocation
# ---------------------------------------------------------------------------


class _Drew(Exception):
    """Raised in place of the first random draw of a trial."""


def _no_draw(*args, **kwargs):
    raise _Drew


def _no_grid(self):
    raise AssertionError("the search grid was built")


@pytest.fixture
def no_allocation(monkeypatch):
    """Make the first random draw and the first search grid raise instead
    of allocating."""
    monkeypatch.setattr(signal, "trial_rng", _no_draw)
    monkeypatch.setattr(MusicConfig, "grid", property(_no_grid))


def test_sample_bound_is_checked_before_the_first_draw(no_allocation):
    per_snapshot = 1 + 2 * _ULA.n
    largest = MAX_TRIAL_SAMPLES // per_snapshot
    with pytest.raises(_Drew):  # the largest admitted trial reaches the draw
        simulate_snapshots(_ULA, Scenario(angles_deg=(10.0,), snapshots=largest))
    over = rf"^snapshots {largest + 1}: .* more than {MAX_TRIAL_SAMPLES}$"
    with pytest.raises(ValueError, match=over):
        simulate_snapshots(_ULA, Scenario(angles_deg=(10.0,), snapshots=largest + 1))


def test_the_bounds_admit_the_largest_documented_sizes():
    # mc_long_records: Co-TSAULAs(32), 5 sources, 5000 snapshots; large-L
    # studies: SAULAs(128), 4 sources, 500 snapshots
    assert (5 + 2 * 32) * 5000 <= MAX_TRIAL_SAMPLES
    assert (4 + 2 * 128) * 500 <= MAX_TRIAL_SAMPLES
    assert MusicConfig.for_step(4, 0.01).grid_points == 17999 <= MAX_GRID_POINTS


def test_grid_bound_is_checked_before_the_grid_is_built(no_allocation):
    largest = MusicConfig(num_sources=1, grid_points=MAX_GRID_POINTS)
    assert largest.grid_points == MAX_GRID_POINTS
    with pytest.raises(ValueError, match=f"^grid_points must be at most {MAX_GRID_POINTS}, got"):
        MusicConfig(num_sources=1, grid_points=MAX_GRID_POINTS + 1)


def test_fewer_windows_than_sources_are_refused_before_the_first_draw(no_allocation):
    """ULA(3) has the segment m = 4, so L = 9 leaves 2m + 2 - L = 1 window
    for K = 2 sources: R_ss would have rank 1 and E_s would be arbitrary."""
    scenario = Scenario(angles_deg=(-10.0, 20.0), snapshots=8)
    config = MusicConfig(num_sources=2, smoothing_length=9)
    refused = r"^smoothing length L = 9 leaves a window count of 1, below the 2 sources"
    with pytest.raises(ValueError, match=refused):
        trial_results(design_ula(3), scenario, config, 3)
    with pytest.raises(ValueError, match=refused):
        monte_carlo(design_ula(3), scenario, config, 3)
    samples = VirtualObservation(np.arange(-4, 5), np.ones(9, complex))
    with pytest.raises(ValueError, match=refused):
        signal_subspace(SmoothedCovariance(samples, 9), 2)
    # L = 8 leaves the two windows two sources need, and reaches the draw
    admitted = MusicConfig(num_sources=2, smoothing_length=8)
    with pytest.raises(_Drew):
        list(trial_results(design_ula(3), scenario, admitted, 1))


def _run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


@pytest.mark.parametrize(("scenario", "flags", "named"), [
    ({"snapshots": 100_000_000_000}, [], "snapshots 100000000000"),
    ({"snapshots": 2**64}, [], f"snapshots {2**64}"),
    ({}, ["--grid-step", "1e-6"], "grid_points must be at most"),
])
def test_cli_size_probes_exit_2_before_allocating(tmp_path, no_allocation, scenario, flags,
                                                 named):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"angles_deg": [10.0, 20.0], "snapshots": 16, **scenario}))
    code, err = _run(["music", "--family", "saulas", "--n", "12", "--scenario", path, *flags])
    assert code == EXIT_USAGE and named in err


@pytest.mark.parametrize("scale", [
    {"powers": [1e308, 1e308]},
    {"powers": [1e100, 1.0]},
    {"coupling": {"c1_magnitude": 1e300}},
    {"coupling": {"c1_magnitude": sys.float_info.max}},
    {"powers": [1e150, 1e150], "coupling": {"c1_magnitude": 1e300}},
])
def test_overflowing_scales_exit_2_naming_them_without_warnings(tmp_path, scale):
    """Powers and coupling magnitudes that overflow the covariance, or leave
    entries co-array MUSIC cannot square, stop at the Gram with one message
    and no RuntimeWarning on the way, and trial 0's Gram is checked before
    its planes reach the snapshot dump, so no file is written."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"angles_deg": [10.0, 20.0], "snapshots": 16, **scale}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.simplefilter("ignore", UserWarning)  # |c1| > 1 breaks the ordering
        code, err = _run(["music", "--family", "saulas", "--n", "12", "--scenario", path,
                          "--grid-step", "1", "--dump-snapshots", tmp_path / "snaps.bin",
                          "--output", tmp_path / "run"])
    assert code == EXIT_USAGE
    assert "lower the source powers, the noise power (snr_db) or the coupling c1_magnitude" in err
    assert [p.name for p in tmp_path.iterdir()] == ["scenario.json"]


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e40])
def test_planes_covariance_refuses_what_music_cannot_square(bad):
    """One non-finite or huge sample anywhere in the planes is caught by
    the check on the diagonal of their Gram, the covariance the trial loop
    reads from them."""
    planes = np.ones((4, 3))
    planes[3, 1] = bad
    with pytest.raises(ValueError, match="lower the source powers"):
        signal.planes_gram(planes)


def test_the_covariance_bound_admits_the_lowest_snr():
    """The noise power at MIN_SNR_DB stays below the covariance bound."""
    assert 10 ** (-signal.MIN_SNR_DB / 10) < signal.MAX_COVARIANCE


# ---------------------------------------------------------------------------
# The CLI contract under malformed input
# ---------------------------------------------------------------------------

BASE_SCENARIO = {"angles_deg": [-20.0, 25.0], "snapshots": 16, "snr_db": 10.0, "seed": 1}
BASE_DESCRIPTOR = {"name": "probe", "positions": [0, 1, 2, 5]}

#: JSON values of every kind, each wrong for some field and right for others.
VALUES = st.sampled_from([
    None, True, False, 0, 1, -1, 2.0, 2.5, "3", "", [], [1.0], {}, {"a": 1},
    math.nan, math.inf, -math.inf, -1e4, 10**11, 2**64, 10**400,
])
#: Lists of per-source values, some of the wrong length or with a wrong entry.
LISTS = st.lists(st.one_of(VALUES, st.floats(-89, 89)), max_size=3)
SCENARIO_FIELDS = ("angles_deg", "snapshots", "snr_db", "powers", "nc_phases", "seed")


@st.composite
def scenario_faults(draw):
    """A scenario document with one fault, and the words one of which the
    error must contain."""
    doc = dict(BASE_SCENARIO)
    kind = draw(st.sampled_from(["value", "list", "missing", "unknown", "coupling", "scale",
                                 "text"]))
    if kind == "scale":
        # powers and coupling magnitudes up to the float maximum
        huge = st.floats(0.0, sys.float_info.max)
        if draw(st.booleans()):
            doc["powers"] = [draw(huge), draw(huge)]
        else:
            doc["coupling"] = {"c1_magnitude": draw(huge)}
        blame = ["source powers"]
    elif kind in ("value", "list"):
        field = draw(st.sampled_from(SCENARIO_FIELDS))
        doc[field] = draw(VALUES if kind == "value" else LISTS)
        blame = [field, "insufficient uDOFs"] if field == "angles_deg" else [field]
    elif kind == "missing":
        field = draw(st.sampled_from(("angles_deg", "snapshots")))
        del doc[field]
        blame = [field]
    elif kind == "unknown":
        doc["snr_dB"] = 3.0
        blame = ["snr_dB"]
    elif kind == "coupling":
        model = draw(st.one_of(
            st.sampled_from(["paper-v", "none", "mystery"]), VALUES,
            st.dictionaries(st.sampled_from(["c1_magnitude", "c1_phase", "band_limit", "bogus"]),
                            st.one_of(VALUES, st.floats(0, 1)), max_size=2)))
        doc["coupling"] = model
        blame = ["coupling", "c1_magnitude", "c1_phase", "band_limit", "bogus"]
    else:
        texts = ["{not json", "", "[1, 2", "\udcff", "[1, 2]", "7", "[" * 100_000]
        return draw(st.sampled_from(texts)), ["scenario"]
    return json.dumps(doc), blame


@st.composite
def descriptor_faults(draw):
    doc = dict(BASE_DESCRIPTOR)
    kind = draw(st.sampled_from(["positions", "entry", "name", "unit", "missing", "text"]))
    if kind == "positions":
        doc["positions"] = draw(VALUES)
    elif kind == "entry":
        doc["positions"] = [0, 1, draw(VALUES)]
    elif kind == "name":
        doc["name"] = draw(VALUES)
    elif kind == "unit":
        doc["unit"] = draw(VALUES)
    elif kind == "missing":
        del doc[draw(st.sampled_from(["name", "positions"]))]
    else:
        return draw(st.sampled_from(["{", "[]", "null"])), ["array descriptor"]
    blame = {"positions": ["sensor position", "insufficient uDOFs"],
             "entry": ["sensor position", "insufficient uDOFs"],
             "name": [], "unit": ["unit"], "missing": ["name", "positions"]}[kind]
    return json.dumps(doc), blame


FLAGS = st.sampled_from([
    (["--trials", "2"], []),
    (["--trials", "0"], ["trials"]),
    (["--trials", "-3"], ["trials"]),
    (["--grid-step", "0.5"], []),
    (["--grid-step", "0"], ["grid step"]),
    (["--grid-step", "-1"], ["grid step"]),
    (["--grid-step", "0.07"], ["grid step"]),
    (["--grid-step", "nan"], ["grid step"]),
    (["--grid-step", "inf"], ["grid_points"]),
    (["--grid-step", "1e-320"], ["grid step"]),
    (["--grid-step", "1e-6"], ["grid_points"]),
    (["--seed", "-1"], ["seed"]),
    (["--seed", str(2**64)], []),
    (["--family", "ula", "--n", "0"], ["n >= 1"]),
    (["--family", "ula", "--n", "5000"], ["n must be at most"]),
    (["--family", "saulas", "--n", "4"], ["n >= 9"]),
])

CASES = st.one_of(
    st.tuples(scenario_faults(), st.just((json.dumps(BASE_DESCRIPTOR), [])), st.just(([], []))),
    st.tuples(st.just((json.dumps(BASE_SCENARIO), [])), descriptor_faults(), st.just(([], []))),
    st.tuples(st.just((json.dumps(BASE_SCENARIO), [])),
              st.just((json.dumps(BASE_DESCRIPTOR), [])), FLAGS),
)

_BIG = (json.dumps({**BASE_SCENARIO, "snapshots": 100_000_000_000}), ["snapshots"])
_FINE = (["--grid-step", "1e-6"], ["grid_points"])


@settings(deadline=None, max_examples=300)
@given(case=CASES)
@example(case=(_BIG, (json.dumps(BASE_DESCRIPTOR), []), ([], [])))
@example(case=((json.dumps(BASE_SCENARIO), []), (json.dumps(BASE_DESCRIPTOR), []), _FINE))
def test_cli_answers_malformed_input_with_exit_2_naming_the_field(case):
    (scenario, blame_s), (descriptor, blame_d), (flags, blame_f) = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = Path(tmp) / "scenario.json", Path(tmp) / "array.json"
        paths[0].write_text(scenario, encoding="utf-8", errors="surrogateescape")
        paths[1].write_text(descriptor, encoding="utf-8")
        source = [] if "--family" in flags else ["--file", paths[1]]
        if "--grid-step" not in flags:
            flags = [*flags, "--grid-step", "1"]
        code, err = _run(["music", *source, "--scenario", paths[0], *flags])
    assert code in (EXIT_OK, EXIT_USAGE), err
    blame = blame_s + blame_d + blame_f
    if code == EXIT_USAGE:
        assert blame and any(word in err for word in blame), err
    else:
        assert err == ""
