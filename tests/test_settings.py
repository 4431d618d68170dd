"""The one rule for settings, over every setting it covers.

An integer setting takes any integer, NumPy's signed and unsigned ones
included, and stores it as an int; a whole float, a string, None or a value out of range raises a
``ValueError`` naming the setting, before any trial runs or any RNG draws.
A real-valued setting rejects a string or None the same way.
"""

import re

import numpy as np
import pytest

from pktdet import harness
from pktdet.coarse import CoarseConfig
from pktdet.correlator import CoefficientBank, SignCorrelator
from pktdet.energy import EnergyConfig
from pktdet.harness import SweepConfig, TrialOutcome, run_sweep, scenario_profiles
from pktdet.signal import (
    FixedPointFormat,
    Preamble,
    Q1_15,
    SampleStream,
    add_awgn,
    noise_sigma,
    pn_preamble,
    seed_words,
)
from pktdet.standards import StandardProfile

PROFILES = scenario_profiles(seed=7)
ZEROS = np.zeros(8, dtype=np.int16)  # 16 components, so at most 16 saturations


def sweep(**overrides) -> SweepConfig:
    # one SNR point, so any worker count runs serially
    fields = dict(
        profiles=PROFILES,
        transmitted_profile_id="pn32",
        snr_points_db=(10.0,),
        trials_per_point=2,
        seed=7,
        pad_before_range=(8, 24),
        pad_after=16,
    )
    fields.update(overrides)
    return SweepConfig(**fields)


# id and name, the build from a value, the stored value of a build (None
# where nothing is stored), a valid integer, and a value out of range with
# its message
SETTINGS = [
    ("total_bits", lambda v: FixedPointFormat(v, 15), lambda f: f.total_bits, 16,
     17, "total_bits must be in [2, 16]"),
    ("fractional_bits", lambda v: FixedPointFormat(16, v), lambda f: f.fractional_bits, 15,
     16, "fractional_bits must be in [0, 15]"),
    ("window_len", lambda v: EnergyConfig(v, 0.5, 8), lambda c: c.window_len, 16,
     65537, "window_len must be in [1, 65536]"),
    ("count_threshold", lambda v: EnergyConfig(16, 0.5, v), lambda c: c.count_threshold, 16,
     17, "count_threshold must be in [0, 16]"),
    ("half_period", lambda v: CoarseConfig(v, 0.5, 8), lambda c: c.half_period, 16,
     0, "half_period must be >= 1"),
    ("plateau_min", lambda v: CoarseConfig(16, 0.5, v), lambda c: c.plateau_min, 16,
     0, "plateau_min must be >= 1"),
    ("fine_threshold", lambda v: StandardProfile("a", Preamble([1, -1]), v),
     lambda p: p.fine_threshold, 16, 0, "fine_threshold must be >= 1"),
    ("threshold", lambda v: SignCorrelator(PROFILES[0].bank, v), lambda c: c.threshold, 16,
     2**32, "threshold must be in [0, 4294967295]"),
    ("bank length", lambda v: CoefficientBank(v, (0,), (0,)), lambda b: b.length, 16,
     0, "bank length must be >= 1"),
    ("coefficient word", lambda v: CoefficientBank(8, (v,), (0,)), lambda b: b.i_words[0], 16,
     2**32, "coefficient word must be in [0, 4294967295]"),
    ("trials_per_point", lambda v: sweep(trials_per_point=v), lambda c: c.trials_per_point, 16,
     0, "trials_per_point must be >= 1"),
    ("pad_after", lambda v: sweep(pad_after=v), lambda c: c.pad_after, 16,
     -1, "pad_after must be >= 0"),
    ("pad_before_range[0]", lambda v: sweep(pad_before_range=(v, 24)),
     lambda c: c.pad_before_range[0], 16, -1, "pad_before_range[0] must be >= 0"),
    ("pad_before_range[1]", lambda v: sweep(pad_before_range=(8, v)),
     lambda c: c.pad_before_range[1], 16, 7, "pad_before_range[1] must be >= 8"),
    ("workers", lambda v: run_sweep(sweep(), workers=v), None, 16,
     0, "workers must be >= 1"),
    ("seed", lambda v: sweep(seed=v), None, 16, -1, "seed must be non-negative, got -1"),
    ("seed_words", lambda v: seed_words(3, v), None, 16, -1, "seed must be non-negative, got -1"),
    ("preamble length", lambda v: pn_preamble(v, 0), None, 16,
     16385, "preamble length must be in [1, 16384]"),
    ("saturation_count", lambda v: SampleStream(Q1_15, ZEROS, ZEROS, saturation_count=v),
     lambda s: s.saturation_count, 16, -7, "saturation_count must be in [0, 16]"),
]


@pytest.mark.parametrize(
    "name, build, stored, good, bad, message",
    SETTINGS,
    ids=[case[0].replace(" ", "-") for case in SETTINGS],
)
def test_integer_setting_takes_the_one_rule(monkeypatch, name, build, stored, good, bad, message):
    ran = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(harness, "run_trial", lambda *a: ran.append(a) or TrialOutcome.CORRECT)
    monkeypatch.setattr(np.random, "default_rng", lambda *a: ran.append(a) or default_rng(*a))
    # seed_words names the seed, whichever value of its tuple it is
    named = "seed" if name == "seed_words" else name
    for value in (float(good), str(good), None):
        with pytest.raises(ValueError, match=f"^{re.escape(named)} must be an integer$"):
            build(value)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(bad)
    assert ran == []  # rejected before any trial or draw
    for value in (np.int64(good), np.uint8(good)):
        built = build(value)
        if stored is not None:
            assert type(stored(built)) is int and stored(built) == good


REALS = [
    ("sample_energy_threshold", lambda v: EnergyConfig(16, v, 8)),
    ("metric_threshold", lambda v: CoarseConfig(16, v, 8)),
    ("snr_points_db", lambda v: sweep(snr_points_db=(10.0, v))),
]


@pytest.mark.parametrize("value", ["0.5", None], ids=["str", "None"])
@pytest.mark.parametrize("name, build", REALS, ids=[case[0] for case in REALS])
def test_real_setting_rejects_a_non_number(monkeypatch, name, build, value):
    ran = []
    monkeypatch.setattr(harness, "run_trial", lambda *a: ran.append(a))
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be a real number$"):
        build(value)
    assert ran == []  # rejected as the configuration is built


# a Python int beyond the largest float, which float() cannot convert
HUGE = 10**400
TOO_LARGE = [
    ("sample_energy_threshold", lambda: EnergyConfig(16, HUGE, 8)),
    ("metric_threshold", lambda: CoarseConfig(16, HUGE, 8)),
    ("snr_db", lambda: noise_sigma(HUGE, 1.0)),
    ("signal_power", lambda: noise_sigma(10.0, HUGE)),
    ("snr_db", lambda: add_awgn(np.zeros(4, dtype=complex), HUGE, 1)),
    ("snr_points_db", lambda: run_sweep(sweep(snr_points_db=(HUGE,)))),
]


@pytest.mark.parametrize(
    "name, build",
    TOO_LARGE,
    ids=["energy", "coarse", "noise_sigma-snr", "noise_sigma-power", "add_awgn", "run_sweep"],
)
def test_real_setting_rejects_an_int_beyond_a_float(monkeypatch, name, build):
    ran = []
    monkeypatch.setattr(harness, "run_trial", lambda *a: ran.append(a))
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be a real number$"):
        build()
    assert ran == []


CONTAINERS = [
    ("snr_points_db", 5.0, "snr_points_db must be a sequence of real numbers"),
    ("profiles", None, "profiles must be a sequence of profiles"),
    ("profiles", (1, 2), "profiles must be a sequence of profiles"),
    ("pad_before_range", None, "pad_before_range must be a (lo, hi) pair"),
    ("pad_before_range", (8, 16, 24), "pad_before_range must be a (lo, hi) pair"),
]


@pytest.mark.parametrize(
    "name, value, message",
    CONTAINERS,
    ids=[
        "snr_points_db",
        "profiles",
        "profiles-of-ints",
        "pad_before_range",
        "pad_before_range-triple",
    ],
)
def test_container_field_holds_a_container(name, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sweep(**{name: value})
