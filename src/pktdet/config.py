"""Textual configuration files for the CLI.

One INI file can describe both the profile set and a sweep.  Profiles are
one block each:

    [profile pn64a]
    preamble = pn:seed=202,len=64     ; or  file:ref_preamble.txt
    threshold = 100

A ``file:`` preamble source points at a text file of complex values, one
sample per line as two floats (real imag), whitespace or comma separated.
A ``coeff:`` source points at a packed coefficient dump (the ``gen-coeff``
output) and reconstructs a sign-faithful reference from it.

The [sweep] section drives `pktdet sweep --config` and `pktdet scope
--config`; the `coarse_*` keys are read only when `coarse_enabled` is true:

    [sweep]
    snr_db = -10:14:2                 ; range lo:hi:step, or a comma list
    trials = 300
    seed = 7
    transmitted = pn64a
    pad_before = 64:192               ; lo:hi range, or a single value
    pad_after = 128
    energy_enabled = true
    energy_window = 16
    energy_sample_thresh = 0.5
    energy_count_thresh = 8
    coarse_enabled = false
    coarse_lag = 16
    coarse_thresh = 0.5
    coarse_plateau = 8
    format = q1.15
"""

from __future__ import annotations

import configparser
import math
from pathlib import Path

import numpy as np

from .coarse import CoarseConfig
from .correlator import parse_bank
from .energy import EnergyConfig
from .harness import SweepConfig
from .signal import FixedPointFormat, Preamble, pn_preamble, seed_words
from .standards import StandardProfile

_PROFILE_PREFIX = "profile "
_MAX_SNR_POINTS = 10_000
_PN_FIELDS = ("seed", "len")


def read_complex_file(path) -> np.ndarray:
    """Load complex samples from text: two floats per line (real imag)."""
    values = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.replace(",", " ").split()
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'real imag', got {line!r}")
        values.append(float(parts[0]) + 1j * float(parts[1]))
    if not values:
        raise ValueError(f"{path}: no samples found")
    return np.array(values, dtype=np.complex128)


def parse_preamble_source(source: str, base_dir: Path | None = None) -> Preamble:
    """Resolve a preamble source string into a Preamble.

    ``pn:seed=S,len=N`` (two integer fields, each once) draws a pseudo-noise
    reference from ``seed_words(S)``, ``file:PATH`` loads full-precision
    complex samples, and ``coeff:PATH`` loads a packed coefficient dump (as
    written by ``pktdet gen-coeff``).  A ``coeff:``
    source reconstructs a unit-power sign-faithful preamble: the detector
    only ever uses component signs, so detection behavior is identical to
    the original reference.
    """
    source = source.strip()

    def resolve(path_text: str) -> Path:
        path = Path(path_text.strip())
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        return path

    if source.startswith("pn:"):
        fields = {}
        for item in source[3:].split(","):
            key, _, value = (part.strip() for part in item.partition("="))
            if key not in _PN_FIELDS or key in fields:
                raise ValueError(f"pn preamble source: unknown or repeated field {key!r}")
            try:
                fields[key] = int(value)
            except ValueError:
                raise ValueError(f"pn preamble {key} must be an integer, got {value!r}") from None
        for key in _PN_FIELDS:
            if key not in fields:
                raise ValueError(f"pn preamble source needs {key}=: {source!r}")
        return pn_preamble(fields["len"], seed_words(fields["seed"]))
    if source.startswith("file:"):
        return Preamble(read_complex_file(resolve(source[5:])))
    if source.startswith("coeff:"):
        si, sq = parse_bank(resolve(source[6:]).read_text()).sign_arrays
        return Preamble(1.0 / math.sqrt(2.0) * (si + 1j * sq))
    raise ValueError(
        f"preamble source must start with 'pn:', 'file:' or 'coeff:', got {source!r}"
    )


def _parse_int_range(text: str) -> tuple[int, int]:
    """``pad_before``, the one range key: ``lo:hi`` or one integer."""
    parts = text.split(":")
    try:
        if len(parts) <= 2:
            return int(parts[0]), int(parts[-1])
    except ValueError:
        pass
    raise ValueError(f"takes lo:hi or one integer, got {text!r}")


def _parse_snr_points(text: str) -> tuple[float, ...]:
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"snr range must be lo:hi:step, got {text!r}")
        lo, hi, step = (float(p) for p in parts)
        if not all(map(math.isfinite, (lo, hi, step))):
            raise ValueError(f"snr range needs finite lo, hi and step, got {text!r}")
        if step <= 0:
            raise ValueError("snr step must be positive")
        span = (hi - lo) / step  # +-inf where hi - lo overflows
        if span >= _MAX_SNR_POINTS:
            raise ValueError(f"snr range {text!r} has more than {_MAX_SNR_POINTS} points")
        count = math.floor(max(span, -1.0) + 1e-9) + 1  # 0 when hi < lo
        return tuple(round(lo + k * step, 9) for k in range(count))
    return tuple(float(p) for p in text.split(","))


def _boolean(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


def _read_ini(path) -> configparser.ConfigParser:
    """Read an INI file; a file the parser cannot read raises ``ValueError``
    with its message on one line.  Values are read literally: a ``%`` is
    just a character, as in ``preamble = file:100%.txt``."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";", "#"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ValueError(" ".join(str(exc).split())) from None
    return parser


def _value(section: configparser.SectionProxy, key: str, parse, default=None):
    """``parse`` of the text of ``key`` in ``section``, or ``default`` where
    the key is absent; the one reader of every INI value.  A missing key
    with no default, or a value ``parse`` rejects, raises ``ValueError``
    naming the section and the key."""
    try:
        text = section[key]
    except KeyError:
        if default is None:
            raise ValueError(f"[{section.name}] needs a {key!r} key") from None
        return default
    try:
        return parse(text)
    except (ValueError, OSError) as exc:  # OSError: a file: or coeff: path
        raise ValueError(f"[{section.name}] {key}: {exc}") from None


def load_profiles(path) -> tuple[StandardProfile, ...]:
    """Parse all [profile <id>] blocks from an INI file."""
    return _profiles_from_parser(_read_ini(path), Path(path).parent)


def _profiles_from_parser(parser, base_dir: Path) -> tuple[StandardProfile, ...]:
    profiles = []
    for section in parser.sections():
        if not section.startswith(_PROFILE_PREFIX):
            continue
        block = parser[section]
        profiles.append(
            StandardProfile(
                id=section[len(_PROFILE_PREFIX) :].strip(),
                preamble=_value(block, "preamble", lambda s: parse_preamble_source(s, base_dir)),
                fine_threshold=_value(block, "threshold", int),
            )
        )
    if not profiles:
        raise ValueError("no [profile <id>] sections found")
    return tuple(profiles)


def load_sweep_config(path) -> SweepConfig:
    """Parse a full sweep description ([sweep] section plus profiles)."""
    parser = _read_ini(path)
    profiles = _profiles_from_parser(parser, Path(path).parent)
    if not parser.has_section("sweep"):
        raise ValueError("missing [sweep] section")
    sweep = parser["sweep"]

    energy = None
    if _value(sweep, "energy_enabled", _boolean, True):
        energy = EnergyConfig(
            window_len=_value(sweep, "energy_window", int, EnergyConfig.window_len),
            sample_energy_threshold=_value(
                sweep, "energy_sample_thresh", float, EnergyConfig.sample_energy_threshold
            ),
            count_threshold=_value(sweep, "energy_count_thresh", int, EnergyConfig.count_threshold),
        )
    coarse = None
    if _value(sweep, "coarse_enabled", _boolean, False):
        coarse = CoarseConfig(
            half_period=_value(sweep, "coarse_lag", int, CoarseConfig.half_period),
            metric_threshold=_value(sweep, "coarse_thresh", float, CoarseConfig.metric_threshold),
            plateau_min=_value(sweep, "coarse_plateau", int, CoarseConfig.plateau_min),
        )
    return SweepConfig(
        profiles=profiles,
        transmitted_profile_id=_value(sweep, "transmitted", str),
        snr_points_db=_value(sweep, "snr_db", _parse_snr_points),
        trials_per_point=_value(sweep, "trials", int, 300),
        seed=_value(sweep, "seed", int, 0),
        pad_before_range=_value(
            sweep, "pad_before", _parse_int_range, SweepConfig.pad_before_range
        ),
        pad_after=_value(sweep, "pad_after", int, SweepConfig.pad_after),
        energy=energy,
        coarse=coarse,
        sample_format=_value(sweep, "format", FixedPointFormat.parse, SweepConfig.sample_format),
    )
