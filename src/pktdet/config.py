"""Textual configuration files for the CLI.

One INI file can describe both the profile set and a sweep.  Profiles are
one block each:

    [profile pn64a]
    preamble = pn:seed=202,len=64     ; or  file:ref_preamble.txt
    threshold = 100
    packet_len = 512
    symbol_size = 64
    training_period = 64

A ``file:`` preamble source points at a text file of complex values, one
sample per line as two floats (real imag), whitespace or comma separated.
A ``coeff:`` source points at a packed coefficient dump (the ``gen-coeff``
output) and reconstructs a sign-faithful reference from it.

The optional [sweep] section drives `pktdet sweep`:

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
    format = q1.15
"""

from __future__ import annotations

import configparser
import math
from pathlib import Path

import numpy as np

from .coarse import CoarseConfig
from .energy import EnergyConfig
from .harness import SweepConfig
from .signal import FixedPointFormat, Preamble, pn_preamble
from .standards import StandardProfile

_PROFILE_PREFIX = "profile "


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


def parse_preamble_source(source: str, name: str, base_dir: Path | None = None) -> Preamble:
    """Resolve a preamble source string into a Preamble.

    ``pn:seed=S,len=N`` draws a pseudo-noise reference, ``file:PATH`` loads
    full-precision complex samples, and ``coeff:PATH`` loads a packed
    coefficient dump (as written by ``pktdet gen-coeff``).  A ``coeff:``
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
            key, _, value = item.partition("=")
            fields[key.strip()] = value.strip()
        try:
            seed = int(fields["seed"])
            length = int(fields["len"])
        except KeyError as exc:
            raise ValueError(f"pn preamble source needs seed= and len=: {source!r}") from exc
        return pn_preamble(name, length, seed)
    if source.startswith("file:"):
        return Preamble(id=name, samples=read_complex_file(resolve(source[5:])))
    if source.startswith("coeff:"):
        from .correlator import parse_bank

        bank = parse_bank(resolve(source[6:]).read_text())
        amp = 1.0 / math.sqrt(2.0)
        samples = np.array([amp * (si + 1j * sq) for si, sq in bank.signs()])
        return Preamble(id=name, samples=samples)
    raise ValueError(
        f"preamble source must start with 'pn:', 'file:' or 'coeff:', got {source!r}"
    )


def _parse_int_range(text: str) -> tuple[int, int]:
    if ":" in text:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    value = int(text)
    return value, value


def _parse_snr_points(text: str) -> tuple[float, ...]:
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"snr range must be lo:hi:step, got {text!r}")
        lo, hi, step = (float(p) for p in parts)
        if step <= 0:
            raise ValueError("snr step must be positive")
        points = []
        value = lo
        while value <= hi + 1e-9:
            points.append(round(value, 9))
            value += step
        return tuple(points)
    return tuple(float(p) for p in text.split(","))


def load_profiles(path) -> tuple[StandardProfile, ...]:
    """Parse all [profile <id>] blocks from an INI file."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    with open(path) as fh:
        parser.read_file(fh)
    return _profiles_from_parser(parser, Path(path).parent)


def _profiles_from_parser(parser, base_dir: Path) -> tuple[StandardProfile, ...]:
    profiles = []
    for section in parser.sections():
        if not section.startswith(_PROFILE_PREFIX):
            continue
        name = section[len(_PROFILE_PREFIX) :].strip()
        block = parser[section]
        preamble = parse_preamble_source(block["preamble"], name, base_dir)
        profiles.append(
            StandardProfile(
                id=name,
                preamble=preamble,
                fine_threshold=block.getint("threshold"),
                packet_len=block.getint("packet_len", fallback=0),
                symbol_size=block.getint("symbol_size", fallback=0),
                training_period=block.getint("training_period", fallback=0),
            )
        )
    if not profiles:
        raise ValueError("no [profile <id>] sections found")
    return tuple(profiles)


def load_sweep_config(path) -> SweepConfig:
    """Parse a full sweep description ([sweep] section plus profiles)."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    with open(path) as fh:
        parser.read_file(fh)
    profiles = _profiles_from_parser(parser, Path(path).parent)
    if not parser.has_section("sweep"):
        raise ValueError("missing [sweep] section")
    sweep = parser["sweep"]

    energy = None
    if sweep.getboolean("energy_enabled", fallback=True):
        energy = EnergyConfig(
            window_len=sweep.getint("energy_window", fallback=16),
            sample_energy_threshold=sweep.getfloat("energy_sample_thresh", fallback=0.5),
            count_threshold=sweep.getint("energy_count_thresh", fallback=8),
        )
    coarse = None
    if sweep.getboolean("coarse_enabled", fallback=False):
        coarse = CoarseConfig(
            half_period=sweep.getint("coarse_lag", fallback=16),
            metric_threshold=sweep.getfloat("coarse_thresh", fallback=0.5),
            plateau_min=sweep.getint("coarse_plateau", fallback=8),
        )
    return SweepConfig(
        profiles=profiles,
        transmitted_profile_id=sweep["transmitted"].strip(),
        snr_points_db=_parse_snr_points(sweep["snr_db"]),
        trials_per_point=sweep.getint("trials", fallback=300),
        seed=sweep.getint("seed", fallback=0),
        pad_before_range=_parse_int_range(sweep.get("pad_before", fallback="64:192")),
        pad_after=sweep.getint("pad_after", fallback=128),
        energy=energy,
        coarse=coarse,
        sample_format=FixedPointFormat.parse(sweep.get("format", fallback="q1.15")),
    )
