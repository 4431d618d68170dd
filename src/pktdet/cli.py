"""Command-line front end.

Subcommands:
  gen-coeff   pack a preamble's signs into a coefficient register dump
  gen-iq      synthesize a quantized capture (embed + AWGN) into an IQPD file
  detect      run the detector bank over an IQPD capture, emit events as CSV
  sweep       run a Monte-Carlo SNR sweep, emit CSV
  scope       single capture; emit every correlator's output trace as CSV
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import config as cfgfile
from .coarse import CoarseConfig
from .correlator import dump_bank, load_coefficients
from .energy import EnergyConfig
from .harness import csv_text, default_sweep_config, run_scope_scenario, run_sweep, synthesize
from .iqfile import read_iq, write_iq
from .signal import FixedPointFormat, seed_words
from .standards import build_register_map, run_detector_bank


def _write_text(out: str | None, text: str) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _cmd_gen_coeff(args) -> None:
    preamble = cfgfile.parse_preamble_source(args.preamble)
    _write_text(args.out, dump_bank(load_coefficients(preamble)))


def _cmd_gen_iq(args) -> None:
    profiles = cfgfile.load_profiles(args.profiles)
    by_id = {p.id: p for p in profiles}
    if args.transmit not in by_id:
        raise ValueError(f"unknown profile {args.transmit!r}")
    stream, start = synthesize(
        by_id[args.transmit].preamble,
        args.pad_before,
        args.pad_after,
        args.snr,
        seed_words(args.seed),
        FixedPointFormat.parse(args.format),
    )
    write_iq(args.out, stream)
    print(f"wrote {len(stream)} samples (preamble starts at {start})", file=sys.stderr)


def _cmd_detect(args) -> None:
    profiles = cfgfile.load_profiles(args.profiles)
    stream = read_iq(args.input)
    tuning = {k: v for k, v in vars(args).items() if k in ("metric_threshold", "plateau_min")}
    if args.coarse_lag is None and tuning:
        raise ValueError("--coarse-thresh and --coarse-plateau need --coarse-lag")
    coarse = None if args.coarse_lag is None else CoarseConfig(args.coarse_lag, **tuning)
    energy = EnergyConfig(args.energy_window, args.energy_sample_thresh, args.energy_count_thresh)
    regs = build_register_map(profiles, energy=energy, coarse=coarse, fmt=stream.format)
    events = run_detector_bank(stream, profiles, regs)
    rows = ((e.standard_id, e.peak_value, e.peak_index) for e in events)
    _write_text(args.out, csv_text(("standard_id", "peak_value", "peak_index"), rows))


def _scenario(config_path: str | None):
    """The sweep scenario of ``--config``, or the demo scenario without one."""
    return default_sweep_config() if config_path is None else cfgfile.load_sweep_config(config_path)


def _cmd_sweep(args) -> None:
    cfg = _scenario(args.config)
    if args.transmit is not None:  # replace() checks the id
        cfg = replace(cfg, transmitted_profile_id=args.transmit)
    result = run_sweep(cfg, workers=args.workers)
    _write_text(args.out, result.to_csv())


def _cmd_scope(args) -> None:
    cfg = _scenario(args.config)
    result = run_scope_scenario(cfg, snr_db=args.snr, seed=args.seed)
    _write_text(args.out, result.to_csv())


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as ``ValueError``, which ``main`` prints as any
    other; the subcommands' parsers are of this class too."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pktdet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-coeff", help="emit a coefficient register dump")
    p.add_argument("--preamble", required=True, help="pn:seed=S,len=N, file:PATH or coeff:PATH")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(func=_cmd_gen_coeff)

    p = sub.add_parser("gen-iq", help="synthesize a quantized IQPD capture")
    p.add_argument("--profiles", required=True)
    p.add_argument("--transmit", required=True, help="profile id to embed")
    p.add_argument("--snr", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pad-before", type=int, default=128)
    p.add_argument("--pad-after", type=int, default=128)
    p.add_argument("--format", default="q1.15", help="quantization format (e.g. q1.15)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_iq)

    p = sub.add_parser("detect", help="run the detector bank over a capture")
    p.add_argument("--profiles", required=True)
    p.add_argument("--input", required=True, help="IQPD capture file")
    p.add_argument("--out", default=None, help="events CSV (default stdout)")
    p.add_argument("--energy-window", type=int, default=EnergyConfig.window_len)
    p.add_argument(
        "--energy-sample-thresh", type=float, default=EnergyConfig.sample_energy_threshold
    )
    p.add_argument("--energy-count-thresh", type=int, default=EnergyConfig.count_threshold)
    p.add_argument("--coarse-lag", type=int, default=None, help="enable coarse stage at lag L")
    # set only with --coarse-lag; left out, CoarseConfig's defaults hold
    p.add_argument(
        "--coarse-thresh", type=float, dest="metric_threshold", default=argparse.SUPPRESS
    )
    p.add_argument("--coarse-plateau", type=int, dest="plateau_min", default=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("sweep", help="Monte-Carlo SNR sweep")
    p.add_argument("--config", default=None, help="sweep config (default demo scenario)")
    p.add_argument("--transmit", default=None, help="profile id to transmit instead")
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("scope", help="single capture, all correlator traces as CSV")
    p.add_argument("--snr", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=0, help="capture seed")
    p.add_argument("--config", default=None, help="sweep config (default demo scenario)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_scope)
    return parser


def main(argv=None) -> int:
    """Run one subcommand: exit status 0, or 2 with one ``error:`` line on
    stderr for bad input (files, formats, seeds, stage parameters), which
    every command reports by raising ``ValueError`` or ``OSError``; a usage
    error too.  ``--help`` prints and exits 0."""
    try:
        args = build_parser().parse_args(argv)
        args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
