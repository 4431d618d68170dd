"""Command-line front end.

Subcommands:
  gen-coeff   pack a preamble's signs into a coefficient register dump
  gen-iq      synthesize a quantized capture (embed + AWGN) into an IQPD file
  detect      run the detector bank over an IQPD capture, emit events as CSV
  sweep       run a Monte-Carlo SNR sweep from a config file, emit CSV
  scope       single capture; emit every correlator's output trace as CSV
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from pathlib import Path

import numpy as np

from . import config as cfgfile
from .coarse import CoarseConfig
from .correlator import dump_bank, load_coefficients
from .energy import EnergyConfig
from .harness import default_sweep_config, run_scope_scenario, run_sweep, synthesize
from .iqfile import read_iq, write_iq
from .signal import FixedPointFormat
from .standards import build_register_map, run_detector_bank


def _write_text(out: str | None, text: str) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _cmd_gen_coeff(args) -> int:
    preamble = cfgfile.parse_preamble_source(args.preamble, name="preamble")
    _write_text(args.out, dump_bank(load_coefficients(preamble)))
    return 0


def _cmd_gen_iq(args) -> int:
    profiles = cfgfile.load_profiles(args.profiles)
    by_id = {p.id: p for p in profiles}
    if args.transmit not in by_id:
        print(f"error: unknown profile {args.transmit!r}", file=sys.stderr)
        return 2
    tx = by_id[args.transmit]
    stream, start = synthesize(
        tx.preamble,
        args.pad_before,
        args.pad_after,
        args.snr,
        np.random.default_rng(args.seed),
        FixedPointFormat.parse(args.format),
    )
    write_iq(args.out, stream)
    print(f"wrote {len(stream)} samples (preamble starts at {start})", file=sys.stderr)
    return 0


def _cmd_detect(args) -> int:
    profiles = cfgfile.load_profiles(args.profiles)
    stream = read_iq(args.input)
    coarse = None
    if args.coarse_lag is not None and not args.no_coarse:
        coarse = CoarseConfig(
            half_period=args.coarse_lag,
            metric_threshold=args.coarse_thresh,
            plateau_min=args.coarse_plateau,
        )
    energy = EnergyConfig(
        window_len=args.energy_window,
        sample_energy_threshold=args.energy_sample_thresh,
        count_threshold=args.energy_count_thresh,
    )
    regs = build_register_map(profiles, energy=energy, coarse=coarse, fmt=stream.format)
    events = run_detector_bank(stream, profiles, regs, rssi=args.rssi)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("standard_id", "peak_value", "peak_index"))
    for event in events:
        writer.writerow((event.standard_id, event.peak_value, event.peak_index))
    _write_text(args.out, buf.getvalue())
    return 0


def _cmd_sweep(args) -> int:
    cfg = cfgfile.load_sweep_config(args.config)
    result = run_sweep(cfg, workers=args.workers)
    _write_text(args.out, result.to_csv())
    return 0


def _cmd_scope(args) -> int:
    if args.config is not None:
        cfg = cfgfile.load_sweep_config(args.config)
    else:
        cfg = default_sweep_config(seed=args.seed)
    result = run_scope_scenario(cfg, snr_db=args.snr, seed=args.seed)
    _write_text(args.out, result.to_csv())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pktdet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-coeff", help="emit a coefficient register dump")
    p.add_argument("--preamble", required=True, help="pn:seed=S,len=N or file:PATH")
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
    p.add_argument("--energy-window", type=int, default=16)
    p.add_argument("--energy-sample-thresh", type=float, default=0.5)
    p.add_argument("--energy-count-thresh", type=int, default=8)
    p.add_argument("--coarse-lag", type=int, default=None, help="enable coarse stage at lag L")
    p.add_argument("--coarse-thresh", type=float, default=0.5)
    p.add_argument("--coarse-plateau", type=int, default=8)
    p.add_argument("--no-coarse", action="store_true", help="force the coarse stage off")
    p.add_argument(
        "--rssi",
        type=int,
        choices=(0, 1),
        default=None,
        help="external RSSI carrier-sense flag ANDed into the energy gate",
    )
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("sweep", help="Monte-Carlo SNR sweep from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("scope", help="single capture, all correlator traces as CSV")
    p.add_argument("--snr", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None, help="sweep config (default demo scenario)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_scope)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
