"""Command line front end.

Subcommands: ratio, flux, amplitude-grid, sweep, oracle-check, presets.
Exit codes: 0 success, 1 usage or input error, 2 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from . import __version__
from .amplitude import AmplitudeKind, eval_reduced
from .observables import (
    builtin_channels,
    enhancement_ratio,
    load_kernel,
    photon_flux,
)
from .oracle import McSpec, default_check_configs, reduced_vs_full_check
from .quadrature import ConvergenceError
from .sweep import load_preset, preset_names, run_sweep, write_csv, write_jsonl
from .units import (
    ConfigError,
    DomainError,
    ExperimentConfig,
    Regime,
    load_config,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_CONVERGED = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract here reserves 2 for
    # numerical non-convergence, so route usage problems through exit 1
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qionize", description=__doc__)
    parser.add_argument("--version", action="version", version=f"qionize {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_options(p):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--length", type=float, help="crystal length override, um")
        p.add_argument("--pump-waist", type=float, help="pump waist override, um")
        p.add_argument(
            "--regime", choices=[r.value for r in Regime], help="dispersion regime override"
        )

    ratio = sub.add_parser("ratio", help="enhancement ratio at one configuration")
    add_config_options(ratio)
    ratio.add_argument("--channel", default="dipole", choices=sorted(builtin_channels()))
    ratio.add_argument("--kernel", help="kernel table file for channels above dipole")

    flux = sub.add_parser("flux", help="collected flux modulo the common filter constant")
    add_config_options(flux)
    flux.add_argument("--kind", default="separable", choices=[k.value for k in AmplitudeKind])

    grid = sub.add_parser("amplitude-grid", help="dump the reduced amplitude on an n x n grid")
    add_config_options(grid)
    grid.add_argument("--kind", default="entangled", choices=[k.value for k in AmplitudeKind])
    grid.add_argument("--n", type=int, default=101, help="grid points per axis")
    grid.add_argument("--out", help="output CSV path (default stdout)")

    sweep = sub.add_parser("sweep", help="run a preset parameter sweep")
    sweep.add_argument("--preset", required=True, choices=preset_names())
    sweep.add_argument("--out", required=True, help="output path (.csv)")
    sweep.add_argument("--format", default="csv", choices=("csv", "jsonl", "both"))
    sweep.add_argument("--workers", type=int, help="worker processes (capped by QIONIZE_THREADS)")

    oracle = sub.add_parser("oracle-check", help="cross-validate reduced vs full 6D ratios")
    oracle.add_argument("--configs", type=int, default=10)
    oracle.add_argument("--samples", type=int, default=1_000_000)
    oracle.add_argument("--seed", type=int, default=0)

    sub.add_parser("presets", help="list available sweep presets")
    return parser


def _load_base_config(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    overrides = {}
    if getattr(args, "length", None) is not None:
        overrides["crystal_length_um"] = args.length
    if getattr(args, "pump_waist", None) is not None:
        overrides["pump_waist_um"] = args.pump_waist
    if getattr(args, "regime", None) is not None:
        overrides["regime"] = Regime(args.regime)
    return cfg.replace(**overrides) if overrides else cfg


def _cmd_ratio(args) -> int:
    cfg = _load_base_config(args)
    channel = builtin_channels()[args.channel]
    if args.kernel:
        channel = channel.with_kernel(load_kernel(args.kernel))
    result = enhancement_ratio(cfg, channel)
    print(f"R = {result.R!r}")
    print(f"err_R = {result.err_R:.3e}")
    print(f"C_ratio = {result.C_ratio!r}")
    print(f"f_ent = {result.f_ent.value!r}")
    print(f"f_sep = {result.f_sep.value!r}")
    print(f"regime = {result.regime.value}")
    print(f"channel = {result.channel}")
    print(f"kernel = {result.diagnostics['kernel']}")
    return EXIT_OK


def _cmd_flux(args) -> int:
    cfg = _load_base_config(args)
    kind = AmplitudeKind(args.kind)
    value = photon_flux(kind, cfg)
    print(f"flux_reduced = {value.value!r}  (times symbolic {value.factor})")
    return EXIT_OK


def _cmd_amplitude_grid(args) -> int:
    cfg = _load_base_config(args)
    kind = AmplitudeKind(args.kind)
    if args.n < 2:
        raise _UsageError(f"--n must be >= 2, got {args.n}")
    k0 = cfg.k0
    # open square: keep strictly inside the kinematic edge
    edge = k0 * (1.0 - 1e-9)
    axis = np.linspace(-edge, edge, args.n)
    values = eval_reduced((axis[:, None], axis[None, :]), cfg, kind)
    lines = ["kix_per_um,ksx_per_um,amplitude"]
    for i in range(args.n):
        for j in range(args.n):
            # plain-float repr keeps the cells parseable and exact
            lines.append(f"{float(axis[i])!r},{float(axis[j])!r},{float(values[i, j])!r}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _at_least_one(flag: str, value: Optional[int]) -> None:
    if value is not None and value < 1:
        raise _UsageError(f"{flag} must be >= 1, got {value}")


def _cmd_sweep(args) -> int:
    _at_least_one("--workers", args.workers)
    preset = load_preset(args.preset)
    records = run_sweep(preset.plan, preset.base, workers=args.workers)
    wrote = []
    if args.format in ("csv", "both"):
        write_csv(records, args.out, preset.metadata)
        wrote.append(args.out)
    if args.format in ("jsonl", "both"):
        jsonl_path = args.out if args.format == "jsonl" else args.out + ".jsonl"
        write_jsonl(records, jsonl_path, preset.metadata)
        wrote.append(jsonl_path)
    failed = [r for r in records if not r.converged]
    print(f"wrote {len(records)} records to {', '.join(wrote)}")
    if failed:
        print(f"{len(failed)} points failed to converge", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _cmd_oracle_check(args) -> int:
    _at_least_one("--configs", args.configs)
    configs = default_check_configs(args.configs)
    spec = McSpec(samples=args.samples, seed=args.seed)
    all_agree = True
    for index, cfg in enumerate(configs):
        row = reduced_vs_full_check(cfg, spec)
        all_agree = all_agree and row.agrees
        verdict = "ok" if row.agrees else "DISAGREE"
        print(
            f"[{index}] L={cfg.crystal_length_um:.4g} waist={cfg.pump_waist_um:.4g} "
            f"R2d={row.R_reduced:.6f} R6d={row.R_full:.6f} sigma={row.sigma_full:.2e} "
            f"dev={row.rel_deviation:.4f} tol={row.tolerance:.4f} {verdict}"
        )
    print("agreement: " + ("all configs" if all_agree else "FAILED"))
    return EXIT_OK if all_agree else EXIT_NOT_CONVERGED


def _cmd_presets(_args) -> int:
    for name in preset_names():
        preset = load_preset(name)
        print(f"{name}: {preset.description}")
    return EXIT_OK


_COMMANDS = {
    "ratio": _cmd_ratio,
    "flux": _cmd_flux,
    "amplitude-grid": _cmd_amplitude_grid,
    "sweep": _cmd_sweep,
    "oracle-check": _cmd_oracle_check,
    "presets": _cmd_presets,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # argparse drops a flag value of "--" and stores [] in its place
        empty = [name for name, value in vars(args).items() if value == []]
        if empty:
            raise _UsageError(f"--{empty[0].replace('_', '-')}: expected one value")
        return _COMMANDS[args.command](args)
    except (_UsageError, ConfigError, DomainError, ValueError, OSError) as exc:
        print(f"qionize: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as exc:
        print(f"qionize: not converged: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
