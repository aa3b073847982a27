"""Command-line entry point.

Subcommands map one-to-one onto the harness experiments.  A flat
``key = value`` config file can seed any flag; explicit flags win.
Exit codes: 0 success, 1 verification failure, 2 bad arguments,
3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import ExperimentConfig, HarnessIOError, run

CHANNEL_FLAGS = {"ad": "AD", "pd": "PD", "pd-verbatim": "PD_verbatim",
                 "d": "D"}
SUBCOMMANDS = {
    "census": "census",
    "sweep": "decoherence_sweep",
    "verify": "protocol_verify",
    "iso-curve": "iso_curve",
    "extension": "extension_verify",
}


def _read_config_file(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key = value")
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triact",
        description="Tripartite nonlocality-activation experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None,
                       help="flat key = value file; flags override it")
        p.add_argument("--n-states", type=int, default=None)
        p.add_argument("--steps", type=int, default=None,
                       help="time steps for sweeps")
        p.add_argument("--channel", choices=sorted(CHANNEL_FLAGS),
                       default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--k", type=float, default=None)
        p.add_argument("--p", type=float, default=None)
        p.add_argument("--d", type=int, default=None)
    return parser


# Maps CLI/config names to ExperimentConfig fields and parsers.
_FIELD_SPEC = {
    "n_states": ("n_states", int),
    "steps": ("n_time_steps", int),
    "channel": ("channel", lambda s: CHANNEL_FLAGS.get(s, s)),
    "seed": ("seed", int),
    "out": ("output_path", str),
    "format": ("output_format", str),
    "threads": ("threads", int),
    "k": ("k", float),
    "p": ("p", float),
    "d": ("d", int),
}

# Per-experiment defaults where they differ from the dataclass ones.
_DEFAULTS = {
    "decoherence_sweep": {"n_states": 2000, "n_time_steps": 200},
}


def make_config(args: argparse.Namespace) -> ExperimentConfig:
    experiment = SUBCOMMANDS[args.command]
    values = dict(_DEFAULTS.get(experiment, {}))
    if args.config:
        for key, raw in _read_config_file(args.config).items():
            if key not in _FIELD_SPEC:
                raise ValueError(f"unknown config key {key!r}")
            field, parse = _FIELD_SPEC[key]
            values[field] = parse(raw)
    for key, (field, parse) in _FIELD_SPEC.items():
        flag = getattr(args, key, None)
        if flag is not None:
            values[field] = parse(flag) if isinstance(flag, str) else flag
    return ExperimentConfig(experiment=experiment, **values)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = make_config(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        result = run(cfg)
    except HarnessIOError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    printable = {k: v for k, v in result.items() if k != "records"}
    print(json.dumps(printable, indent=1, default=float))
    if cfg.experiment in ("protocol_verify", "extension_verify"):
        if not result["all_passed"]:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
