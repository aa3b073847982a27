"""Command-line entry point.

Subcommands map one-to-one onto the harness experiments, and each takes
only the flags its experiment reads.  A flat ``key = value`` config file
can seed those flags; explicit flags win.  Exit codes: 0 success,
1 verification failure, 2 bad arguments, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import ExperimentConfig, HarnessIOError, run

CHANNEL_FLAGS = {"ad": "AD", "pd": "PD", "pd-verbatim": "PD_verbatim",
                 "d": "D"}

# Flag / config key -> (ExperimentConfig field, parser of the text form,
# argparse options of the flag).
_FIELD_SPEC = {
    "n_states": ("n_states", int, {"type": int}),
    "steps": ("n_time_steps", int,
              {"type": int, "help": "time steps for sweeps"}),
    "channel": ("channel", lambda s: CHANNEL_FLAGS.get(s, s),
                {"choices": sorted(CHANNEL_FLAGS)}),
    "seed": ("seed", int, {"type": int}),
    "out": ("output_path", str, {}),
    "format": ("output_format", str, {"choices": ("csv", "json")}),
    "threads": ("threads", int, {"type": int}),
    "k": ("k", float, {"type": float}),
    "p": ("p", float, {"type": float}),
}

# Subcommand -> (experiment, the keys it reads, ExperimentConfig defaults
# that differ for it).
SUBCOMMANDS = {
    "census": ("census", ("n_states", "seed", "out", "format", "threads"),
               {}),
    "sweep": ("decoherence_sweep", ("n_states", "steps", "channel", "seed",
                                    "out", "format", "threads"),
              {"n_states": 2000}),
    "verify": ("protocol_verify", ("seed", "k", "p", "out"), {}),
    "iso-curve": ("iso_curve", ("out", "format"), {}),
    "extension": ("extension_verify", ("k",), {}),
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
    for name, (_, keys, _) in SUBCOMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None,
                       help="flat key = value file; flags override it")
        for key in keys:
            p.add_argument("--" + key.replace("_", "-"), default=None,
                           **_FIELD_SPEC[key][2])
    return parser


def make_config(args: argparse.Namespace) -> ExperimentConfig:
    """Config from the file and flags.  A file may name any known key, so
    that one file serves several subcommands; keys this subcommand does
    not read are ignored."""
    experiment, keys, defaults = SUBCOMMANDS[args.command]
    values = dict(defaults)
    if args.config:
        for key, raw in _read_config_file(args.config).items():
            if key not in _FIELD_SPEC:
                raise ValueError(f"unknown config key {key!r}")
            if key in keys:
                field, parse, _ = _FIELD_SPEC[key]
                values[field] = parse(raw)
    for key in keys:
        flag = getattr(args, key)
        if flag is not None:
            field, parse, _ = _FIELD_SPEC[key]
            values[field] = parse(flag)
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
