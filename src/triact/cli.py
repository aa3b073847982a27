"""Command-line entry point.

Subcommands map one-to-one onto the harness experiments, and each takes
only the flags its experiment reads.  A flat ``key = value`` config file
can seed those flags; explicit flags win.  Exit codes: 0 success,
1 verification failure, 2 bad arguments (returned, not raised), 3 I/O
error or a closed stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .harness import CHANNELS, ExperimentConfig, HarnessIOError, run

CHANNEL_FLAGS = {name.lower().replace("_", "-"): name for name in CHANNELS}


def number(text: str):
    """An int for integer text, else a float: ``extension`` takes only an
    integer k, ``verify`` any real one."""
    try:
        return int(text)
    except ValueError:
        return float(text)


# Flag / config key -> (ExperimentConfig field, argparse options).
_FIELD_SPEC = {
    "n_states": ("n_states", {"type": int}),
    "steps": ("n_time_steps", {"type": int, "help": "time steps for sweeps"}),
    "channel": ("channel", {"choices": sorted(CHANNEL_FLAGS)}),
    "seed": ("seed", {"type": int}),
    "out": ("output_path", {}),
    "format": ("output_format", {"choices": ("csv", "json")}),
    "threads": ("threads", {"type": int}),
    "k": ("k", {"type": number}),
    "p": ("p", {"type": float}),
}

# Subcommand -> (experiment, the keys it reads).  Unset flags take the
# ExperimentConfig defaults.
SUBCOMMANDS = {
    "census": ("census", ("n_states", "seed", "out", "format", "threads")),
    "sweep": ("decoherence_sweep", ("n_states", "steps", "channel", "seed",
                                    "out", "format", "threads")),
    "verify": ("protocol_verify", ("seed", "k", "p", "out")),
    "iso-curve": ("iso_curve", ("out", "format")),
    "extension": ("extension_verify", ("k",)),
}


def _with_config(args: argparse.Namespace, argv: list) -> list:
    """argv with the lines of ``args.config`` as ``--key=value`` flags put
    first, so that explicit flags win.  Known keys this subcommand does
    not read are dropped, so that one file serves several subcommands."""
    tokens = []
    with open(args.config) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{fh.name}:{line_no}: expected key = value")
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _FIELD_SPEC:
                raise ValueError(f"{fh.name}:{line_no}: unknown key {key!r}")
            if key in SUBCOMMANDS[args.command][1]:
                tokens.append(f"--{key.replace('_', '-')}={val.strip()}")
    return [args.command, *tokens, *argv[1:]]


class _Parser(argparse.ArgumentParser):
    """Raises ValueError for ``main`` to report, instead of exiting."""

    def error(self, message):
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="triact",
        description="Tripartite nonlocality-activation experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, keys) in SUBCOMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config",
                       help="flat key = value file; flags override it")
        for key in keys:
            p.add_argument("--" + key.replace("_", "-"), **_FIELD_SPEC[key][1])
    return parser


def make_config(args: argparse.Namespace) -> ExperimentConfig:
    """Config from the flags that were set."""
    experiment, keys = SUBCOMMANDS[args.command]
    values = {_FIELD_SPEC[key][0]: value for key, value in vars(args).items()
              if key in keys and value is not None}
    if "channel" in values:
        values["channel"] = CHANNEL_FLAGS[values["channel"]]
    return ExperimentConfig(experiment=experiment, **values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
        if args.config is not None:
            tokens = _with_config(args, argv)
            try:
                args = build_parser().parse_args(tokens)
            except ValueError as exc:
                raise ValueError(f"{args.config}: {exc}") from None
        cfg = make_config(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        result = run(cfg)
    except HarnessIOError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        print(json.dumps(result, indent=1), flush=True)
    except BrokenPipeError:
        # The reader is gone.  Point stdout at devnull so that the flush
        # at interpreter exit does not fail on the same pipe again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 3
    return 0 if result.get("all_passed", True) else 1


if __name__ == "__main__":
    sys.exit(main())
