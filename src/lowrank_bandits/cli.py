"""Command-line benchmark runner.

Subcommands: ``mtrl``, ``e2tc``, ``independent``, ``lll``, ``compare``.
Options may also come from a JSON config file (``--config``); explicit
flags override file values, which override defaults.  Exit code 0 on
success, 2 on a configuration or I/O error (with a one-line structured
message on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .errors import ConfigError
from .harness import ALGORITHMS, OUTPUT_FORMATS, ExperimentConfig, compare, run_experiment
from .lll import LOG_ARGS, MODES

_COMPARE_DEFAULT = "mtrl,e2tc,independent"  # the algorithms compare runs when none are named

_OPTION_SPECS = [
    # (flag, dest, type, help)
    ("--d", "d", int, "ambient dimension"),
    ("--k", "k", int, "shared representation dimension"),
    ("--M", "M", int, "number of tasks"),
    ("--T", "T", int, "per-task horizon"),
    ("--noise-std", "noise_std", float, "reward noise standard deviation"),
    ("--seeds", "seeds", int, "number of replicates"),
    ("--master-seed", "master_seed", int, "master seed for the replicate streams"),
    ("--epsilon", "epsilon", float, "target accuracy (lll pure exploration)"),
    ("--delta", "delta", float, "failure probability (lll)"),
    ("--trace-stride", "trace_stride", int, "trace thinning stride (0 disables)"),
    ("--out-dir", "out_dir", str, "output directory for result files"),
]

# Config-file keys (and flag dests) that differ from their ExperimentConfig field.
_KEY_FIELDS = {
    "d": "dim",
    "k": "rep_dim",
    "M": "num_tasks",
    "T": "horizon",
    "seeds": "num_seeds",
    "format": "output_format",
}
_FIELD_KEYS = {field: key for key, field in _KEY_FIELDS.items()}
_CONFIG_KEYS = [
    _FIELD_KEYS.get(f.name, f.name) for f in fields(ExperimentConfig) if f.name != "algorithm"
]


class _Parser(argparse.ArgumentParser):
    """Turns a usage error into a ``ConfigError``; subparsers inherit the class."""

    def error(self, message):
        raise ConfigError(message)


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    for flag, dest, typ, help_text in _OPTION_SPECS:
        parser.add_argument(flag, dest=dest, type=typ, default=None, help=help_text)
    parser.add_argument(
        "--mode",
        choices=MODES,
        default=None,
        help="lll objective",
    )
    parser.add_argument(
        "--log-arg",
        dest="log_arg",
        choices=LOG_ARGS,
        default=None,
        help="lll confidence log factor: log(2dM/delta) or log(2/delta)",
    )
    parser.add_argument(
        "--format",
        dest="format",
        choices=OUTPUT_FORMATS,
        default=None,
        help="curves output format",
    )
    parser.add_argument(
        "--noiseless-oracle",
        dest="noiseless_oracle",
        action="store_true",
        default=None,
        help="exact least-squares estimates (requires --noise-std 0)",
    )
    parser.add_argument(
        "--config",
        dest="config_file",
        type=str,
        default=None,
        help="JSON file with option values; explicit flags override it",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lowrank-bandits",
        description="Benchmark multi-task and lifelong linear bandits with a shared low-rank representation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ALGORITHMS:
        cmd = sub.add_parser(name, help=f"run the {name} algorithm")
        _add_common_options(cmd)
    cmp_cmd = sub.add_parser(
        "compare", help="run several algorithms on identical instances"
    )
    _add_common_options(cmp_cmd)
    cmp_cmd.add_argument(
        "--algorithms",
        type=str,
        default=None,
        help=f"comma-separated algorithms (default: {_COMPARE_DEFAULT})",
    )
    return parser


def _resolve_options(args: argparse.Namespace) -> dict:
    """Options set by flags or the config file, keyed by ``ExperimentConfig`` field.

    Explicit flags override file values; options set by neither are left out
    and keep the ``ExperimentConfig`` defaults.
    """
    keys = _CONFIG_KEYS + (["algorithms"] if args.command == "compare" else [])
    values = {}
    if args.config_file:
        with open(args.config_file) as handle:
            file_values = json.load(handle)
        if not isinstance(file_values, dict):
            raise ConfigError("config: file must hold a JSON object")
        unknown = set(file_values) - set(keys)
        if unknown:
            raise ConfigError(f"config: unknown keys for {args.command}: {sorted(unknown)}")
        values.update(file_values)
    for key in keys:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            values[key] = flag_value
    return {_KEY_FIELDS.get(key, key): value for key, value in values.items()}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        options = _resolve_options(args)
        if args.command == "compare":
            algos = options.pop("algorithms", None) or _COMPARE_DEFAULT
            if not isinstance(algos, str):
                raise ConfigError(f"algorithms: must be a string, got {algos!r}")
            algos = algos.split(",")
            algos = [a.strip() for a in algos if a.strip()]
            configs = [ExperimentConfig(algorithm=a, **options) for a in algos]
            table, written = compare(configs, out_dir=options.get("out_dir"))
            for summary in table["summaries"]:
                final = summary["final_regret"]
                print(
                    f"{summary['algorithm']}: n={summary['n_runs']} "
                    f"mean_final={final['mean']:.2f} se={final['se']:.2f}"
                )
            for pair in table["pairs"]:
                print(
                    f"{pair['a']} - {pair['b']}: mean_diff={pair['mean_diff']:.2f} "
                    f"pooled_se={pair['pooled_se']:.2f}"
                )
        else:
            config = ExperimentConfig(algorithm=args.command, **options)
            records, written = run_experiment(config)
            summary_final = sum(r.final_regret for r in records) / len(records)
            print(
                f"{config.algorithm}: n={len(records)} mean_final={summary_final:.2f}"
            )
        for path in written:
            print(f"wrote {path}")
        return 0
    except (ConfigError, OSError, ValueError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
