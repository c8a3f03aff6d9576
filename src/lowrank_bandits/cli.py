"""Command-line benchmark runner.

Subcommands: ``mtrl``, ``e2tc``, ``independent``, ``lll``, ``compare``.
Options may also come from a JSON config file (``--config``); explicit
flags override file values, which override defaults.  Exit code 0 on
success, 2 on a configuration or I/O error or when memory runs out (with a
one-line structured message on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError
from .harness import ALGORITHMS, ExperimentConfig, compare, run_experiment
from .lll import MODES

_COMPARE_DEFAULT = "mtrl,e2tc,independent"  # the algorithms compare runs when none are named

# One row per option: flag, ExperimentConfig field, argparse keywords, help.
# The option's config-file key is the flag's argparse dest ("--noise-std" ->
# "noise_std").
_OPTIONS = [
    ("--d", "dim", {"type": int}, "ambient dimension"),
    ("--k", "rep_dim", {"type": int}, "shared representation dimension"),
    ("--M", "num_tasks", {"type": int}, "number of tasks"),
    ("--T", "horizon", {"type": int}, "per-task horizon"),
    ("--noise-std", "noise_std", {"type": float}, "reward noise standard deviation"),
    ("--seeds", "num_seeds", {"type": int}, "number of replicates"),
    ("--master-seed", "master_seed", {"type": int}, "master seed for the replicate streams"),
    ("--epsilon", "epsilon", {"type": float}, "target accuracy (lll pure exploration)"),
    ("--delta", "delta", {"type": float}, "failure probability (lll)"),
    ("--trace-stride", "trace_stride", {"type": int}, "trace thinning stride (0 disables)"),
    ("--out-dir", "out_dir", {"type": str}, "output directory for result files"),
    ("--mode", "mode", {"choices": MODES}, "lll objective"),
    ("--noiseless-oracle", "noiseless_oracle", {"action": "store_true"}, "exact least-squares estimates (requires --noise-std 0)"),
]

# Config-file key -> ExperimentConfig field; the keys are the accepted ones.
_KEY_FIELDS = {flag[2:].replace("-", "_"): field for flag, field, _, _ in _OPTIONS}


class _Parser(argparse.ArgumentParser):
    """Turns a usage error into a ``ConfigError``; subparsers inherit the class."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lowrank-bandits",
        description="Benchmark multi-task and lifelong linear bandits with a shared low-rank representation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: f"run the {name} algorithm" for name in ALGORITHMS}
    commands["compare"] = "run several algorithms on identical instances"
    for name, command_help in commands.items():
        cmd = sub.add_parser(name, help=command_help)
        for flag, _, keywords, option_help in _OPTIONS:
            cmd.add_argument(flag, default=None, help=option_help, **keywords)
        cmd.add_argument(
            "--config",
            dest="config_file",
            type=str,
            default=None,
            help="JSON file with option values; explicit flags override it",
        )
    sub.choices["compare"].add_argument(
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
    keys = [*_KEY_FIELDS, *(["algorithms"] if args.command == "compare" else [])]
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
            algos = [a.strip() for a in algos.split(",") if a.strip()]
            configs = [ExperimentConfig(algorithm=a, **options) for a in algos]
            table, written = compare(configs)
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
    except (ConfigError, OSError, ValueError, MemoryError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
