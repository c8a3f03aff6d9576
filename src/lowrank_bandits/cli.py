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

from .errors import ConfigError
from .harness import ALGORITHMS, ExperimentConfig, compare, run_experiment

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

_DEFAULTS = {
    "d": 10,
    "k": 2,
    "M": 25,
    "T": 10_000,
    "noise_std": 1.0,
    "seeds": 20,
    "master_seed": 0,
    "epsilon": None,
    "delta": 0.05,
    "mode": "regret",
    "log_arg": "union",
    "trace_stride": 10,
    "out_dir": None,
    "format": "csv",
    "noiseless_oracle": False,
    "algorithms": None,
}


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    for flag, dest, typ, help_text in _OPTION_SPECS:
        parser.add_argument(flag, dest=dest, type=typ, default=None, help=help_text)
    parser.add_argument(
        "--mode",
        choices=["pure_exploration", "regret"],
        default=None,
        help="lll objective",
    )
    parser.add_argument(
        "--log-arg",
        dest="log_arg",
        choices=["union", "plain"],
        default=None,
        help="lll confidence log factor: log(2dM/delta) or log(2/delta)",
    )
    parser.add_argument(
        "--format",
        dest="format",
        choices=["csv", "json"],
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
    parser = argparse.ArgumentParser(
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
        help="comma-separated algorithms (default: mtrl,e2tc,independent)",
    )
    return parser


def _resolve_options(args: argparse.Namespace) -> dict:
    values = dict(_DEFAULTS)
    if args.config_file:
        with open(args.config_file) as handle:
            file_values = json.load(handle)
        if not isinstance(file_values, dict):
            raise ConfigError("config: file must hold a JSON object")
        unknown = set(file_values) - set(_DEFAULTS)
        if unknown:
            raise ConfigError(f"config: unknown keys {sorted(unknown)}")
        values.update(file_values)
    for key in _DEFAULTS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            values[key] = flag_value
    return values


def _experiment_config(algorithm: str, values: dict) -> ExperimentConfig:
    return ExperimentConfig(
        algorithm=algorithm,
        dim=values["d"],
        rep_dim=values["k"],
        num_tasks=values["M"],
        horizon=values["T"],
        noise_std=values["noise_std"],
        epsilon=values["epsilon"],
        delta=values["delta"],
        mode=values["mode"],
        log_arg=values["log_arg"],
        noiseless_oracle=values["noiseless_oracle"],
        num_seeds=values["seeds"],
        master_seed=values["master_seed"],
        trace_stride=values["trace_stride"],
        out_dir=values["out_dir"],
        output_format=values["format"],
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        values = _resolve_options(args)
        if args.command == "compare":
            algos = values["algorithms"] or "mtrl,e2tc,independent"
            if not isinstance(algos, str):
                raise ConfigError(f"algorithms: must be a string, got {algos!r}")
            algos = algos.split(",")
            algos = [a.strip() for a in algos if a.strip()]
            configs = [_experiment_config(a, values) for a in algos]
            table, written = compare(configs, out_dir=values["out_dir"])
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
            config = _experiment_config(args.command, values)
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
