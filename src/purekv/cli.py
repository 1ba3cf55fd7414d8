"""Command-line entry point.

    purekv run --config cfg.json [--format json|csv] [--out path] [--seed N]
    purekv validate --config cfg.json
    purekv mask --layout T,P,prefix,suffix --pattern name[:param]

Exit codes: 0 success, 1 configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import engine, harness
from .cache import budget_to_wh
from .errors import ConfigurationError
from .masks import TokenLayout, build_mask, mask_to_text, parse_pattern


class _Parser(argparse.ArgumentParser):
    """argparse reports usage problems as configuration errors (exit 1)."""

    def error(self, message):
        raise ConfigurationError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="purekv", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    run = sub.add_parser("run", help="run the experiment grid and emit a report")
    run.add_argument("--config", required=True, help="experiment config JSON")
    run.add_argument("--format", choices=("json", "csv"), default="json")
    run.add_argument("--out", default=None, help="output path (default: stdout)")
    run.add_argument("--seed", type=int, default=None,
                     help="override the model and workload seeds")

    validate = sub.add_parser("validate", help="run only the cross-layer validation")
    validate.add_argument("--config", required=True, help="experiment config JSON")
    validate.add_argument("--seed", type=int, default=None,
                          help="override the model and workload seeds")

    mask = sub.add_parser("mask", help="print a sparsity mask as a 0/1 grid")
    mask.add_argument("--layout", required=True,
                      help="T,P,prefix,suffix (frames, patches, text prefix/suffix)")
    mask.add_argument("--pattern", required=True,
                      help="dense|local[:w]|atrous[:s]|spatial|temporal|spatial_temporal")
    return parser


def _override_seeds(raw: dict, seed: int) -> dict:
    raw = json.loads(json.dumps(raw))
    raw["model"]["seed"] = seed
    raw["workload"]["seed"] = seed
    return raw


def _load_config(args) -> harness.ExperimentConfig:
    config = harness.load_config(args.config)
    if args.seed is not None:
        config = harness.load_config(_override_seeds(config.raw, args.seed))
    return config


def _cmd_run(args) -> int:
    config = _load_config(args)
    report = harness.run_experiment(config)
    if args.out is None:
        sys.stdout.write(harness.render_report(report, args.format))
    else:
        harness.emit_report(report, args.format, args.out)
    return 0


def _cmd_validate(args) -> int:
    config = _load_config(args)
    model = engine.init_model(config.model)
    embeddings, _ = harness.generate_workload(config.workload, config.model.d_model)
    pattern = parse_pattern(config.patterns[0] if config.patterns else "dense", config.layout)
    w, _ = budget_to_wh(1.0, config.layout.total_len, config.recent_window_w)
    prompt = engine.prompt_pass(model, config.layout, pattern, config.st_layer_index, embeddings,
                                (w,), config.model.num_layers, tile_size=config.tile_size)
    [report] = engine.validate_cross_layer([prompt], w, config.clie_layer_index, config.n_perm,
                                           config.stats_seed)
    sys.stdout.write(json.dumps(harness._round6(report), indent=2) + "\n")
    return 0


def _cmd_mask(args) -> int:
    parts = args.layout.split(",")
    if len(parts) != 4:
        raise ConfigurationError(
            f"--layout expects T,P,prefix,suffix (four integers), got {args.layout!r}"
        )
    try:
        frames, patches, prefix, suffix = (int(p) for p in parts)
    except ValueError:
        raise ConfigurationError(f"--layout values must be integers, got {args.layout!r}") from None
    layout = TokenLayout(text_prefix_len=prefix, num_frames=frames,
                         patches_per_frame=patches, text_suffix_len=suffix)
    pattern = parse_pattern(args.pattern, layout)
    sys.stdout.write(mask_to_text(build_mask(layout, pattern)) + "\n")
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_mask(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
