"""Command line front end: one subcommand per experiment, data files out.

    phononet <experiment> --config run.json [--out DIR] [--format csv|json]

The configuration is a flat JSON object

    {"experiment": "filter", "parameters": {...}, "seed": 0,
     "output": {"path": "...", "format": "csv"}}

with experiment-specific parameter keys (frequencies in ordinary Hz);
unknown keys are rejected.  Every output file carries a metadata header
with the fully resolved configuration, so any emitted file reproduces its
run.  Exit codes: 0 success, 2 configuration error, 3 numerical failure
(out of memory included).
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import __version__
from .errors import ConfigError, PhononetError
from .experiments import EXPERIMENTS, RUNNERS, resolve_parameters

_TOP_KEYS = {"experiment", "parameters", "seed", "output"}
_OUTPUT_KEYS = {"path", "format"}
_FORMATS = ("csv", "json")


@dataclass(frozen=True)
class RunConfig:
    """Validated run description with all defaults resolved."""

    experiment: str
    parameters: dict = field(default_factory=dict)
    seed: int = 0
    output_path: str | None = None
    output_format: str = "csv"

    def as_dict(self) -> dict:
        d = {
            "experiment": self.experiment,
            "parameters": self.parameters,
            "seed": self.seed,
        }
        if self.output_path is not None:
            d["output"] = {"path": self.output_path, "format": self.output_format}
        return d


def parse_config(text: str, experiment: str | None = None) -> RunConfig:
    """Parse and validate a JSON run configuration.

    ``experiment`` (from the subcommand) must agree with the config when
    both are given.  Unknown keys raise ConfigError naming the key path.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("configuration must be a JSON object")
    for key in raw:
        if key not in _TOP_KEYS:
            raise ConfigError(f"unknown key {key!r}")

    exp = raw.get("experiment", experiment)
    if exp is None:
        raise ConfigError("missing required key 'experiment'")
    if not isinstance(exp, str) or exp not in EXPERIMENTS:
        raise ConfigError(
            f"'experiment' must be one of {', '.join(EXPERIMENTS)}; got {exp!r}"
        )
    if experiment is not None and exp != experiment:
        raise ConfigError(
            f"config is for experiment {exp!r} but the {experiment!r} subcommand was used"
        )

    params = raw.get("parameters", {})
    if not isinstance(params, dict):
        raise ConfigError("'parameters' must be an object")
    params = resolve_parameters(exp, params)

    seed = raw.get("seed", 0)
    if not isinstance(seed, int):
        raise ConfigError(f"'seed' must be an integer, got {seed!r}")

    out_path, out_format = None, "csv"
    out = raw.get("output")
    if out is not None:
        if not isinstance(out, dict):
            raise ConfigError("'output' must be an object")
        for key in out:
            if key not in _OUTPUT_KEYS:
                raise ConfigError(f"unknown key 'output.{key}'")
        out_path = out.get("path")
        out_format = out.get("format", "csv")
        if out_format not in _FORMATS:
            raise ConfigError(f"'output.format' must be csv|json, got {out_format!r}")

    return RunConfig(exp, params, seed, out_path, out_format)


def render_csv(config: RunConfig, columns, rows, extras, timestamp: str) -> str:
    """17-significant-digit CSV of the float table ``rows`` with a re-parseable
    metadata header; a whole value prints without a point (1.0 as 1)."""
    lines = [
        f"# phononet {__version__}",
        f"# generated: {timestamp}",
        f"# experiment: {config.experiment}",
        f"# config: {json.dumps(config.as_dict(), sort_keys=True)}",
    ]
    if extras:
        lines.append(f"# metadata: {json.dumps(extras, sort_keys=True)}")
    lines.append(",".join(columns))
    pattern = ",".join(["%.17g"] * len(columns))
    lines.extend(pattern % tuple(row) for row in rows.tolist())
    return "\n".join(lines) + "\n"


def render_json(config: RunConfig, columns, rows, extras, timestamp: str) -> str:
    doc = {
        "tool": "phononet",
        "version": __version__,
        "generated": timestamp,
        "config": config.as_dict(),
        "metadata": extras,
        "columns": list(columns),
        "data": rows.tolist(),
    }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def run_experiment(config: RunConfig, out_dir: Path) -> Path:
    """Execute a run and write its output file; returns the path."""
    columns, table, extras = RUNNERS[config.experiment](config.parameters)
    timestamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    if config.output_path is not None:
        path = Path(config.output_path)
        if not path.is_absolute():
            path = out_dir / path
    else:
        path = out_dir / f"{config.experiment}.{config.output_format}"
    path.parent.mkdir(parents=True, exist_ok=True)
    render = render_csv if config.output_format == "csv" else render_json
    path.write_text(render(config, columns, table, extras, timestamp), newline="\n")
    return path


@functools.cache  # built once per process; parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phononet",
        description="Phononic-network noise filtering, state transfer and routing.",
    )
    parser.add_argument("--version", action="version", version=f"phononet {__version__}")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        sp = sub.add_parser(name, help=f"run the {name} experiment")
        sp.add_argument("--config", type=Path, required=False,
                        help="JSON run configuration (defaults apply if omitted)")
        sp.add_argument("--out", type=Path, default=Path("."),
                        help="output directory (default: current)")
        sp.add_argument("--format", choices=_FORMATS, default=None,
                        help="override the output format")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config is not None:
            try:
                text = args.config.read_text()
            except OSError as exc:
                raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        else:
            text = json.dumps({"experiment": args.experiment})
        config = parse_config(text, args.experiment)
        if args.format is not None:
            config = replace(config, output_format=args.format)
        path = run_experiment(config, args.out)
    except ConfigError as exc:
        print(f"phononet: configuration error: {exc}", file=sys.stderr)
        return 2
    except PhononetError as exc:
        print(f"phononet: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # a size the schema admits but this machine cannot hold
        print(f"phononet: MemoryError: {exc}", file=sys.stderr)
        return 3
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
