"""Command line front end.

Runs a named scenario from a JSON config (plus dotted --set overrides),
validates the config against a schema with field-level error messages,
echoes the resolved config, and writes the report tables next to a summary.
Exit codes: 0 all checks passed, 2 a scenario check failed, 1 usage or
runtime error. Only verbosity and thread count may come from environment
variables; everything else lives in the config so runs are reproducible.
"""

from __future__ import annotations

import argparse
import inspect
import json
import logging
import os
import sys
from pathlib import Path

import jsonschema

from .games import GAME_CATALOG
from .scenarios import SCENARIOS

log = logging.getLogger("mfglab")

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["scenario"],
    "additionalProperties": False,
    "properties": {
        "scenario": {"type": "string", "enum": sorted(SCENARIOS)},
        "seed": {"type": "integer", "minimum": 0},
        "threads": {"type": "integer", "minimum": 1, "maximum": 256},
        "params": {"type": "object"},
    },
}


def _parse_set(assignment: str):
    if "=" not in assignment:
        raise ValueError(f"--set expects key=value, got {assignment!r}")
    key, raw = assignment.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.strip(), value


def _apply_set(config: dict, key: str, value) -> None:
    parts = key.split(".")
    node = config
    for p in parts[:-1]:
        node = node.setdefault(p, {})
        if not isinstance(node, dict):
            raise ValueError(f"cannot descend into non-object at {p!r} in {key!r}")
    node[parts[-1]] = value


def _validate(config: dict) -> list:
    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    msgs = []
    for err in sorted(validator.iter_errors(config), key=lambda e: list(e.absolute_path)):
        where = ".".join(str(p) for p in err.absolute_path) or "<root>"
        msgs.append(f"config error at {where}: {err.message}")
    if not msgs:
        msgs = _param_errors(config["scenario"], config["params"])
    return msgs


def _param_errors(scenario: str, params: dict) -> list:
    """Names in params that the scenario's runner does not take, and values of the wrong kind."""
    sig = inspect.signature(SCENARIOS[scenario]).parameters.values()
    open_ended = any(p.kind is inspect.Parameter.VAR_KEYWORD for p in sig)  # a wrapper: cannot tell
    accepted = {p.name: p.default for p in sig if p.kind is inspect.Parameter.KEYWORD_ONLY and p.name not in ("seed", "threads")}
    msgs = []
    for key in sorted(params):
        if key in ("seed", "threads"):
            msgs.append(f"config error at params.{key}: set {key} at the top level, not under params")
        elif key in accepted:
            msgs += _kind_errors(f"params.{key}", params[key], accepted[key])
        elif not open_ended:
            msgs.append(f"config error at params.{key}: scenario {scenario!r} has no parameter {key!r}; "
                        f"it takes {', '.join(accepted)}")
    return msgs


_KINDS = ((bool, (bool,), "a boolean"), (int, (int,), "an integer"), (float, (int, float), "a number"), (str, (str,), "a string"))


def _kind_errors(where: str, value, default) -> list:
    """Messages for a JSON value that lacks the kind of the runner's default.

    Kinds are boolean, integer, number (an int or a float) and string; a
    tuple default takes a list whose entries have the kind of its first entry.
    """
    if isinstance(default, tuple):
        if not isinstance(value, list):
            return [f"config error at {where}: expected a list, got {type(value).__name__} {value!r}"]
        return [m for i, v in enumerate(value) for m in _kind_errors(f"{where}[{i}]", v, default[0])] if default else []
    for kind, fits, name in _KINDS:
        if isinstance(default, kind):
            if isinstance(value, fits) and isinstance(value, bool) == (kind is bool):
                return []
            return [f"config error at {where}: expected {name}, got {type(value).__name__} {value!r}"]
    return []


_LOG_LEVELS = {"0": logging.WARNING, "1": logging.INFO, "2": logging.DEBUG}


def _env_log_level() -> int:
    raw = os.environ.get("MFGLAB_VERBOSE", "0")
    if raw not in _LOG_LEVELS:
        raise ValueError(f"environment variable MFGLAB_VERBOSE must be 0, 1 or 2, got {raw!r}")
    return _LOG_LEVELS[raw]


def _env_threads() -> int:
    raw = os.environ.get("MFGLAB_THREADS", "1")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"environment variable MFGLAB_THREADS must be an integer thread count, got {raw!r}") from None


def _resolve_config(args) -> dict:
    config = {}
    if args.config:
        config = json.loads(Path(args.config).read_text())
        if not isinstance(config, dict):
            raise ValueError("config file must contain a JSON object")
    if args.scenario:
        config["scenario"] = args.scenario
    if args.seed is not None:
        config["seed"] = args.seed
    if args.threads is not None:
        config["threads"] = args.threads
    for assignment in args.set or []:
        key, value = _parse_set(assignment)
        _apply_set(config, key, value)
    config.setdefault("seed", 0)
    if "threads" not in config:
        config["threads"] = _env_threads()
    config.setdefault("params", {})
    return config


def cmd_run(args) -> int:
    config = _resolve_config(args)
    errors = _validate(config)
    if errors:
        for msg in errors:
            print(msg, file=sys.stderr)
        return 1
    print("resolved config: " + json.dumps(config, sort_keys=True))
    runner = SCENARIOS[config["scenario"]]
    report = runner(seed=config["seed"], threads=config["threads"], **config["params"])
    out_dir = Path(args.out) if args.out else Path("mfglab_out") / config["scenario"]
    report.write(out_dir, svg=args.svg)
    print(report.summary_text(), end="")
    print(f"report written to {out_dir}")
    return 0 if report.passed else 2


def cmd_list_catalog(args) -> int:
    for name in sorted(GAME_CATALOG):
        print(f"game: {name}")
    for name in sorted(SCENARIOS):
        print(f"scenario: {name}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mfglab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario and write its report")
    run.add_argument("scenario", nargs="?", help="scenario name (or set it in the config file)")
    run.add_argument("--config", help="path to a JSON config file")
    run.add_argument("--seed", type=int, default=None, help="root seed (default 0)")
    run.add_argument("--threads", type=int, default=None,
                     help="worker threads, each taking whole chunks of repetitions (default MFGLAB_THREADS or 1)")
    run.add_argument("--out", default=None, help="output directory (default mfglab_out/<scenario>)")
    run.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override a config field, e.g. --set params.reps=50")
    run.add_argument("--svg", action="store_true", help="also write an SVG plot of the run curves")
    run.set_defaults(func=cmd_run)

    cat = sub.add_parser("list-catalog", help="list built-in games and scenarios")
    cat.set_defaults(func=cmd_list_catalog)
    return parser


def main(argv=None) -> int:
    """Run the command line; MFGLAB_VERBOSE sets the mfglab log level for the call.

    Log records go to the root logger's handlers, a stderr handler unless
    the caller installed its own, and never into the report files.
    """
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    previous = log.level
    try:
        log.setLevel(_env_log_level())
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        log.setLevel(previous)


if __name__ == "__main__":
    sys.exit(main())
