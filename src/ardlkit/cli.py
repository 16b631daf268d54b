"""Batch command-line front end.

Subcommands:
    unitroot   ADF and PP tests on every column of a CSV file
    ardl       lag selection, bounds test, long-run and ECM per config
    pipeline   the full chain including unit-root screening and diagnostics
    simulate   write a seeded synthetic dataset as CSV
    render     re-render a saved JSON report as text (or JSON)

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
or degeneracy error, 5 refusal because a variable is integrated beyond
order one.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

from . import dataio, report as report_mod
from .dataio import IngestionConfig
from .errors import (
    ArdlkitError,
    ConfigError,
    DataError,
    I2VariablePresent,
    NumericalError,
)
from .pipeline import (
    load_config,
    read_config_file,
    run_pipeline,
    unit_root_table,
)
from .simgen import dgp_from_dict, generate
from .unitroot import UnitRootConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4
EXIT_I2 = 5


# parse_args leaves the parser as it found it, so one parser serves
# every call of main
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ardlkit",
        description="ARDL bounds-testing toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_unit = sub.add_parser("unitroot", help="unit-root tests on a CSV")
    p_unit.add_argument("--input", required=True, help="CSV file")
    p_unit.add_argument("--config", help="optional pipeline config for "
                                         "ingestion/test options")
    p_unit.add_argument("--output", help="write the report here")
    p_unit.add_argument("--format", choices=("json", "text"), default="text")

    p_ardl = sub.add_parser("ardl", help="ARDL estimation and bounds test")
    p_ardl.add_argument("--config", required=True)
    p_ardl.add_argument("--input", help="override the config input path")
    p_ardl.add_argument("--output", help="write the report here")
    p_ardl.add_argument("--format", choices=("json", "text"), default="text")
    p_ardl.add_argument("--force", action="store_true",
                        help="estimate long-run/ECM even without "
                             "cointegration")

    p_pipe = sub.add_parser("pipeline", help="full analysis pipeline")
    p_pipe.add_argument("--config", required=True)
    p_pipe.add_argument("--input", help="override the config input path")
    p_pipe.add_argument("--output", help="override the JSON output path")
    p_pipe.add_argument("--format", choices=("json", "text"), default="text")
    p_pipe.add_argument("--force", action="store_true")

    p_sim = sub.add_parser("simulate", help="write a synthetic dataset")
    p_sim.add_argument("--config", required=True,
                       help="YAML/JSON file with a dgp section")
    p_sim.add_argument("--seed", type=int, help="override the dgp seed")
    p_sim.add_argument("--output", required=True, help="CSV path to write")

    p_rend = sub.add_parser("render", help="re-render a JSON report")
    p_rend.add_argument("--input", required=True, help="report JSON file")
    p_rend.add_argument("--output", help="write rendering here")
    p_rend.add_argument("--format", choices=("json", "text"), default="text")
    return parser


def _emit(data: bytes, output: str | None) -> None:
    if output:
        Path(output).write_bytes(data)
    else:
        sys.stdout.write(data.decode("utf-8"))


def _cmd_pipeline(args) -> int:
    cfg = load_config(args.config)
    if args.input:
        cfg = dataclasses.replace(cfg, input_path=args.input)
    if args.force:
        cfg = dataclasses.replace(cfg, force=True)
    if args.output:
        cfg = dataclasses.replace(cfg, json_path=args.output)
    payload = report_mod.to_payload(run_pipeline(cfg))
    # each format is rendered once, whichever outputs ask for it
    render = functools.cache(
        lambda fmt: report_mod.render_payload(payload, fmt))
    if cfg.json_path:
        Path(cfg.json_path).write_bytes(render("json"))
    if cfg.text_path:
        Path(cfg.text_path).write_bytes(render("text"))
    sys.stdout.write(render(args.format).decode("utf-8"))
    return EXIT_OK


def _cmd_ardl(args) -> int:
    cfg = load_config(args.config)
    if args.input:
        cfg = dataclasses.replace(cfg, input_path=args.input)
    if args.force:
        cfg = dataclasses.replace(cfg, force=True)
    # The ardl subcommand is the pipeline minus the screening gate: run
    # everything, then strip the unit-root section from the payload.
    result = run_pipeline(cfg)
    payload = report_mod.to_payload(result)
    payload.pop("unit_root", None)
    _emit(report_mod.render_payload(payload, args.format), args.output)
    return EXIT_OK


def _cmd_unitroot(args) -> int:
    cfg = load_config(args.config) if args.config else None
    ds = dataio.load_csv(args.input,
                         cfg.ingestion if cfg else IngestionConfig())
    table = report_mod.unit_root_rows(unit_root_table(
        ds.series, cfg.unit_root if cfg else UnitRootConfig()))
    if args.format == "json":
        data = report_mod.render_payload({
            "schema_version": report_mod.SCHEMA_VERSION,
            "input": str(args.input), "table": table})
    else:
        lines = report_mod.unit_root_lines(table)
        lines.append(report_mod.STARS_LEGEND)
        data = ("\n".join(lines) + "\n").encode()
    _emit(data, args.output)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    payload = read_config_file(args.config)
    if not isinstance(payload, dict):
        raise ConfigError("simulate config must be a mapping")
    dgp_payload = payload.get("dgp", payload)
    if not isinstance(dgp_payload, dict):
        raise ConfigError("dgp section must be a mapping")
    dgp_payload = dict(dgp_payload)
    if args.seed is not None:
        dgp_payload["seed"] = args.seed
    ds = generate(dgp_from_dict(dgp_payload))
    dataio.save_csv(ds, args.output)
    sys.stdout.write(f"wrote {ds.n} observations to {args.output}\n")
    return EXIT_OK


def _cmd_render(args) -> int:
    path = Path(args.input)
    if not path.exists():
        raise DataError(f"report file not found: {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"report parse failure: {exc}") from None
    _emit(report_mod.render_payload(payload, args.format), args.output)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "pipeline": _cmd_pipeline,
        "ardl": _cmd_ardl,
        "unitroot": _cmd_unitroot,
        "simulate": _cmd_simulate,
        "render": _cmd_render,
    }
    try:
        return handlers[args.command](args)
    except I2VariablePresent as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_I2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ArdlkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
