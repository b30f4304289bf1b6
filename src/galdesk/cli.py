"""Batch front end: run builtin suites or scenario files, emit reports.

Exit codes: 0 when every check passes; 1 when a mathematical check fails,
in a report or as a `VerificationFailure` raised inside galdesk; 2 on an
`InputError` (unreadable file, schema violation, unknown builtin, or any
payload a layer refuses).  Each error prints one line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import scenarios as sc
from .errors import InputError, VerificationFailure

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


def _render_table(report: dict) -> str:
    lines = []
    scenario = report.get("scenario", "<file>")
    lines.append(f"scenario: {scenario}    seed: {report.get('seed', '-')}")
    lines.append("-" * 64)
    for c in report["checks"]:
        status = "PASS" if c["pass"] else "FAIL"
        extra = {k: v for k, v in c.items() if k not in ("name", "pass")}
        suffix = f"    {json.dumps(extra, sort_keys=True)}" if extra else ""
        lines.append(f"[{status}] {c['name']}{suffix}")
    for key, value in sorted(report.items()):
        if key in ("checks", "status", "scenario", "seed"):
            continue
        lines.append(f"{key}: {json.dumps(value, sort_keys=True)}")
    lines.append(f"status: {report['status']}")
    return "\n".join(lines)


def _emit(report: dict, fmt: str, out_path: str | None) -> None:
    if fmt == "json":
        text = json.dumps(report, sort_keys=True, indent=2)
    else:
        text = _render_table(report)
    if out_path:
        Path(out_path).write_text(text + "\n")
    else:
        print(text)


def _run(args) -> dict:
    path = Path(args.scenario)
    if not path.exists():
        seed = args.seed if args.seed is not None else 0
        return sc.run_builtin(args.scenario, seed, args.precision)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise sc.ScenarioError(f"line {exc.lineno}: {exc.msg}") from exc
    except (OSError, ValueError, RecursionError) as exc:
        raise sc.ScenarioError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise sc.ScenarioError("scenario document must be a JSON object")
    version, kind = doc.get("version"), doc.get("kind")
    if version != sc.SCHEMA_VERSION or isinstance(version, bool):
        raise sc.ScenarioError(f"unsupported schema version {version!r}")
    if kind not in sc.KINDS:
        raise sc.ScenarioError(f"kind must be one of {sc.KINDS}, got {kind!r}")
    if not isinstance(doc.get("payload"), dict):
        raise sc.ScenarioError("missing payload object")
    if "seed" not in doc:
        raise sc.ScenarioError("seed is mandatory for reproducible runs")
    seed = sc._int(doc["seed"], "seed")
    seed = args.seed if args.seed is not None else seed
    report = sc.run_scenario_payload(kind, doc["payload"], seed, args.precision)
    report["scenario"] = str(path)
    report["seed"] = seed
    return report


def cmd_run(args) -> int:
    try:
        report = _run(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    _emit(report, args.format, args.out)
    return EXIT_OK if report["status"] == "pass" else EXIT_CHECK_FAILED


def cmd_list(args) -> int:
    catalog = sc.list_builtins()
    if args.format == "json":
        print(json.dumps(catalog, sort_keys=True, indent=2))
    else:
        width = max(len(c["id"]) for c in catalog)
        for c in catalog:
            print(f"{c['id']:<{width}}  {c['description']}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="galdesk",
        description="exact desk calculators: root data, tame cohomology, "
                    "Selmer systems, numerology, p-adic weights",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a builtin suite or a scenario file")
    run.add_argument("scenario", help="builtin id or path to a scenario JSON file")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--precision", type=int, default=None,
                     help="p-adic precision of padic-log-suite, 2..256 (default 8); "
                          "any other run given it exits 2")
    run.add_argument("--out", default=None, help="write the report here instead of stdout")
    run.add_argument("--format", choices=("json", "table"), default="json")
    run.set_defaults(func=cmd_run)
    lst = sub.add_parser("list", help="list builtin scenarios")
    lst.add_argument("--format", choices=("json", "table"), default="table")
    lst.set_defaults(func=cmd_list)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
