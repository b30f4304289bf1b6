"""Batch front end: run builtin suites or scenario files, emit reports.

Exit codes: 0 when every check passes, 1 when a mathematical check fails,
2 on input errors (unreadable file, schema violation, unknown builtin).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import scenarios as sc

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


def _load_scenario_file(path: Path) -> dict:
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise sc.ScenarioError(f"line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise sc.ScenarioError("scenario document must be a JSON object")
    if doc.get("version") != sc.SCHEMA_VERSION:
        raise sc.ScenarioError(f"unsupported schema version {doc.get('version')!r}")
    kind = doc.get("kind")
    if kind not in sc.KINDS:
        raise sc.ScenarioError(f"kind must be one of {sc.KINDS}, got {kind!r}")
    if "payload" not in doc or not isinstance(doc["payload"], dict):
        raise sc.ScenarioError("missing payload object")
    if "seed" not in doc:
        raise sc.ScenarioError("seed is mandatory for reproducible runs")
    try:
        doc["seed"] = int(doc["seed"])
    except (TypeError, ValueError):
        raise sc.ScenarioError(f"seed must be an integer, got {doc['seed']!r}") from None
    return doc


def cmd_run(args) -> int:
    target = args.scenario
    try:
        path = Path(target)
        if path.exists():
            doc = _load_scenario_file(path)
            seed = args.seed if args.seed is not None else doc["seed"]
            report = sc.run_scenario_payload(doc["kind"], doc["payload"], seed,
                                             args.precision)
            report["scenario"] = str(path)
            report["seed"] = seed
        else:
            seed = args.seed if args.seed is not None else 0
            report = sc.run_builtin(target, seed, args.precision)
    except sc.ScenarioError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
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
    run.add_argument("--precision", type=int, default=None)
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
