#!/usr/bin/env python3
"""Validate BENCH_<name>.json reports against bench/bench_schema.json.

Stdlib only (the build image has no jsonschema package): implements exactly
the JSON-Schema keyword subset the schema file uses — type, const, required,
properties, additionalProperties, minProperties, minimum, items — and errors
out on any schema keyword it does not know, so the schema file cannot
silently grow past what is enforced.

Beyond the schema, histogram sanity is checked directly: min <= p50 <= p95
<= p99 <= max (the percentile walk clamps to the observed max, so any other
ordering means the exporter or the histogram math regressed).

Usage: validate_bench_json.py --schema bench/bench_schema.json BENCH_*.json
"""

import argparse
import json
import sys

HANDLED = {
    "$schema", "title", "description",  # annotations
    "type", "const", "required", "properties", "additionalProperties",
    "minProperties", "minimum", "items",
}


def type_ok(value, expected):
    if expected == "object":
        return isinstance(value, dict)
    if expected == "array":
        return isinstance(value, list)
    if expected == "string":
        return isinstance(value, str)
    if expected == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if expected == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    raise SystemExit(f"schema error: unsupported type {expected!r}")


def validate(value, schema, path, errors):
    unknown = set(schema) - HANDLED
    if unknown:
        raise SystemExit(f"schema error: unhandled keywords {sorted(unknown)} at {path}")

    if "const" in schema and value != schema["const"]:
        errors.append(f"{path}: expected {schema['const']!r}, got {value!r}")
        return
    if "type" in schema and not type_ok(value, schema["type"]):
        errors.append(f"{path}: expected {schema['type']}, got {type(value).__name__}")
        return
    if "minimum" in schema and isinstance(value, (int, float)) and value < schema["minimum"]:
        errors.append(f"{path}: {value} below minimum {schema['minimum']}")

    if isinstance(value, list) and "items" in schema:
        for index, item in enumerate(value):
            validate(item, schema["items"], f"{path}[{index}]", errors)

    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                errors.append(f"{path}: missing required property {key!r}")
        if "minProperties" in schema and len(value) < schema["minProperties"]:
            errors.append(f"{path}: needs at least {schema['minProperties']} properties, has {len(value)}")
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key, item in value.items():
            if key in props:
                validate(item, props[key], f"{path}.{key}", errors)
            elif extra is False:
                errors.append(f"{path}: unexpected property {key!r}")
            elif isinstance(extra, dict):
                validate(item, extra, f"{path}.{key}", errors)


def check_histogram_ordering(report, path, errors):
    for name, hist in report.get("histograms", {}).items():
        if not isinstance(hist, dict):
            continue
        stats = [hist.get(k) for k in ("min", "p50", "p95", "p99", "max")]
        if all(isinstance(s, int) for s in stats) and stats != sorted(stats):
            errors.append(f"{path}.histograms.{name}: percentiles not monotone: "
                          f"min/p50/p95/p99/max = {stats}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--schema", required=True)
    parser.add_argument("reports", nargs="+", metavar="BENCH_JSON")
    args = parser.parse_args()

    with open(args.schema, encoding="utf-8") as f:
        schema = json.load(f)

    failed = False
    for report_path in args.reports:
        try:
            with open(report_path, encoding="utf-8") as f:
                report = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"FAIL {report_path}: {exc}")
            failed = True
            continue
        errors = []
        validate(report, schema, "$", errors)
        check_histogram_ordering(report, "$", errors)
        if errors:
            failed = True
            print(f"FAIL {report_path}")
            for error in errors:
                print(f"  {error}")
        else:
            hists = len(report.get("histograms", {}))
            counters = len(report.get("counters", {}))
            print(f"OK   {report_path}: {counters} counters, {hists} histograms")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
