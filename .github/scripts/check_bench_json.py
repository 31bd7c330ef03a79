#!/usr/bin/env python3
"""Check files against the iatf-bench-v1 schema.

The schema is the one tune::write_bench_json writes
(include/iatf/tune/bench_json.hpp): a "format" tag, three hardware keys,
and a non-empty list of rows with eight typed keys each.

Usage: check_bench_json.py FILE...   (exit 1 on the first bad file)
"""
import json
import sys

HARDWARE = {"signature": str, "l1d": int, "l2": int}
ROW = {
    "experiment": str,
    "dtype": str,
    "mode": str,
    "n": int,
    "series": str,
    "value": (int, float),
    "unit": str,
    "reps": int,
}


def typed(value, kind):
    # bool is an int in Python; the schema never holds one.
    return isinstance(value, kind) and not isinstance(value, bool)


def keyed(obj, schema, where):
    if not isinstance(obj, dict):
        return [f"{where}: not an object"]
    errors = []
    if set(obj) != set(schema):
        errors.append(f"{where}: keys {sorted(obj)} != {sorted(schema)}")
    for key, kind in schema.items():
        if key in obj and not typed(obj[key], kind):
            errors.append(f"{where}.{key}: {obj[key]!r} has the wrong type")
    return errors


def check(path):
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        return [f"{path}: not an object"]
    errors = []
    if doc.get("format") != "iatf-bench-v1":
        errors.append(f"{path}: format {doc.get('format')!r}")
    errors += keyed(doc.get("hardware"), HARDWARE, f"{path}: hardware")
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        errors.append(f"{path}: no rows")
    else:
        for i, row in enumerate(rows):
            errors += keyed(row, ROW, f"{path}: rows[{i}]")
    return errors


def main(paths):
    if not paths:
        print(__doc__, file=sys.stderr)
        return 2
    for path in paths:
        errors = check(path)
        if errors:
            print("\n".join(errors[:20]), file=sys.stderr)
            return 1
        print(f"{path}: iatf-bench-v1 ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
