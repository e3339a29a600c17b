#!/usr/bin/env python3
"""Parse the JSON the engine emitted with a parser that is not the engine's.

Usage: check_json.py PATH... (a directory means every *.json and *.jsonl
file under it; "-" means one document on standard input).

A .jsonl file is parsed line by line (blank lines skipped), any other file
as one document. NaN, Infinity and -Infinity are refused: Python accepts
them by default, JSON does not. Exits 1 naming the first document that
fails, else prints how many documents parsed.
"""
import json
import pathlib
import sys


def refuse(constant):
    raise ValueError(f"{constant} is not JSON")


def unique(pairs):
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise ValueError(f"duplicate key among {[k for k, _ in pairs]}")
    return obj


def documents(arg):
    if arg == "-":
        yield "<stdin>", sys.stdin.read()
        return
    path = pathlib.Path(arg)
    files = sorted(p for p in path.rglob("*") if p.suffix in (".json", ".jsonl")) if path.is_dir() else [path]
    for f in files:
        text = f.read_text()
        if f.suffix == ".jsonl":
            for n, line in enumerate(text.splitlines(), 1):
                if line.strip():
                    yield f"{f}:{n}", line
        else:
            yield str(f), text


count = 0
for arg in sys.argv[1:]:
    for name, doc in documents(arg):
        try:
            json.loads(doc, parse_constant=refuse, object_pairs_hook=unique)
        except ValueError as e:
            sys.exit(f"{name}: {e}")
        count += 1
if count == 0:
    sys.exit("no JSON documents found")
print(f"{count} JSON documents parse")
