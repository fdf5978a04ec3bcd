"""Traced stand-in for `python -m tdpair121 ...`.

    python3 perfbench/cli_child.py SUMMARY.json [--spans] <cli arguments>

Imports the package, installs the span tracer, runs the CLI's `main` with
the given arguments, and writes the per-span-name summary (and, with
--spans, the raw spans) to SUMMARY.json.  Standard output and the exit
code are the CLI's own.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer, summarise


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    keep_spans = bool(argv) and argv[0] == "--spans"
    if keep_spans:
        argv = argv[1:]
    import tdpair121.cli as cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        spans = tracer.take_spans()
        tracer.uninstall()
        doc = {"summary": summarise(spans)}
        if keep_spans:
            doc["spans"] = spans
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
