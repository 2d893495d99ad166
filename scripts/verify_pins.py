#!/usr/bin/env python3
"""Check `grouplie verify` and `grouplie table` JSON against pinned SHA-256s.

Usage:
    PYTHONPATH=src python scripts/verify_pins.py [GROUP ...]

The digests of `verify --group G --format json` live in
tests/data/verify_sha256.json, and those of `table --group G --format json`
in tests/data/table_scale_sha256.json; with no group named, every pin of
both files is checked, and a named group is checked against each file that
pins it.  Prints one line per check, with its digest and its wall seconds,
and exits 1 if any digest differs; a group with no pin is refused before any
run, with one line on stderr, and exit 1.
"""

import contextlib
import hashlib
import io
import json
import sys
import time
from pathlib import Path

from grouplie.cli import main as grouplie_main

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"
PINS = {"verify": DATA / "verify_sha256.json", "table": DATA / "table_scale_sha256.json"}


def main(specs: list[str]) -> int:
    pins = {command: json.loads(path.read_text()) for command, path in PINS.items()}
    pinned = list(dict.fromkeys(spec for digests in pins.values() for spec in digests))
    unpinned = [spec for spec in specs if spec not in pinned]
    if unpinned:
        print(f"error: no pin for {' '.join(unpinned)}; the pinned groups are "
              f"{' '.join(pinned)}", file=sys.stderr)
        return 1
    failed = 0
    for command, digests in pins.items():
        for spec in [spec for spec in specs or digests if spec in digests]:
            out = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out):
                code = grouplie_main([command, "--group", spec, "--format", "json"])
            seconds = time.perf_counter() - start
            digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
            ok = code == 0 and digest == digests[spec]
            failed += not ok
            print(f"{'ok' if ok else 'FAIL'} {command} {spec} {digest} {seconds:.2f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
