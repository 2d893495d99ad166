#!/usr/bin/env python3
"""Check `grouplie verify --group G --format json` against its pinned SHA-256.

Usage:
    PYTHONPATH=src python scripts/verify_pins.py [GROUP ...]

The digests live in tests/data/verify_sha256.json; with no group named, every
pinned group is checked.  Prints one line per group and exits 1 if any
digest differs; a group with no pin is refused before any run, with one
line on stderr, and exit 1.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from grouplie.cli import main as grouplie_main

PINS = Path(__file__).resolve().parent.parent / "tests" / "data" / "verify_sha256.json"


def main(specs: list[str]) -> int:
    pins = json.loads(PINS.read_text())
    unpinned = [spec for spec in specs if spec not in pins]
    if unpinned:
        print(f"error: no pin for {' '.join(unpinned)}; the pinned groups are "
              f"{' '.join(pins)}", file=sys.stderr)
        return 1
    failed = 0
    for spec in specs or list(pins):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = grouplie_main(["verify", "--group", spec, "--format", "json"])
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        ok = code == 0 and digest == pins[spec]
        failed += not ok
        print(f"{'ok' if ok else 'FAIL'} {spec} {digest}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
