"""The CLI's bytes on the fuzzed poly lines of ``parse_digests.py`` are pinned.

``tests/parse_digests.json`` holds the SHA-256 of each block of runs, so a
parser change that moves any exit code, output or error message shows here
with its block's number.  After a deliberate change,
``python tests/test_parse_digests.py`` (with ``src`` on the path) rewrites
``tests/parse_digests.json`` and prints to stderr, one line each, every block
whose digest changed: ``<block>: <old> -> <new>``.
"""

import json
import sys
from pathlib import Path

from parse_digests import block_digests

DIGESTS = Path(__file__).resolve().parent / "parse_digests.json"


def test_fuzzed_parse_digests_match_the_pinned_blocks():
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = list(block_digests())
    changed = [block for block, (a, b) in enumerate(zip(pinned, got)) if a != b]
    assert len(got) == len(pinned)
    assert not changed, "CLI bytes changed in blocks %s" % changed


if __name__ == "__main__":
    old = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else []
    new = list(block_digests())
    for block in range(max(len(old), len(new))):
        a = old[block] if block < len(old) else None
        b = new[block] if block < len(new) else None
        if a != b:
            print("%d: %s -> %s" % (block, a, b), file=sys.stderr)
    DIGESTS.write_text(json.dumps(new, indent=1) + "\n", encoding="utf-8")
