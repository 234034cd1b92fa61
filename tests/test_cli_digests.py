"""The CLI's exact bytes on a fixed corpus, pinned by SHA-256 digests.

Each system runs through ``troptri.cli.main`` with three flag sets: JSON
with the tree, plain text, and ``--newton-svg``.  One digest covers the
exit code, stdout, stderr and, for the SVG run, every file name and its
bytes.  ``tests/cli_digests.json`` holds the digests of an earlier
release, so any change in output, traversal or formatting shows here and
names its system and flags.  After a deliberate output change,
``python tests/test_cli_digests.py > tests/cli_digests.json`` (with
``src`` on the path) writes the new digests.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

import pytest

from oracle_systems import prefix_cancelling_system_with_expected_points, random_system_with_expected_points
from troptri import format_system
from troptri.cli import main

DIGESTS = Path(__file__).resolve().parent / "cli_digests.json"

FLAG_SETS = {
    "json-tree": ("--format", "json", "--tree"),
    "text": ("--format", "text"),
    "newton-svg": ("--newton-svg",),
}

FP_SYSTEMS = {
    "fp7-two-lines": "ring x1 x2 fp:7\npoly (x1 - 1 - t)*(x1 - 2 - t^2)\npoly x2^2 - t*x1\n",
    "fp5-close-roots": "ring x1 x2 fp:5\npoly (x1 - 1 - t^2)*(x1 - 1 - t - t^2)\npoly x2 - (x1 - 1 - t)\n",
    "fp7-no-split": "ring x1 x2 fp:7\npoly x1^2 - 3\npoly x2 - x1^2 + 3 + t\n",
    "fp2-three-lines": "ring x1 x2 x3 fp:2\npoly (x1 - 1)*(x1 - t)\npoly x2^2 + x1*x2 + t\npoly x3 - x2 - 1\n",
    "fp3-fractional": "ring x1 x2 fp:3\npoly x1^2 - t\npoly (x2 - x1 - 2)*(x2 - 2 - t^(3/2))\n",
    "fp999983-large": (
        "ring x1 x2 fp:999983\npoly (x1 - 123456 - t)*(x1 - 654321 + t^2)\n"
        "poly x2 - x1 + 123456 - 5*t^(1/2)\n"
    ),
}


def systems():
    """Name -> system text: oracle systems at fixed seeds, then the F_p systems."""
    out = {}
    for seed in range(30):
        system, _ = random_system_with_expected_points(random.Random(seed), 4, 3)
        out["oracle-%02d" % seed] = format_system(system)
    for seed in range(6):
        system, _ = prefix_cancelling_system_with_expected_points(random.Random(seed))
        out["prefix-cancelling-%02d" % seed] = format_system(system)
    out.update(FP_SYSTEMS)
    return out


SYSTEMS = systems()


def cli_digest(text, flags, workdir):
    """SHA-256 of one CLI run: exit code, stdout, stderr and any SVG files."""
    workdir = Path(workdir)
    source = workdir / "system.txt"
    source.write_text(text)
    argv = ["--input", str(source), *flags]
    svg_dir = workdir / "svg"
    if flags and flags[-1] == "--newton-svg":
        argv.append(str(svg_dir))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    digest = hashlib.sha256(json.dumps([code, out.getvalue(), err.getvalue()]).encode())
    if svg_dir.is_dir():
        for name in sorted(os.listdir(svg_dir)):
            digest.update(b"\0" + name.encode() + b"\0" + (svg_dir / name).read_bytes())
    return digest.hexdigest()


def _key(system, flags):
    return "%s %s" % (system, flags)


CASES = [(s, f) for s in SYSTEMS for f in FLAG_SETS]


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_corpus_covers_every_pinned_digest(pinned):
    assert len(SYSTEMS) >= 40
    assert sorted(pinned) == sorted(_key(s, f) for s, f in CASES)


@pytest.mark.parametrize("system, flags", CASES, ids=[_key(s, f).replace(" ", "-") for s, f in CASES])
def test_cli_bytes_match_the_pinned_digest(tmp_path, pinned, system, flags):
    got = cli_digest(SYSTEMS[system], FLAG_SETS[flags], tmp_path)
    assert got == pinned[_key(system, flags)], "CLI bytes changed for system %s with %s" % (
        system, " ".join(FLAG_SETS[flags]))


if __name__ == "__main__":
    digests = {}
    for system, flags in CASES:
        with tempfile.TemporaryDirectory() as workdir:
            digests[_key(system, flags)] = cli_digest(SYSTEMS[system], FLAG_SETS[flags], workdir)
    json.dump(digests, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
