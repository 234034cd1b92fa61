"""SHA-256 digests of the CLI's bytes on fuzzed poly lines.

Builds LINES poly lines from a fixed seed: half from a small grammar of
valid expressions, a quarter from the grammar with one token inserted,
deleted or replaced, and the rest drawn token by token from ALPHABET,
which holds bad characters, Unicode digits, 'u' names, x0 and x3, and
30-digit numbers.
Every 50th line nests parentheses to MAX_NESTING or past it, and every
50th line, 25 after those, raises a base to a power at MAX_POWER_SIZE or
past it.  Each line becomes the second poly line of a two-coordinate
system over Q or F_p, with spaces, a tab or nothing before 'poly', and is
run through ``troptri.cli.main`` in this process on standard input.  The
script prints one line per block of BLOCK lines: the block's number and
the SHA-256 of every run's exit code, stdout and stderr.  To check that a
parser change leaves the CLI's bytes as they were, run this from the root
of both trees and compare:

    PYTHONPATH=src python tests/parse_digests.py > parse-digests.txt
    diff parent-parse-digests.txt parse-digests.txt

``tests/test_parse_digests.py`` compares the blocks with those pinned in
``tests/parse_digests.json``.  The name keeps pytest from collecting this
script.
"""

import hashlib
import json
import random

from helpers import cli_run
from troptri.sysparse import MAX_NESTING, MAX_POWER_SIZE

SEED = 18
LINES = 20_000
BLOCK = 1_000
BIG = "123456789012345678901234567890"
ALPHABET = (
    ["x1", "x2", "x0", "x3", "t", "u1", "uv", "y", "1", "2", "7", "0", "10", BIG, "٣"]
    + list("+-*^/()")
    + ["@", "é", "²", " ", "\t"]
)
HEADERS = ("", " q", " fp:2", " fp:7", " fp:10007")
INDENTS = ("", " ", "  ", "\t", " \t ")


def grammar_line(rng, depth=0):
    """A valid expression in x1, x2 and t with small exponents."""
    kind = rng.randrange(7 if depth < 3 else 3)
    if kind == 0:
        n = rng.choice(["0", "1", "2", "3", "7", "10", "٣", BIG])
        return n if rng.random() < 0.7 else "%s/%s" % (n, rng.choice(["1", "2", "3", "7"]))
    if kind == 1:
        return rng.choice(["x1", "x2", "x2", "x2"])
    if kind == 2:
        e = rng.choice(["", "^2", "^-1", "^(1/2)", "^(-3/2)", "^(2/4)", "^" + BIG])
        return "t" + e
    left, right = grammar_line(rng, depth + 1), grammar_line(rng, depth + 1)
    if kind == 3:
        return "%s + %s" % (left, right)
    if kind == 4:
        return "%s - %s" % (left, right)
    if kind == 5:
        return "(%s)*(%s)" % (left, right)
    return "(%s)^%d" % (left, rng.randrange(4))


def mutated(rng, line):
    """``line`` with one token inserted, deleted or replaced."""
    tokens = line.split(" ")
    i = rng.randrange(len(tokens) + 1)
    choice = rng.randrange(3)
    if choice == 0 or i == len(tokens):
        tokens.insert(i, rng.choice(ALPHABET))
    elif choice == 1:
        del tokens[i]
    else:
        tokens[i] = rng.choice(ALPHABET)
    return " ".join(tokens)


def soup_line(rng):
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randint(1, 14)))


def poly_line(rng, index):
    if index % 50 == 0:
        depth = MAX_NESTING + rng.randrange(-1, 3)
        return "(" * depth + "x2 - t" + ")" * depth
    if index % 50 == 25:
        return rng.choice(
            [
                "x2^%d" % (MAX_POWER_SIZE + rng.randrange(-1, 2)),
                "(x2 + 1)^%d" % (MAX_POWER_SIZE - 1 + rng.randrange(3)),
                "(x2 + t + 1)^%d" % rng.randrange(20, 24),
                "(x2 - 1)*(2*x2 + t^%s)^300" % BIG,
            ]
        )
    pick = rng.random()
    if pick >= 0.75:
        return soup_line(rng)
    line = grammar_line(rng)
    if rng.random() < 0.5:  # most lines then use x2, so the CLI solves them
        line = "x2*(%s) - %s" % (line, grammar_line(rng))
    return line if pick < 0.5 else mutated(rng, line)


def system_text(rng, index):
    indent = rng.choice(INDENTS)
    comment = "  # c" if rng.random() < 0.1 else ""
    return "ring x1 x2%s\npoly x1 - 1 - t\n%spoly %s%s\n" % (
        rng.choice(HEADERS),
        indent,
        poly_line(rng, index),
        comment,
    )


def block_digests():
    """The SHA-256 of each block of BLOCK runs, in order."""
    rng = random.Random(SEED)
    digest = hashlib.sha256()
    for index in range(LINES):
        digest.update(json.dumps(cli_run(system_text(rng, index), [])).encode())
        if (index + 1) % BLOCK == 0:
            yield digest.hexdigest()
            digest = hashlib.sha256()


def main():
    for block, digest in enumerate(block_digests()):
        print(block, digest)


if __name__ == "__main__":
    main()
