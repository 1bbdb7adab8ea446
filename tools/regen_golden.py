#!/usr/bin/env python3
"""Re-record the pins of the golden-run corpus (tests/golden/cli.txt).

Runs every corpus line through a built lens-cli, each in a fresh scratch
directory that replaces `{tmp}`, and rewrites the line's stdout and file
hashes (64-bit FNV-1a, as io::fnv1a) in place. Comments, argv and the
must-fail lines (`argv | exit=1 | error=...`, which pin no hash) are kept
verbatim. test_golden checks the same pins in-process; re-record only when
an output is meant to move, and explain every changed line.

    python3 tools/regen_golden.py build/tools/lens-cli [tests/golden/cli.txt]
"""

import os
import subprocess
import sys
import tempfile

TMP = "{tmp}"


def fnv1a(data: bytes) -> str:
    # io::kFnvOffsetBasis, which is not the textbook FNV-1a basis
    # (14695981039346656037): match the C++ hash, not the textbook one.
    h = 1469598103934665603
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


def record(cli: str, line: str) -> str:
    fields = [f.strip() for f in line.split("|")]
    if any(f.startswith("exit=") for f in fields[1:]):
        return line
    argv = fields[0]
    files = [f.rsplit("=", 1)[0] for f in fields[1:] if not f.startswith("stdout=")]
    with tempfile.TemporaryDirectory(prefix="lens-golden-") as scratch:
        words = [w.replace(TMP, scratch) for w in argv.split()]
        run = subprocess.run([cli] + words, stdout=subprocess.PIPE, check=False)
        if run.returncode != 0:
            sys.exit(f"exit {run.returncode}: {argv}")
        out = run.stdout.replace(scratch.encode(), TMP.encode())
        pins = [f"stdout={fnv1a(out)}"]
        for name in files:
            with open(name.replace(TMP, scratch), "rb") as f:
                pins.append(f"{name}={fnv1a(f.read())}")
        if len(os.listdir(scratch)) != len(files):
            sys.exit(f"writes files its line does not pin: {argv}")
    return " | ".join([argv] + pins)


def main() -> None:
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    cli = os.path.abspath(sys.argv[1])
    corpus = sys.argv[2] if len(sys.argv) == 3 else os.path.join(
        os.path.dirname(__file__), "..", "tests", "golden", "cli.txt")
    with open(corpus) as f:
        lines = f.read().splitlines()
    out = [l if not l.strip() or l.lstrip().startswith("#") else record(cli, l)
           for l in lines]
    with open(corpus, "w") as f:
        f.write("\n".join(out) + "\n")


if __name__ == "__main__":
    main()
