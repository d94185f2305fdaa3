#!/usr/bin/env python3
"""Compare two `rustsight check --json` reports file by file, ignoring one
victim file.

A supervised run with an injected worker fault must quarantine exactly the
victim and leave every other file's entry byte-identical to a fault-free
run. This prints each entry that differs and exits 1 if any does.

Usage: tools/diff_except_victim.py VICTIM_SUBSTRING WANT.json GOT.json
"""

import json
import sys


def entries(path, victim):
    with open(path, encoding="utf-8") as f:
        files = json.load(f)["files"]
    return [e for e in files if victim not in e["path"]]


def main(argv):
    if len(argv) != 4:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    victim, want_path, got_path = argv[1:]
    want, got = entries(want_path, victim), entries(got_path, victim)
    if [e["path"] for e in want] != [e["path"] for e in got]:
        print(f"file lists differ between {want_path} and {got_path}")
        return 1
    bad = [w["path"] for w, g in zip(want, got)
           if json.dumps(w) != json.dumps(g)]
    for path in bad:
        print(f"entry differs: {path}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
