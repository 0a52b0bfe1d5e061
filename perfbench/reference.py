#!/usr/bin/env python3
"""Record the reference digests that the benchmark checks outputs against.

    python3 perfbench/reference.py

Runs each workload's command with seeds 0, 7 and 12345, requires the three
structured outputs to be byte-identical, and writes the whole-output and
per-group sha256 digests to perfbench/reference.json. Run it only on a
commit whose reports are known to be right: the digests are the
byte-identity gate that later changes are held to.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run

SEEDS = (0, 7, 12345)


def main():
    sys.path.insert(0, str(run.SRC))
    reference = {}
    for name in sorted(run.WORKLOADS):
        texts = set()
        for seed in SEEDS:
            _, _, code, text, _ = run.run_iteration(run.WORKLOADS[name], seed)
            if code != 0:
                run.fail(f"{name} exited with {code} at seed {seed}")
            texts.add(text)
        if len(texts) != 1:
            run.fail(f"{name}: output depends on the seed")
        text = texts.pop()
        digests, _ = run.group_digests(text)
        reference[name] = {
            "output_sha256": hashlib.sha256(text.encode()).hexdigest(),
            "groups": digests,
        }
        print(f"{name}: {len(digests)} group(s), {len(text)} bytes")
    run.REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True)
                             + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
