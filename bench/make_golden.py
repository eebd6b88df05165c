#!/usr/bin/env python3
"""Rewrite bench/golden.json: the reference plan/trace digest per workload.

Run only when the generator in bench/inputs.py changes on purpose; a
change to dalia must leave these digests as they are.

    python3 bench/make_golden.py
"""

import json
import sys

import run  # noqa: F401  (puts src/ on sys.path)
import workloads

if __name__ == "__main__":
    digests = {
        name: workloads.reference_digest(name, run.REFERENCE_SEED)
        for name in sorted(workloads.WORKLOADS)
    }
    run.GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    json.dump(digests, sys.stdout, indent=2)
