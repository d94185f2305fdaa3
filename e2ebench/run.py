#!/usr/bin/env python3
"""RustSight end-to-end benchmark: one command, run from the checkout root.

    python3 e2ebench/run.py --workload check_cold --seed 1 --seconds 20 \
        --trace 0

Builds `rustsight` and `rsbench` (Release), generates the seeded labeled
corpus, drives the binary as users do, checks every verdict against the
generator's labels and prints each metric by name with its unit. The last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}. `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
traced replay and reports the per-layer ones. See e2ebench/README.md."""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from e2elib import build, metrics, workloads  # noqa: E402


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=metrics.WORKLOADS + metrics.MANUAL_WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    try:
        rustsight, rsbench = build.build(root)
    except build.BuildError as e:
        print("e2ebench: " + str(e), file=sys.stderr)
        return 2

    run = workloads.Run(args.workload, args.seed, args.seconds, root,
                        rustsight, rsbench)
    out_dir = os.path.join(root, ".e2ebench_work", "results")
    os.makedirs(out_dir, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    try:
        ops_ms = []
        if args.trace:
            trace_out = os.path.join(out_dir, stem + ".trace.json")
            attempted, failed, values, info = workloads.trace(run, trace_out)
            names = metrics.per_layer()
            info["chrome_trace"] = os.path.relpath(trace_out, root)
        else:
            tally, values, info = workloads.measure(run)
            attempted, failed = tally.attempted, tally.failed
            ops_ms = tally.ms
            names = metrics.END_TO_END
        facts = build.facts(root, run.work)
    except workloads.Failure as e:
        print("e2ebench: " + str(e), file=sys.stderr)
        return 1
    finally:
        run.cleanup()

    print("e2ebench %s seed=%d seconds=%g trace=%d" %
          (args.workload, args.seed, args.seconds, args.trace))
    print("machine: " + " ".join("%s=%s" % kv for kv in facts.items()))
    for key, value in info.items():
        print("%s: %s" % (key, json.dumps(value)))
    for line in run.notes:
        print("note: " + line)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in names},
    }
    for name, unit in names:
        print("%s %s %.6g %s" % (args.workload, name, values[name], unit))
    with open(os.path.join(out_dir, stem + ".json"), "w") as f:
        json.dump(dict(result, machine=facts, info=info, notes=run.notes,
                       ops_ms=ops_ms), f)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
