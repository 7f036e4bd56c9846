#!/usr/bin/env python3
"""Records or checks the simulator workloads' deterministic cost counters.

Run from the repository root:

    python3 perfbench/counters.py record   # rewrite perfbench/counters.json
    python3 perfbench/counters.py check    # exit 1 if any counter moved

The counters are the metrics that depend only on the seed: simulated delay
and delivery, bytes and messages per node-second per message kind, events
per delivery, pool reuse, the tree/pull delivery split, pulls, exhausted
retries and per-node bytes. They repeat exactly on every run of a seed, so a
change that moves one changed the simulated behaviour or its cost, whatever
the host's speed.
"""

import argparse
import json
import os
import subprocess
import sys

from run import BENCH_DIR, BINARY, build

COUNTERS_FILE = os.path.join(BENCH_DIR, "counters.json")
SEED = 1
SIM_WORKLOADS = ("steady", "stream", "recovery")
SIMULATED_END_TO_END = ("delay_p50_ms", "delay_p99_ms", "delay_tail_ms",
                        "delivered_frac", "redundancy",
                        "ctrl_bytes_per_node_s", "frame_delivered_frac")
DETERMINISTIC_PREFIXES = ("net.msgs_per_node_s.", "net.bytes_per_node_s.")
DETERMINISTIC_LAYER = (
    "sim.events", "sim.events_per_delivery", "net.pool_reuse_ratio",
    "tree.delivery_share", "gocast.pull_share", "gocast.pulls_sent",
    "gocast.pull_retries_exhausted", "sim.engine_bytes", "net.network_bytes",
    "gocast.node_object_bytes", "membership.view_bytes",
    "gocast.dissemination_bytes", "overlay.bytes", "tree.bytes")


def run_once(workload, seed, trace):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                         env=dict(os.environ, GOCAST_THREADS="1"))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"counters.py: {workload} seed {seed} failed its checks")
    return result["metrics"]


def counters_for(workload, seed):
    end_to_end = run_once(workload, seed, 0)
    per_layer = run_once(workload, seed, 1)
    counters = {name: end_to_end[name]["value"]
                for name in SIMULATED_END_TO_END}
    for name, metric in per_layer.items():
        if name in DETERMINISTIC_LAYER or name.startswith(
                DETERMINISTIC_PREFIXES):
            counters[name] = metric["value"]
    return counters


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("record", "check"))
    args = parser.parse_args()
    if not build():
        return 1

    measured = {w: counters_for(w, SEED) for w in SIM_WORKLOADS}
    if args.mode == "record":
        with open(COUNTERS_FILE, "w", encoding="utf-8") as f:
            json.dump({"seed": SEED, "workloads": measured}, f,
                      indent=2, sort_keys=True)
            f.write("\n")
        return 0

    with open(COUNTERS_FILE, encoding="utf-8") as f:
        recorded = json.load(f)
    moved = 0
    for workload, counters in recorded["workloads"].items():
        for name, value in counters.items():
            now = measured[workload].get(name)
            if now != value:
                moved += 1
                print(f"{workload} {name}: recorded {value}, now {now}")
    print(f"{moved} counters moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
