#!/usr/bin/env python3
"""Write the perf ledger: `python3 bench/ledger.py` on a quiet machine.

Every workload in BENCHMARK.json runs untraced through perfbench/run.py for
20 s on seeds 1-5. BENCH_<workload>.json gets the env stamp, each seed's
result line as printed, and per end-to-end metric of BENCHMARK.json the
median, Q1 and Q3 across seeds. If any run fails its gate, none is written.
"""
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3, 4, 5)
SECONDS = 20


def run(workload, seed):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
        sys.exit("ledger: %s seed %d failed its gate; nothing written"
                 % (workload, seed))
    env = next(l for l in lines if l.startswith("env "))[len("env "):]
    return env, lines[-1]


def ledger(workload, metrics, runs):
    summary = []
    for m in metrics:
        values = [json.loads(line)["metrics"][m["name"]]["value"]
                  for _, line in runs]
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        stats = {"unit": m["unit"], "better": m["better"], "median": median,
                 "q1": q1, "q3": q3}
        summary.append('    "%s": %s' % (m["name"], json.dumps(stats)))
    seeds = ['    {"seed": %d, "result": %s}' % (s, line)
             for s, (_, line) in zip(SEEDS, runs)]
    return ('{\n  "workload": "%s",\n  "seconds": %d,\n  "env": %s,\n'
            '  "runs": [\n%s\n  ],\n  "summary": {\n%s\n  }\n}\n'
            % (workload, SECONDS, runs[0][0], ",\n".join(seeds),
               ",\n".join(summary)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    runs = {w: [run(w, s) for s in SEEDS] for w in workloads}
    for w in workloads:
        with open(os.path.join(ROOT, "BENCH_%s.json" % w), "w") as f:
            f.write(ledger(w, bench["end_to_end"], runs[w]))


if __name__ == "__main__":
    main()
