#!/usr/bin/env python3
"""Compare this checkout with a parent commit in alternating benchmark pairs.

    python3 bench/compare.py PARENT [--pairs N] [--seconds S] [--seed0 K]
                             [--workload W ...] [--workdir DIR]

Run from anywhere inside the repository. PARENT's tree is extracted with
`git archive` (local objects only, no network) into a temporary directory,
and each side builds its own perfbench through its own perfbench/run.py.
Pair i runs both sides untraced on seed K + i; even pairs run this checkout
first, odd pairs the parent, since the first run of a pair can differ from
the second. For every end-to-end metric of BENCHMARK.json it prints each
side's median, the median ratio (this checkout / parent) with its
quartiles, the pairs this checkout wins out of N (a tie is neither a win
nor a loss) and a two-sided sign-test p-value.
Each pair's metric values go to stderr as one JSON line. Exits 1 if any
run fails its correctness gate.
"""
import argparse
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def sign_test_p(wins, losses):
    """Two-sided exact sign test of wins against losses (ties dropped)."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2.0 * tail / 2.0 ** n)


def ratio(new, old):
    if old == 0:
        return 1.0 if new == 0 else math.inf
    return new / old


def summarize(pairs, better):
    """pairs: [(new, old)] values of one metric. Returns the median ratio
    with its quartiles, each side's median, wins, losses and the sign-test
    p-value, a win being a pair where the new value is better in the
    metric's direction ("lower" or "higher")."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for new, old in pairs if sign * (new - old) > 0)
    losses = sum(1 for new, old in pairs if sign * (new - old) < 0)
    ratios = [ratio(n, o) for n, o in pairs]
    q1, median, q3 = (statistics.quantiles(ratios, n=4, method="inclusive")
                      if len(ratios) > 1 else ratios * 3)
    return {"median_ratio": median, "q1": q1, "q3": q3,
            "new": statistics.median(n for n, _ in pairs),
            "old": statistics.median(o for _, o in pairs),
            "wins": wins, "losses": losses, "p": sign_test_p(wins, losses)}


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], stdout=subprocess.PIPE,
                          check=True).stdout


def extract(commit, workdir):
    """The tree of `commit` under workdir/<its hash>, extracted once."""
    sha = git("rev-parse", "--verify", commit + "^{commit}").decode().strip()
    dest = os.path.join(workdir, sha[:12])
    if not os.path.isdir(dest):
        archive = git("archive", "--format=tar", sha)
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(dest + ".tmp")
        os.rename(dest + ".tmp", dest)
    return dest


def run(side, workload, seed, seconds):
    """One untraced run of perfbench in the checkout at `side`; returns its
    metric values, or None when it fails its gate."""
    cmd = [sys.executable, os.path.join(side, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=side, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    result = json.loads(lines[-1])
    if not result.get("correct"):
        return None
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="commit to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--workdir", help="directory for the parent's tree, "
                        "reused by later calls (default: a new temporary "
                        "directory)")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    workdir = args.workdir or tempfile.mkdtemp(prefix="fhdnn-compare-")
    sides = {"new": ROOT, "old": extract(args.parent, workdir)}
    failed = False
    for workload in workloads:
        runs = []
        for i in range(args.pairs):
            order = ("new", "old") if i % 2 == 0 else ("old", "new")
            pair = {s: run(sides[s], workload, args.seed0 + i, args.seconds)
                    for s in order}
            if None in pair.values():
                bad = [s for s in order if pair[s] is None]
                print("%s seed %d: %s failed" % (workload, args.seed0 + i,
                                                 " and ".join(bad)))
                failed = True
                continue
            runs.append(pair)
            print(json.dumps({"workload": workload, "seed": args.seed0 + i,
                              "first": order[0], **pair}), file=sys.stderr)
        for m in bench["end_to_end"]:
            name = m["name"]
            pairs = [(r["new"][name], r["old"][name]) for r in runs
                     if name in r["new"] and name in r["old"]]
            if not pairs:
                continue
            s = summarize(pairs, m["better"])
            print("%-13s %-22s %11.6g vs %11.6g  ratio %.4f (%.4f-%.4f)  "
                  "wins %2d/%d  losses %2d  p=%.4f"
                  % (workload, name, s["new"], s["old"], s["median_ratio"],
                     s["q1"], s["q3"], s["wins"], len(pairs), s["losses"],
                     s["p"]))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
