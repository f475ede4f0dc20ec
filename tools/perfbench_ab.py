#!/usr/bin/env python3
"""A/B the repository benchmark: a base revision against the working tree.

    python3 tools/perfbench_ab.py --base origin/main --pairs 5 --seconds 3

The base is `git merge-base BASE HEAD`, extracted with `git archive`
into the work directory; the change is the working tree this script
lives in. Every workload of
BENCHMARK.json runs as `python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0` from each side's own root, in alternating pairs
(base first on even pairs, change first on odd ones), each side building
under its own CARGO_TARGET_DIR in the work directory.

The gate: for every workload and every BENCHMARK.json end-to-end metric,
the change's median must not be worse than the base's median by more
than the metric's bound (a relative fraction), and the change's share of
failed points must not exceed the base's. A metric whose base runs
spread wider than its bound (interquartile range over the median)
cannot resolve a regression of that size: it is reported `unresolved`,
not FAIL, unless every change run is worse than every base run. The
verdict table is printed as Markdown. Exit 0 when every check holds,
1 when a resolved one fails, 2 on a usage or build error.

--json writes the medians of both sides; --history appends the
change's medians as one JSON line, the format of
bench/BENCH_history.jsonl. Its `rev` is HEAD, or null when the working
tree has uncommitted changes: such a line is committed with the change
it measures, so the commit that adds it is its revision.
"""

import argparse
import json
import os
import statistics
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args):
    return subprocess.check_output(["git", "-C", ROOT] + list(args),
                                   text=True).strip()


def extract(rev, dest):
    """Write the files of @p rev into @p dest, which appears only once
    every file is there."""
    tmp = tempfile.mkdtemp(prefix=os.path.basename(dest) + ".",
                           dir=os.path.dirname(dest))
    try:
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev],
                                   stdout=subprocess.PIPE)
        subprocess.check_call(["tar", "-x", "-C", tmp],
                              stdin=archive.stdout)
        archive.stdout.close()
        if archive.wait() != 0:
            raise RuntimeError("git archive %s failed" % rev)
        os.rename(tmp, dest)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


def run_once(root, build, workload, seed, seconds):
    """One benchmark run; @return its final JSON record."""
    env = dict(os.environ, CARGO_TARGET_DIR=build)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s in %s exited %d" % (workload, root,
                                                   proc.returncode))
    return json.loads(lines[-1])


def values(records):
    """Per-metric values of a list of runs, and their failed share."""
    names = sorted({m for r in records for m in r["metrics"]})
    out = {m: [r["metrics"][m]["value"] for r in records
               if m in r["metrics"]]
           for m in names}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    return out, (failed / attempted if attempted else 1.0)


def spread(vals):
    """Interquartile range of @p vals over their median (0 when there
    are too few runs to tell)."""
    mid = statistics.median(vals)
    if len(vals) < 2 or mid == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / abs(mid)


def judge(metric, base, change):
    """@p base and @p change are one metric's runs on each side.
    @return (relative change of the medians in the worse direction,
    the base's spread, verdict)."""
    if not change:
        return None, None, "FAIL (missing)"
    if not base or statistics.median(base) == 0:
        return None, None, "ok (no base)"
    b, c = statistics.median(base), statistics.median(change)
    if metric["better"] == "lower":
        worse = c / b - 1.0
        always_worse = min(change) > max(base)
    else:
        worse = 1.0 - c / b
        always_worse = max(change) < min(base)
    noise = spread(base)
    if worse <= metric["bound"]:
        return worse, noise, "ok"
    if noise > metric["bound"] and not always_worse:
        return worse, noise, "unresolved"
    return worse, noise, "FAIL"


def history_line(label, rev, args, meds):
    return json.dumps({
        "label": label, "rev": rev,
        "date": time.strftime("%Y-%m-%d", time.gmtime()),
        "nproc": os.cpu_count(), "seed": args.seed,
        "seconds": args.seconds, "runs": args.pairs,
        "medians": {w: {m: round(v, 6) for m, v in sorted(ms.items())}
                    for w, ms in meds.items()}})


def fmt(value):
    return "-" if value is None else "%.6g" % value


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default="origin/main",
                    help="revision whose merge-base with HEAD is the base")
    ap.add_argument("--workdir", default=os.path.join(ROOT, ".perfbench_ab"))
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=3.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workloads", help="comma-separated subset")
    ap.add_argument("--json", help="write both sides' medians as JSON")
    ap.add_argument("--history", help="append medians as JSON lines")
    ap.add_argument("--label", default="change",
                    help="history label of the working tree")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        wanted = args.workloads.split(",")
        unknown = sorted(set(wanted) - set(workloads))
        if unknown:
            ap.error("unknown workload(s): " + ", ".join(unknown))
        workloads = wanted

    runs = {s: {w: [] for w in workloads} for s in ("base", "change")}
    try:
        os.makedirs(args.workdir, exist_ok=True)
        base_rev = git("merge-base", args.base, "HEAD")
        base_root = os.path.join(args.workdir, "base-" + base_rev[:12])
        if not os.path.isdir(base_root):
            extract(base_rev, base_root)
        sides = {"base": (base_root,
                          os.path.join(args.workdir, "base-build")),
                 "change": (ROOT,
                            os.path.join(args.workdir, "change-build"))}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for w in workloads:
                for side in order:
                    root, build = sides[side]
                    rec = run_once(root, build, w, args.seed, args.seconds)
                    runs[side][w].append(rec)
                    sys.stderr.write("pair %d %s %s: %s\n" % (
                        i + 1, w, side, json.dumps(rec["metrics"])))
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        sys.stderr.write("perfbench_ab: %s\n" % e)
        return 2

    vals = {s: {} for s in sides}
    failed = {s: {} for s in sides}
    for s in sides:
        for w in workloads:
            vals[s][w], failed[s][w] = values(runs[s][w])
    meds = {s: {w: {m: statistics.median(v) for m, v in vals[s][w].items()}
                for w in workloads}
            for s in sides}

    ok = True
    unresolved = 0
    rows = ["| workload | metric | base | change | worse by | base IQR "
            "| bound | verdict |",
            "|---|---|---|---|---|---|---|---|"]
    for w in workloads:
        for m in bench["end_to_end"]:
            name = m["name"]
            worse, noise, verdict = judge(m, vals["base"][w].get(name),
                                          vals["change"][w].get(name))
            ok = ok and not verdict.startswith("FAIL")
            unresolved += verdict == "unresolved"
            rows.append("| %s | %s | %s | %s | %s | %s | %.0f%% | %s |" % (
                w, name, fmt(meds["base"][w].get(name)),
                fmt(meds["change"][w].get(name)),
                "-" if worse is None else "%+.1f%%" % (100 * worse),
                "-" if noise is None else "%.1f%%" % (100 * noise),
                100 * m["bound"], verdict))
        fail_verdict = ("FAIL" if failed["change"][w] > failed["base"][w]
                        else "ok")
        ok = ok and fail_verdict == "ok"
        rows.append("| %s | failed share | %.4f | %.4f | - | - | 0%% | %s |"
                    % (w, failed["base"][w], failed["change"][w],
                       fail_verdict))
    table = "\n".join(rows) + "\n"
    header = ("# perfbench A/B: %s vs working tree\n\n%d pair(s), seed %d, "
              "%g s per run; medians.\n\n" % (base_rev[:12], args.pairs,
                                               args.seed, args.seconds))
    sys.stdout.write(header + table)
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"base_rev": base_rev, "medians": meds,
                       "failed_share": failed}, f, indent=1, sort_keys=True)
            f.write("\n")
    if args.history:
        dirty = git("status", "--porcelain", "--untracked-files=no")
        rev = None if dirty else git("rev-parse", "HEAD")
        with open(args.history, "a") as f:
            f.write(history_line(args.label, rev, args, meds["change"]) +
                    "\n")
    sys.stdout.write("verdict: %s%s\n" % (
        "pass" if ok else "FAIL",
        " (%d unresolved)" % unresolved if unresolved else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
