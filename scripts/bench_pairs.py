#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, summarised against BENCHMARK.json.

    python3 scripts/bench_pairs.py --base REF --workload large-clean --pairs 10 \\
        --seconds 45 --out BENCH_<n>.json [--same-outputs]

Run it from the checkout that holds the change. The protocol:

1. REF is checked out with ``git worktree add --detach`` into a sibling
   directory of this checkout whose name has the same length as this
   checkout's. Large-clean's ``peak_rss_mib`` and ``setup_s`` move with the
   directory a checkout lives in (CHANGES.md), so both sides run from paths
   of one length. The worktree is removed at the end.
2. Each pair runs ``perfbench/run.py --workload W --seed SEED --seconds S
   --trace 0`` once on each side, each side with its own files, one process
   at a time. Odd pairs run the parent first, even pairs the change first.
3. From each run, the last line of standard output is its JSON result and
   the ``output digest`` line its digest. A run that exits with 2 (usage or
   set-up error) or prints no result stops the command with exit code 2; a
   run whose output checks fail (exit 1) is kept and counts as failed.
4. For every end-to-end metric that BENCHMARK.json lists, the summary gives
   each side's median, interquartile range, minimum and maximum, the ratio
   of the medians and the change's wins out of the pairs (ties count for
   neither side). Its verdict, by the metric's bound:
   - ``worse``: the change's median is worse than the parent's by more
     than the bound, as a share of the parent's median.
   - ``unresolved``: not worse, but the parent's interquartile range is
     wider than the bound allows, and some change run reads no better than
     some parent run.
   - ``gain``: of at least ten pairs, the change wins at least nine
     tenths, and its median is better than the parent's by more than the
     parent's interquartile range.
   - ``within bound`` otherwise.
   The workload's verdict is ``regression`` when a metric is worse or the
   change fails a larger share of operations, else ``no regression``.
5. The output also holds both sides' digests, every run, the Python and
   numpy versions and the CPU count. ``--same-outputs`` exits 1 when the
   two sides' digests differ.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import string
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
DIGEST_PREFIX = "output digest"
GAIN_PAIRS = 10
GAIN_SHARE = 0.9


class PairsError(RuntimeError):
    pass


def sibling(root: Path) -> Path:
    """A directory next to ``root`` that does not exist yet, whose name has
    the same length as root's: root's name with its last character
    replaced."""
    for c in string.digits + string.ascii_lowercase:
        path = root.parent / (root.name[:-1] + c)
        if path != root and not path.exists():
            return path
    raise PairsError(f"no free sibling directory for {root}")


def parse_run(stdout: str) -> dict:
    """A run's JSON result, from its last line, with its digest added."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise PairsError(f"the run printed no JSON result: {exc}") from exc
    digests = [line.rsplit(":", 1)[1].strip() for line in lines
               if line.startswith(DIGEST_PREFIX)]
    if len(digests) != 1:
        raise PairsError(f"the run printed {len(digests)} digest lines, not one")
    result["digest"] = digests[0]
    return result


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarise_metric(parent: list[float], change: list[float], better: str,
                     bound: float) -> dict:
    """One metric's summary over paired runs (``parent[i]`` ran with
    ``change[i]``) and its verdict by the protocol in the module docstring."""
    sign = 1.0 if better == "lower" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = _quartiles(parent)
    c_q1, c_q3 = _quartiles(change)
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    worse_by = sign * (c_med - p_med)  # > 0 when the change reads worse
    every_run_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if worse_by > bound * abs(p_med):
        verdict = "worse"
    elif (len(parent) >= GAIN_PAIRS and wins >= GAIN_SHARE * len(parent)
          and -worse_by > p_q3 - p_q1):
        verdict = "gain"
    elif p_q3 - p_q1 > bound * abs(p_med) and not every_run_better:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"parent_median": p_med, "change_median": c_med,
            "ratio": c_med / p_med if p_med else None,
            "parent_iqr": p_q3 - p_q1, "change_iqr": c_q3 - c_q1,
            "change_wins": f"{wins}/{len(parent)}",
            "parent_min": min(parent), "parent_max": max(parent),
            "change_min": min(change), "change_max": max(change),
            "bound": bound, "verdict": verdict}


def summarise(runs: list[dict], spec: dict) -> dict:
    """The workload's entry of the output file, from its pairs of parsed
    runs (``{"pair": i, "parent": result, "change": result}``)."""
    summary = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        summary[name] = summarise_metric(
            [r["parent"]["metrics"][name]["value"] for r in runs],
            [r["change"]["metrics"][name]["value"] for r in runs],
            m["better"], m["bound"])

    def failed_share(side):
        return (sum(r[side]["failed"] for r in runs)
                / max(1, sum(r[side]["attempted"] for r in runs)))

    regression = (any(s["verdict"] == "worse" for s in summary.values())
                  or failed_share("change") > failed_share("parent"))
    return {"pairs": len(runs),
            "verdict": "regression" if regression else "no regression",
            "failed_share": {"parent": failed_share("parent"),
                             "change": failed_share("change")},
            "digests": {side: sorted({r[side]["digest"] for r in runs})
                        for side in ("parent", "change")},
            "summary": summary,
            "runs": runs}


def same_outputs(entry: dict) -> bool:
    return entry["digests"]["parent"] == entry["digests"]["change"]


def run_side(checkout: Path, args) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode not in (0, 1):
        raise PairsError(f"perfbench/run.py in {checkout} exited {proc.returncode}: "
                         f"{proc.stderr.strip()}")
    return parse_run(proc.stdout)


def _git(*argv: str) -> str:
    proc = subprocess.run(["git", "-C", str(ROOT), *argv], capture_output=True,
                          text=True, check=False)
    if proc.returncode != 0:
        raise PairsError(f"git {' '.join(argv)}: {proc.stderr.strip()}")
    return proc.stdout.strip()


def measure(args) -> dict:
    """Run the pairs in a worktree of the base and return the output file's
    contents."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base = _git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    tree = sibling(ROOT)
    _git("worktree", "add", "--detach", str(tree), base)
    sides = {"parent": tree, "change": ROOT}
    try:
        runs = []
        for i in range(1, args.pairs + 1):
            order = ("parent", "change") if i % 2 else ("change", "parent")
            results = {side: run_side(sides[side], args) for side in order}
            runs.append({"pair": i, "parent": results["parent"], "change": results["change"]})
            print(f"pair {i}/{args.pairs}: build_s parent "
                  f"{results['parent']['metrics']['build_s']['value']:.4g}, change "
                  f"{results['change']['metrics']['build_s']['value']:.4g}", flush=True)
    finally:
        _git("worktree", "remove", "--force", str(tree))
    return {"command": f"python3 perfbench/run.py --workload <w> --seed {args.seed} "
                       f"--seconds {args.seconds:g} --trace 0",
            "base": base,
            "order": "pairs alternate: odd pairs run the parent first, even pairs "
                     "the change first",
            "environment": {"python": platform.python_version(),
                            "numpy": numpy.__version__,
                            "cpu_count": os.cpu_count(),
                            "machine": platform.machine()},
            "workloads": {args.workload: summarise(runs, spec)}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git ref of the parent side")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed", type=int, default=2)
    ap.add_argument("--out", type=Path, help="write the summary here as JSON")
    ap.add_argument("--same-outputs", action="store_true",
                    help="exit 1 when the two sides' output digests differ")
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0 or args.seed < 0:
        ap.error("--pairs must be >= 1, --seconds > 0 and --seed >= 0")
    try:
        doc = measure(args)
    except PairsError as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 2
    entry = doc["workloads"][args.workload]
    if args.out is not None:
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for name, s in entry["summary"].items():
        print(f"  {name:<26} parent {s['parent_median']:.6g}  change "
              f"{s['change_median']:.6g}  wins {s['change_wins']}  {s['verdict']}")
    print(f"{args.workload}: {entry['verdict']}; digests parent "
          f"{entry['digests']['parent']}, change {entry['digests']['change']}")
    if args.same_outputs and not same_outputs(entry):
        print("bench_pairs: the two sides' output digests differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
