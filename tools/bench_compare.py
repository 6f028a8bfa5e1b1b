#!/usr/bin/env python3
"""Compare two bench artifacts; exit 1 on regressions or result drift.

Supports both artifact families the repo produces:

  * mfbo `--out` artifacts (tables, ablations, micro_parallel,
    micro_incremental): the two JSON documents are walked in parallel.
    Timing-valued leaves — keys ending in `_s` / `_seconds`, `speedup`,
    and `wall_times` entries — are compared with a relative tolerance,
    direction-aware: only a slowdown (or a speedup drop) beyond the
    tolerance fails; getting faster never does. Every other leaf
    (objectives, counters, span counts, success flags, ...) must be
    exactly equal — these fields are deterministic by construction, so
    any drift is a correctness regression, not noise. The per-span
    memory-attribution counters (`alloc_count` / `alloc_bytes`) are
    deliberately in the exact class: they are thread-merged and
    byte-identical at any thread count, so a change means the workload's
    allocation behaviour changed. Machine-state fields (`peak_rss_bytes`)
    and timeline-recorder telemetry (`timeline.*`) are ignored by
    default — they vary run to run without meaning anything.

  * google-benchmark JSON (micro_gp, micro_circuit with
    `--benchmark_format=json`): benchmarks are matched by name and their
    `cpu_time` compared with the same direction-aware tolerance. Files
    recorded with `--benchmark_repetitions` are compared on their
    `median` aggregate rows only, the normalizer included.
    `--normalize-by NAME` divides every time by the named benchmark's
    time from the same file first, cancelling absolute machine speed so
    committed baselines stay meaningful across hosts.

Options:
  --rel-tol FRAC   allowed relative timing regression (default 0.30)
  --min-time SEC   ignore timing leaves where both sides are below this
                   (default 1e-3; micro-timings below it are pure noise)
  --skip-timing    ignore all timing-classified leaves entirely
  --ignore GLOB    ignore paths matching the glob (repeatable)
  --assert EXPR    additionally require "path OP value" on the current
                   artifact, e.g. --assert "identical == true"
                   (repeatable; OP in == != <= >= < >)

Exit status: 0 clean, 1 regression/drift/assert failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import re
import sys
from pathlib import Path

TIMING_KEY_RE = re.compile(r"(_s|_seconds)$")
# Higher is better for these; regression direction flips.
HIGHER_IS_BETTER = {"speedup"}
# Machine-state and recorder-telemetry paths compared never, not exactly:
# peak RSS is whatever the OS measured, and timeline counters (e.g.
# `timeline.write_errors` in `metrics.counters`) only exist when a
# timeline was recorded alongside the run.
DEFAULT_IGNORE = (
    "*peak_rss*",
    "*timeline.*",
)


def is_timing_path(path: list[str]) -> bool:
    if not path:
        return False
    leaf = path[-1]
    if TIMING_KEY_RE.search(leaf) or leaf in HIGHER_IS_BETTER:
        return True
    # Array elements under a timing-named list: wall_times[3] etc.
    return any(p == "wall_times" for p in path)


def dotted(path: list[str]) -> str:
    return ".".join(path) if path else "<root>"


class Comparison:
    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.problems: list[str] = []
        self.timing_checked = 0
        self.exact_checked = 0

    def ignored(self, path: list[str]) -> bool:
        name = dotted(path)
        patterns = list(DEFAULT_IGNORE) + self.args.ignore
        return any(fnmatch.fnmatch(name, pattern) for pattern in patterns)

    def fail(self, path: list[str], message: str) -> None:
        self.problems.append(f"{dotted(path)}: {message}")

    def compare_timing(self, path: list[str], base: float,
                       cur: float) -> None:
        if self.args.skip_timing:
            return
        self.timing_checked += 1
        if abs(base) < self.args.min_time and abs(cur) < self.args.min_time:
            return
        if base <= 0.0:
            return  # zeroed (--no-timing) or degenerate baseline
        ratio = cur / base
        tol = self.args.rel_tol
        if path and path[-1] in HIGHER_IS_BETTER:
            if ratio < 1.0 - tol:
                self.fail(path, f"dropped {base:.6g} -> {cur:.6g} "
                                f"({(1.0 - ratio) * 100.0:.1f}% worse, "
                                f"tolerance {tol * 100.0:.0f}%)")
        elif ratio > 1.0 + tol:
            self.fail(path, f"slowed {base:.6g}s -> {cur:.6g}s "
                            f"(+{(ratio - 1.0) * 100.0:.1f}%, "
                            f"tolerance {tol * 100.0:.0f}%)")

    def compare(self, path: list[str], base, cur) -> None:
        if self.ignored(path):
            return
        if type(base) is not type(cur) and not (
                isinstance(base, (int, float)) and
                isinstance(cur, (int, float)) and
                not isinstance(base, bool) and not isinstance(cur, bool)):
            self.fail(path, f"type changed: {type(base).__name__} -> "
                            f"{type(cur).__name__}")
            return
        if isinstance(base, dict):
            for key in base.keys() | cur.keys():
                if key not in cur:
                    if not self.ignored(path + [key]):
                        self.fail(path + [key], "missing from current")
                elif key not in base:
                    if not self.ignored(path + [key]):
                        self.fail(path + [key], "missing from baseline")
                else:
                    self.compare(path + [key], base[key], cur[key])
        elif isinstance(base, list):
            if len(base) != len(cur):
                self.fail(path, f"length changed: {len(base)} -> "
                                f"{len(cur)}")
                return
            for index, (b, c) in enumerate(zip(base, cur)):
                self.compare(path + [str(index)], b, c)
        elif isinstance(base, (int, float)) and not isinstance(base, bool) \
                and is_timing_path(path):
            self.compare_timing(path, float(base), float(cur))
        else:
            self.exact_checked += 1
            if base != cur:
                self.fail(path, f"value changed: {base!r} -> {cur!r}")


def compare_google_benchmark(cmp: Comparison, base: dict,
                             cur: dict) -> None:
    def index(doc: dict) -> dict:
        # A run with --benchmark_repetitions is compared by its median
        # aggregate rows, keyed by run name; mean, stddev, cv and the
        # complexity fits (BigO, RMS) are not times to gate. A file of
        # single readings is compared row by row.
        rows = doc.get("benchmarks", [])
        medians = {bench["run_name"]: bench for bench in rows
                   if bench.get("run_type") == "aggregate" and
                   bench.get("aggregate_name") == "median"}
        if medians:
            return medians
        return {bench["name"]: bench for bench in rows
                if bench.get("run_type") != "aggregate"}

    base_by_name = index(base)
    cur_by_name = index(cur)
    normalize = cmp.args.normalize_by

    def unit_time(table: dict, source: str) -> float:
        if normalize is None:
            return 1.0
        if normalize not in table:
            raise SystemExit(
                f"bench_compare: --normalize-by '{normalize}' not found "
                f"in {source}")
        return float(table[normalize]["cpu_time"]) or 1.0

    base_unit = unit_time(base_by_name, "baseline")
    cur_unit = unit_time(cur_by_name, "current")

    for name in sorted(base_by_name.keys() | cur_by_name.keys()):
        path = ["benchmarks", name]
        if cmp.ignored(path) or name == normalize:
            continue
        if name not in cur_by_name:
            cmp.fail(path, "missing from current")
            continue
        if name not in base_by_name:
            cmp.fail(path, "missing from baseline")
            continue
        base_time = float(base_by_name[name]["cpu_time"]) / base_unit
        cur_time = float(cur_by_name[name]["cpu_time"]) / cur_unit
        cmp.compare_timing(path + ["cpu_time"], base_time, cur_time)


ASSERT_RE = re.compile(r"^\s*([\w.\[\]]+)\s*(==|!=|<=|>=|<|>)\s*(.+?)\s*$")


def lookup(doc, path: str):
    node = doc
    for part in path.replace("]", "").replace("[", ".").split("."):
        if isinstance(node, list):
            node = node[int(part)]
        elif isinstance(node, dict) and part in node:
            node = node[part]
        else:
            raise KeyError(path)
    return node


def run_asserts(cmp: Comparison, current: dict) -> None:
    ops = {"==": lambda a, b: a == b, "!=": lambda a, b: a != b,
           "<=": lambda a, b: a <= b, ">=": lambda a, b: a >= b,
           "<": lambda a, b: a < b, ">": lambda a, b: a > b}
    for expr in cmp.args.asserts:
        match = ASSERT_RE.match(expr)
        if match is None:
            raise SystemExit(f"bench_compare: bad --assert '{expr}' "
                             f"(want 'path OP value')")
        path, op, raw = match.groups()
        try:
            want = json.loads(raw)
        except json.JSONDecodeError:
            want = raw  # bare strings allowed
        try:
            got = lookup(current, path)
        except (KeyError, IndexError, ValueError):
            cmp.problems.append(f"assert '{expr}': path '{path}' not in "
                                f"current artifact")
            continue
        if not ops[op](got, want):
            cmp.problems.append(f"assert '{expr}' failed: "
                                f"current value is {got!r}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline", type=Path)
    parser.add_argument("current", type=Path)
    parser.add_argument("--rel-tol", type=float, default=0.30)
    parser.add_argument("--min-time", type=float, default=1e-3)
    parser.add_argument("--skip-timing", action="store_true")
    parser.add_argument("--ignore", action="append", default=[],
                        metavar="GLOB")
    parser.add_argument("--assert", dest="asserts", action="append",
                        default=[], metavar="EXPR")
    parser.add_argument("--normalize-by", metavar="NAME",
                        help="google-benchmark mode: reference benchmark "
                             "whose time defines one machine-speed unit")
    args = parser.parse_args()

    try:
        base = json.loads(args.baseline.read_text(encoding="utf-8"))
        cur = json.loads(args.current.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as err:
        print(f"bench_compare: {err}", file=sys.stderr)
        return 2

    cmp = Comparison(args)
    if "benchmarks" in base and "benchmarks" in cur:
        compare_google_benchmark(cmp, base, cur)
    else:
        cmp.compare([], base, cur)
    run_asserts(cmp, cur)

    for problem in cmp.problems:
        print(f"bench_compare: {problem}", file=sys.stderr)
    verdict = "FAILED" if cmp.problems else "OK"
    print(f"bench_compare: {verdict} — {cmp.exact_checked} exact, "
          f"{cmp.timing_checked} timing leaves compared, "
          f"{len(cmp.problems)} problem(s) "
          f"({args.baseline} vs {args.current})")
    return 1 if cmp.problems else 0


if __name__ == "__main__":
    sys.exit(main())
