#!/usr/bin/env python3
"""Bench regression gate: diff fresh BENCH_*.json files against the
committed baselines in bench/baselines/ and fail on a throughput
regression beyond the tolerance in any named series.

Series are the time-valued leaves of each BENCH file (keys ending in
`_ns` / `_s`, or the literal `ns`), flattened to dotted names; rows of a
`sweep` array are keyed by their identifying fields (ranks / threads / k /
level) so the same configuration is compared across runs. Derived ratio
series (`speedup`, `*_per_s`) are *not* gated against the baseline —
they are quotients of two gated times and would double-count the same
regression — and tiny baselines below the noise floor are skipped, since
a smoke-sized bench cannot measure them meaningfully.

Some files also carry ratio invariants (RATIO_RULES): a derived ratio
in the fresh output must stay at or above a fixed minimum, whatever the
baseline says. For BENCH_kernels.json the bsr3 SpMV and Jacobi sweep
must not be slower than CSR, the one-rank distributed Galerkin product
must reach half the speed of the serial one, a one-column spmm must
reach 0.8 of spmv in each format, and an eight-column spmm must cost
less per column than spmv. A baseline refresh
therefore cannot lock in a regression of one format or stack against
another.

Some files also carry count rules (COUNT_RULES): deterministic counts
that reproduce bit for bit on any host must equal the baseline exactly,
and flags must hold. In BENCH_equations.json and BENCH_refine.json every
row's `iterations` must equal the baseline row's and every `converged`
must be true, so one extra Krylov iteration fails the gate whatever the
host is doing. In BENCH_halo.json every row's interior/boundary row
split and the messages and bytes one SpMV sends must equal the
baseline's, so one extra halo message fails the gate.

A series present in the baseline but missing from the fresh output fails
the gate (a renamed or dropped series must come with a baseline refresh,
see the README's "Refreshing bench baselines"); brand-new series pass
with a note and start gating once committed to the baseline.

Exit status: 0 = within tolerance, 1 = regression, broken ratio
invariant or count rule, or missing series, 2 = usage/IO error. Stdlib
only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# Fields that identify a sweep row rather than measure it.
KEY_FIELDS = ("ranks", "threads", "k", "level")

# Noise floors: baselines below these cannot be compared meaningfully on
# a shared CI runner (timer resolution + scheduler jitter).
DEFAULT_FLOOR_NS = 10_000.0  # 10 us
DEFAULT_FLOOR_S = 1e-3  # 1 ms

# Per-file ratio invariants: (series, minimum) checked on the fresh output.
RATIO_RULES = {
    # speedup = csr_ns / bsr3_ns: the node-block format must not lose to CSR.
    # galerkin_p1.speedup = serial_ns / dist_ns: the distributed Galerkin
    # product on one rank must run at least half as fast as the serial one.
    # spmm.*_k1_speedup = spmv_ns / k1_ns: a one-column multi-vector
    # product runs the single-vector kernel, so it may not fall far behind
    # spmv; spmm.*_k8_col_speedup = spmv_ns / (k8_ns / 8): eight columns in
    # one call must cost less per column than eight spmv calls.
    "BENCH_kernels.json": (("spmv.speedup", 1.0),
                           ("jacobi_sweep.speedup", 1.0),
                           ("galerkin_p1.speedup", 0.5),
                           ("spmm.csr_k1_speedup", 0.8),
                           ("spmm.bsr3_k1_speedup", 0.8),
                           ("spmm.csr_k8_col_speedup", 1.0),
                           ("spmm.bsr3_k8_col_speedup", 1.0)),
}

# Per-file count rules on leaf names: "equal" leaves must match the
# baseline exactly (and exist in the fresh output), "true" leaves must be
# true in the fresh output.
COUNT_RULES = {
    "BENCH_equations.json": {"equal": ("iterations",), "true": ("converged",)},
    "BENCH_refine.json": {"equal": ("iterations",), "true": ("converged",)},
    "BENCH_halo.json": {"equal": ("interior_rows", "boundary_rows",
                                  "messages", "bytes")},
}

DEFAULT_FILES = ("BENCH_kernels.json", "BENCH_halo.json", "BENCH_service.json",
                 "BENCH_equations.json", "BENCH_refine.json")


def flatten(prefix: str, node, out: dict[str, float]) -> None:
    """Collects every numeric and boolean leaf under dotted names; sweep
    rows are keyed by their identifying fields so row order never
    matters."""
    if isinstance(node, dict):
        for key, value in node.items():
            flatten(f"{prefix}.{key}" if prefix else key, value, out)
    elif isinstance(node, list):
        for i, row in enumerate(node):
            if not isinstance(row, dict):
                continue
            ident = ",".join(
                f"{f}={row[f]}" for f in KEY_FIELDS if f in row
            )
            label = f"{prefix}[{ident or i}]"
            for key, value in row.items():
                if key in KEY_FIELDS:
                    continue
                flatten(f"{label}.{key}", value, out)
    elif isinstance(node, bool):
        out[prefix] = node
    elif isinstance(node, (int, float)):
        out[prefix] = float(node)


def time_unit(name: str) -> str | None:
    """'ns' / 's' for gated time series, None for everything else
    (identifiers, counts, and derived ratios such as speedup/*_per_s)."""
    leaf = name.rsplit(".", 1)[-1]
    if leaf.endswith("_per_s"):
        return None
    if leaf == "ns" or leaf.endswith("_ns"):
        return "ns"
    if leaf.endswith("_s"):
        return "s"
    return None


def load_series(path: str) -> dict[str, float]:
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    out: dict[str, float] = {}
    flatten("", doc, out)
    return out


def compare_file(
    name: str,
    baseline: dict[str, float],
    fresh: dict[str, float],
    tol: float,
    floor_ns: float,
    floor_s: float,
) -> list[str]:
    failures: list[str] = []
    for series in sorted(baseline):
        unit = time_unit(series)
        if unit is None:
            continue
        base = baseline[series]
        if series not in fresh:
            failures.append(
                f"{name}: series '{series}' missing from fresh output "
                "(refresh bench/baselines/ if it was renamed)"
            )
            continue
        got = fresh[series]
        floor = floor_ns if unit == "ns" else floor_s
        if base < floor:
            print(f"  skip  {name}:{series} baseline {base:g}{unit} "
                  f"below noise floor {floor:g}{unit}")
            continue
        ratio = got / base if base > 0 else float("inf")
        verdict = "  ok  "
        if ratio > 1 + tol:
            verdict = " FAIL "
            failures.append(
                f"{name}: {series} regressed {100 * (ratio - 1):.1f}% "
                f"({base:g}{unit} -> {got:g}{unit}, tol {100 * tol:.0f}%)"
            )
        print(f"{verdict}{name}:{series} {base:g}{unit} -> {got:g}{unit} "
              f"({100 * (ratio - 1):+.1f}%)")
    for series in sorted(set(fresh) - set(baseline)):
        if time_unit(series) is not None:
            print(f"  new   {name}:{series} = {fresh[series]:g} "
                  "(ungated until added to the baseline)")
    return failures


def check_ratios(name: str, fresh: dict[str, float]) -> list[str]:
    failures: list[str] = []
    for series, minimum in RATIO_RULES.get(name, ()):
        if series not in fresh:
            failures.append(f"{name}: ratio series '{series}' missing from "
                            "fresh output")
            continue
        got = fresh[series]
        verdict = "  ok  "
        if got < minimum:
            verdict = " FAIL "
            failures.append(f"{name}: {series} = {got:g} is below the "
                            f"invariant minimum {minimum:g}")
        print(f"{verdict}{name}:{series} {got:g} (minimum {minimum:g})")
    return failures


def check_counts(name: str, baseline: dict[str, float],
                 fresh: dict[str, float]) -> list[str]:
    failures: list[str] = []
    rules = COUNT_RULES.get(name)
    if rules is None:
        return failures

    def leaf(series: str) -> str:
        return series.rsplit(".", 1)[-1]

    for series in sorted(baseline):
        if leaf(series) not in rules.get("equal", ()):
            continue
        base = baseline[series]
        got = fresh.get(series)
        shown = "missing" if got is None else f"{got:g}"
        verdict = "  ok  "
        if got != base:
            verdict = " FAIL "
            failures.append(f"{name}: count {series} = {shown} differs "
                            f"from the baseline {base:g}")
        print(f"{verdict}{name}:{series} {shown} (baseline {base:g})")
    for series in sorted(fresh):
        if leaf(series) not in rules.get("true", ()):
            continue
        verdict = "  ok  "
        if fresh[series] is not True:
            verdict = " FAIL "
            failures.append(f"{name}: {series} is {fresh[series]}, "
                            "must be true")
        print(f"{verdict}{name}:{series} {fresh[series]}")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Fail on bench throughput regressions vs baselines.")
    parser.add_argument("--baseline-dir", default="bench/baselines")
    parser.add_argument("--fresh-dir", default="bench-artifacts")
    parser.add_argument("--files", default=",".join(DEFAULT_FILES),
                        help="comma-separated BENCH_*.json names to compare")
    parser.add_argument("--tol", type=float,
                        default=float(os.environ.get("PROM_BENCH_TOL", 0.25)),
                        help="allowed fractional slowdown (default 0.25)")
    parser.add_argument("--floor-ns", type=float, default=DEFAULT_FLOOR_NS)
    parser.add_argument("--floor-s", type=float, default=DEFAULT_FLOOR_S)
    args = parser.parse_args()

    failures: list[str] = []
    compared = 0
    for name in [f for f in args.files.split(",") if f]:
        base_path = os.path.join(args.baseline_dir, name)
        fresh_path = os.path.join(args.fresh_dir, name)
        if not os.path.exists(base_path):
            print(f"  note  no baseline {base_path} — skipping {name}")
            continue
        if not os.path.exists(fresh_path):
            failures.append(f"{name}: fresh output {fresh_path} not found")
            continue
        try:
            baseline = load_series(base_path)
            fresh = load_series(fresh_path)
        except (OSError, json.JSONDecodeError) as err:
            print(f"error reading {name}: {err}", file=sys.stderr)
            return 2
        compared += 1
        failures += compare_file(name, baseline, fresh, args.tol,
                                 args.floor_ns, args.floor_s)
        failures += check_ratios(name, fresh)
        failures += check_counts(name, baseline, fresh)

    if compared == 0 and not failures:
        print("bench_compare: no baselines found — nothing gated")
        return 0
    if failures:
        print("\nbench_compare: FAIL")
        for f in failures:
            print(f"  {f}")
        print("If the regression is expected (or the series set changed), "
              "refresh bench/baselines/ (see README) or put [bench-skip] "
              "in the commit message.")
        return 1
    print("\nbench_compare: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
