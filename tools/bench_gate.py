#!/usr/bin/env python3
"""CI performance gate for the compiled cycle engine.

Re-runs bench/micro_cycle with the committed baseline's parameters and
fails when the compiled/interpreted throughput ratio of any gated cell
regresses more than the tolerance below the committed ratio.

Why ratios, not raw cycles/s: absolute throughput varies by machine,
but both engines run on the *same* machine in the same invocation, so
their ratio is machine-normalized — a CI runner half as fast as the
baseline box still reproduces the ratio. Why only walk-bound cells:
transmission-bound suites (the loaded baseline_comparison workload)
pay identical per-frame bookkeeping under both engines, so their ratio
saturates near 1x and its residual jitter is measurement noise, not an
engine signal (DESIGN.md section 12). Gating noise makes a flaky gate;
those cells are reported but only gated against the hard floor of 1.0x
minus the tolerance (the compiled engine must never be meaningfully
slower than the interpreted one).

Flake resistance: the workload window is fixed (the cycle count per
run is deterministic and verified identical across engines by
micro_cycle itself), each cell is the median of N repetitions, and the
gate compares medians-of-medians, never single runs. micro_cycle
alternates the two engines rep by rep, so a slow spell on a shared
host lands on both sides of a ratio rather than on one engine's block
of repetitions.

Usage:
  tools/bench_gate.py --bench build/bench/micro_cycle \
      [--baseline bench/BENCH_cycle.json] [--tolerance 0.10]
      [--min-gated-ratio 1.5] [--fresh PATH]
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

# A baseline cell is *gated* (10% regression fails) only when the
# committed ratio clears this bar, i.e. the cell actually measures the
# engine speedup rather than shared-cost noise around 1x.
DEFAULT_MIN_GATED_RATIO = 1.5


def load_report(path):
    """Load one micro_cycle JSON report, dying with an actionable
    message (never a traceback) on a missing or malformed file."""
    try:
        with open(path, encoding="utf-8") as f:
            report = json.loads(f.read())
    except FileNotFoundError:
        raise SystemExit(
            f"bench_gate: baseline report '{path}' not found.\n"
            "  Generate one with:\n"
            "    build/bench/micro_cycle --json bench/BENCH_cycle.json\n"
            "  and commit it, or point --baseline/--fresh at an "
            "existing report.")
    except json.JSONDecodeError as err:
        raise SystemExit(
            f"bench_gate: '{path}' is not valid JSON ({err}).\n"
            "  Regenerate it with: build/bench/micro_cycle --json " + path)
    if not isinstance(report, dict) or report.get("bench") != "micro_cycle":
        raise SystemExit(
            f"bench_gate: '{path}' is not a micro_cycle report "
            "(missing \"bench\": \"micro_cycle\"). Regenerate it with: "
            "build/bench/micro_cycle --json " + path)
    for field in ("results", "repetitions", "window_ms"):
        if field not in report:
            raise SystemExit(
                f"bench_gate: '{path}' lacks the '{field}' field — it was "
                "written by an incompatible micro_cycle version. "
                "Regenerate it with the current binary.")
    return report


def ratios(report):
    """{(suite, scheme): compiled_cps / interpreted_cps}."""
    by_cell = {}
    for row in report["results"]:
        key = (row["suite"], row["scheme"])
        by_cell.setdefault(key, {})[row["engine"]] = row["cycles_per_second"]
    out = {}
    for key, engines in sorted(by_cell.items()):
        if "compiled" not in engines or "interpreted" not in engines:
            raise SystemExit(f"cell {key}: missing an engine in the report")
        if engines["interpreted"] <= 0:
            raise SystemExit(f"cell {key}: non-positive interpreted rate")
        out[key] = engines["compiled"] / engines["interpreted"]
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench", required=True,
                    help="path to the built micro_cycle binary")
    ap.add_argument("--baseline", default="bench/BENCH_cycle.json",
                    help="committed baseline report")
    ap.add_argument("--tolerance", type=float, default=0.10,
                    help="allowed fractional ratio regression (default 0.10)")
    ap.add_argument("--min-gated-ratio", type=float,
                    default=DEFAULT_MIN_GATED_RATIO,
                    help="baseline ratio below which a cell is only held to "
                         "the 1x floor (default %(default)s)")
    ap.add_argument("--fresh", default="",
                    help="reuse this report instead of re-running the bench")
    ap.add_argument("--dry-run", action="store_true",
                    help="validate the baseline (and --fresh report, if "
                         "given) and print the gated cells without running "
                         "the bench")
    args = ap.parse_args()

    baseline = load_report(args.baseline)
    base_ratios = ratios(baseline)

    if args.dry_run:
        print(f"bench_gate: baseline '{args.baseline}' ok — "
              f"{len(base_ratios)} cell(s), reps={baseline['repetitions']}, "
              f"window={baseline['window_ms']}ms")
        for (suite, scheme), ratio in sorted(base_ratios.items()):
            gated = ratio >= args.min_gated_ratio
            print(f"  {suite:<10} {scheme:<12} {ratio:>6.2f}x "
                  f"{'gated' if gated else 'floor-only'}")
        if args.fresh:
            fresh_ratios = ratios(load_report(args.fresh))
            print(f"bench_gate: fresh '{args.fresh}' ok — "
                  f"{len(fresh_ratios)} cell(s)")
        print("bench_gate: dry run, no bench executed")
        return 0

    if args.fresh:
        fresh = load_report(args.fresh)
    else:
        fd, tmp = tempfile.mkstemp(prefix="bench_gate_", suffix=".json")
        os.close(fd)
        try:
            cmd = [args.bench,
                   "--reps", str(baseline["repetitions"]),
                   "--window-ms", str(baseline["window_ms"]),
                   "--json", tmp]
            print("+", " ".join(cmd), flush=True)
            subprocess.run(cmd, check=True)
            fresh = load_report(tmp)
        finally:
            os.unlink(tmp)
    fresh_ratios = ratios(fresh)

    if set(fresh_ratios) != set(base_ratios):
        raise SystemExit("gate: fresh report and baseline cover different "
                         f"cells: {sorted(set(fresh_ratios) ^ set(base_ratios))}")

    failures = []
    print(f"{'suite':<10} {'scheme':<12} {'baseline':>9} {'fresh':>9} "
          f"{'floor':>9}  verdict")
    for key in sorted(base_ratios):
        base, got = base_ratios[key], fresh_ratios[key]
        gated = base >= args.min_gated_ratio
        # Gated cells must stay within tolerance of the committed ratio;
        # saturated cells must merely keep compiled from losing to
        # interpreted outright.
        floor = base * (1.0 - args.tolerance) if gated \
            else 1.0 - args.tolerance
        ok = got >= floor
        suite, scheme = key
        verdict = "ok" if ok else "REGRESSION"
        if not gated:
            verdict += " (ungated: transmission-bound cell)"
        print(f"{suite:<10} {scheme:<12} {base:>8.2f}x {got:>8.2f}x "
              f"{floor:>8.2f}x  {verdict}")
        if not ok:
            failures.append((key, base, got, floor))

    if failures:
        print(f"\nbench_gate: {len(failures)} cell(s) regressed beyond "
              f"{args.tolerance:.0%}:", file=sys.stderr)
        for (suite, scheme), base, got, floor in failures:
            print(f"  {suite}/{scheme}: {got:.2f}x < floor {floor:.2f}x "
                  f"(baseline {base:.2f}x)", file=sys.stderr)
        return 1
    print("\nbench_gate: all cells within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
