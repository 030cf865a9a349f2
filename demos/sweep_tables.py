#!/usr/bin/env python3
"""Sweep table capacities across one workload and merge the reports.

Uses the programmatic sweep API: one config per preset bundle, all sharing
the same workload and seed, merged into a single report.csv.

Usage:
    python3 demos/sweep_tables.py
    python3 demos/sweep_tables.py --shrink 4 --out out/sweep_report.csv
"""

import argparse

from opconv.cli import AUTO_SHRINK, DEFAULTS, PRESETS, sweep


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="out/sweep_report.csv")
    ap.add_argument("--shrink", type=int, default=AUTO_SHRINK["lenet5"])
    ap.add_argument("--presets", nargs="*", default=[
        "intraSM_C1", "intraSM_C2", "interSM_C1", "interSM_C2",
        "combined_C1", "combined_C2"])
    args = ap.parse_args()

    configs = []
    for name in args.presets:
        cfg = dict(DEFAULTS)
        cfg.update(PRESETS[name])
        cfg["workload.shrink"] = args.shrink
        configs.append(cfg)

    rows, failures = sweep(configs, args.out, log=lambda _: None)
    if failures:
        raise SystemExit("verification failed: " + "; ".join(failures))

    print(f"{len(rows)} rows -> {args.out}")
    print(f"{'layer':>6} {'scheme':>9} {'tables':>14} {'cycles':>9} "
          f"{'ipc_norm':>9} {'energy_norm':>12}")
    for row in rows:
        print(f"{row['layer']:>6} {row['scheme']:>9} {row['table_cfg']:>14} "
              f"{row['cycles']:>9} {row['ipc_norm']:>9.3f} "
              f"{row['energy_norm']:>12.3f}")


if __name__ == "__main__":
    main()
