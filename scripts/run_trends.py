#!/usr/bin/env python3
"""Run the phantom trend benchmark and print the paired comparisons.

Covers three directions: fine vs global probe F1, fused vs best single
layer, and hierarchical vs random graph topology. Takes a few minutes.
"""

import argparse
import json

from ctgraph.bench import BenchSettings, run_probe_trend, run_topology_trend


def samples_value(text: str) -> int:
    """argparse type of --samples: a trend needs at least one sample."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {value}")
    return value


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=samples_value, default=120)
    parser.add_argument("--out", default=None, help="optional JSON report path")
    args = parser.parse_args()
    settings = BenchSettings(n_samples=args.samples)

    probe = run_probe_trend(settings)
    print("probe F1 by arm (mean over seeds):")
    for arm, mean in sorted(probe["means"].items()):
        print(f"  {arm:10s} {mean:.3f}   per-seed {probe['per_seed'][arm]}")
    print(f"fine >= global:          {probe['fine_ge_global']}")
    print(f"fused >= best single:    {probe['fused_ge_best_single']} "
          f"(best single {probe['best_single_layer']:.3f})")

    topo = run_topology_trend(settings)
    print("classifier F1 by topology (mean over seeds):")
    for arm, mean in topo["means"].items():
        print(f"  {arm:12s} {mean:.3f}   per-seed {topo['per_seed'][arm]}")
    print(f"hierarchical >= random:  {topo['hierarchical_ge_random']}")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"probe": probe, "topology": topo}, fh, indent=2)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
