#!/usr/bin/env python3
"""Write a paper-scale `ct-graph run` config and the phantom spec it reads.

The phantom is the demo layout scaled x4 along every axis, to 128x128x64;
the run encodes it with the swinunetr-style preset and trains the graph
classifier at paper width (d_h 256, 4 heads, export_dim 64).

Usage: python scripts/make_paper_scale_config.py --samples 32 [--out paper.json]
Then:  ct-graph run --config paper.json
"""

import argparse
from dataclasses import replace
from pathlib import Path

from ctgraph.container import write_json
from ctgraph.demo import demo_phantom_spec, demo_pipeline_config
from ctgraph.volume import save_phantom_spec

SCALE = 4


def scaled_demo_spec(scale: int):
    """The demo phantom layout blown up scale times along every axis."""
    base = demo_phantom_spec()
    shift = (scale - 1) / 2  # keeps each region centred on the same voxels

    def center(c):
        return tuple(scale * x + shift for x in c)

    return replace(
        base,
        shape=tuple(scale * s for s in base.shape),
        regions=tuple(
            replace(r, center=center(r.center), radii=tuple(scale * x for x in r.radii))
            for r in base.regions
        ),
        pathologies=tuple(replace(p, radius=scale * p.radius) for p in base.pathologies),
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--samples", type=int, required=True, help="phantom samples the run makes")
    parser.add_argument("--out", default="paper.json", help="run config to write")
    parser.add_argument("--spec", default="paper_phantom.json", help="phantom spec to write")
    parser.add_argument("--out-dir", default="paper_out", help="pipeline output directory")
    args = parser.parse_args()
    save_phantom_spec(args.spec, scaled_demo_spec(SCALE))
    config = demo_pipeline_config(out_dir=args.out_dir)
    config.update(
        preset="swinunetr-style",
        phantom_spec=str(Path(args.spec).resolve()),  # the run may start in another directory
        num_samples=args.samples,
        gat_train={**config["gat_train"], "epochs": 3, "batch_size": 16},
        gat={"d_h": 256, "n_heads": 4, "export_dim": 64},
    )
    write_json(args.out, config)
    print(f"wrote {args.out} and {args.spec} (pipeline output goes to {args.out_dir}/)")


if __name__ == "__main__":
    main()
