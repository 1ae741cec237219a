#!/usr/bin/env python3
"""Write the bundled demo pipeline config next to the repo.

Usage: python scripts/make_demo_config.py [--out demo.json]
Then:  ct-graph run --config demo.json
"""

import argparse

from ctgraph.container import write_json
from ctgraph.demo import demo_pipeline_config


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="demo.json")
    parser.add_argument("--out-dir", default="demo_out", help="pipeline output directory")
    args = parser.parse_args()
    config = demo_pipeline_config(out_dir=args.out_dir)
    write_json(args.out, config)
    print(f"wrote {args.out} (pipeline output goes to {args.out_dir}/)")


if __name__ == "__main__":
    main()
