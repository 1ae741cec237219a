"""Command-line entry point wiring the pipeline stages.

Subcommands: synth, encode, pool, graph, train, infer, eval, run.
Exit codes: 0 ok; 2 a CtGraphError, i.e. the input or the --out is at fault, with
one `error:` line; any other exception is a package defect and leaves `main`
with its traceback (exit 1), from `run` as from every other subcommand.
BLAS worker threads are fixed when numpy loads, so cap them with
OMP_NUM_THREADS / OPENBLAS_NUM_THREADS in the environment before launch.
The synthetic encoder runs one thread per CPU in the affinity mask.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from .container import ensure_dir, read_json
from .encoder import export_pyramid, get_preset, load_pyramid, synth_encode
from .errors import ConfigError, CtGraphError, ShapeError, ValidationError
from .gat import GatModel
from .graph import TOPOLOGIES, TOPOLOGY_HIERARCHICAL, load_graph
from .heads import GRANULARITIES, TrainConfig, read_manifest
from .pipeline import (
    PipelineConfig,
    check_gat_doc,
    eval_stage,
    graph_stage,
    hierarchy_from,
    infer_stage,
    pool_stage,
    run_pipeline,
    stage,
    synth_stage,
    train_gat_stage,
    train_probe_stage,
    write_samples,
)
from .pooling import load_pooled
from .volume import load_mask, load_phantom_spec, load_volume

EXIT_OK = 0
EXIT_CONFIG = 2


def cmd_synth(args) -> None:
    spec = load_phantom_spec(args.spec)
    with stage("synth", count=args.count, out=args.out):
        if args.count < 1:
            raise ConfigError(f"sample count must be positive, got {args.count}")
        out = ensure_dir(args.out)
        write_samples(out, [synth_stage(spec, args.seed, out, i)[2] for i in range(args.count)])


def cmd_encode(args) -> None:
    preset = get_preset(args.preset, registry_path=args.presets)
    volume = load_volume(args.infile)
    with stage("encode", preset=preset.name, out=args.out) as done:
        pyramid = synth_encode(volume, preset, seed=args.seed)
        export_pyramid(pyramid, args.out)
        done["layers"] = pyramid.num_layers


def cmd_pool(args) -> None:
    pyramid = load_pyramid(args.pyramid)
    mask = load_mask(args.mask)
    hierarchy = hierarchy_from(args.hierarchy)
    with stage("pool", out=args.out) as done:
        fine_set, coarse_set, _ = pool_stage(pyramid, mask, hierarchy, args.out)
        done.update(fine=fine_set.num_regions, coarse=coarse_set.num_regions)


def cmd_graph(args) -> None:
    hierarchy = hierarchy_from(args.hierarchy)
    with stage("graph", topology=args.topology) as done:
        graph = graph_stage(hierarchy, args.topology, args.seed, args.out)
        done.update(nodes=len(graph.nodes), edges=len(graph.edges))


def cmd_train(args) -> None:
    if args.mode == "gat" and args.graph is None:
        raise ConfigError("train --mode gat needs --graph")
    manifest = read_manifest(args.manifest)
    base = Path(args.manifest).parent
    targets = np.array([record["labels"] for record in manifest], dtype=np.float64)
    parse_train = functools.partial(TrainConfig.from_json, head=args.mode)
    cfg = read_json(args.config, "train config", parse_train) if args.config else parse_train({})
    gat_doc = read_json(args.gat_config, "gat config", check_gat_doc) if args.gat_config else {}
    with stage("train", mode=args.mode) as done:
        pooled = [load_pooled(base / record["feature_file"]) for record in manifest]
        try:
            if args.mode == "probe":
                trace, _ = train_probe_stage(pooled, targets, args.granularity, cfg, args.out)
            else:
                graph = load_graph(args.graph)
                _, trace, _ = train_gat_stage(pooled, targets, graph, gat_doc, cfg, args.out)
        except CtGraphError as exc:  # stack_pooled names the pooled sample that disagrees
            if not hasattr(exc, "sample"):
                raise
            raise type(exc)(f"{base / manifest[exc.sample]['feature_file']}: {exc}") from exc
        done["f1"] = trace[-1]["f1"] if trace else None


def cmd_infer(args) -> None:
    graph = load_graph(args.graph)
    sample = load_pooled(args.feats)
    model = GatModel.load(args.model)
    with stage("infer", out=args.out) as done:
        try:
            fwd = infer_stage(graph, sample, model, args.out)
        except (ShapeError, ValidationError) as exc:  # a level's width or region ids differ
            raise type(exc)(f"--feats {args.feats}: {exc}") from exc
        done["tokens"] = len(fwd.token_ids)


def _records_by_id(path) -> dict[str, dict]:
    return {str(record["id"]): record for record in read_manifest(path, required=("id",))}


def cmd_eval(args) -> None:
    preds = _records_by_id(args.pred)
    refs = _records_by_id(args.ref)
    shared = sorted(set(preds) & set(refs))
    if not shared:
        raise ValidationError("predictions and references share no ids")
    which = [m.strip() for m in args.metrics.split(",") if m.strip()]
    with stage("eval", metrics=which, samples=len(shared)):
        eval_stage([preds[i] for i in shared], [refs[i] for i in shared], which, args.out)


def cmd_run(args) -> None:
    cfg = PipelineConfig.load(args.config)
    run_pipeline(cfg, out_dir=args.out)


def seed_value(text: str) -> int:
    """argparse type of --seed: numpy's generators take no negative seed."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {value}")
    return value


def out_value(text: str) -> str:
    """argparse type of --out: an empty path would select the working directory."""
    if not text:
        raise argparse.ArgumentTypeError("must be a non-empty path")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ct-graph",
        description="Mask-pooled feature pyramids and hierarchical graph attention, desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate phantom volumes, masks, and labels")
    p.add_argument("--spec", required=True, help="phantom spec JSON")
    p.add_argument("--count", type=int, default=16)
    p.add_argument("--seed", type=seed_value, default=0)
    p.add_argument("--out", type=out_value, required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("encode", help="run the synthetic encoder over a volume")
    p.add_argument("--preset", required=True)
    p.add_argument("--presets", default=None, help="extra preset registry JSON")
    p.add_argument("--seed", type=seed_value, default=7)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", type=out_value, required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("pool", help="mask-guided pooling over a pyramid")
    p.add_argument("--pyramid", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--hierarchy", default=None)
    p.add_argument("--out", type=out_value, required=True)
    p.set_defaults(func=cmd_pool)

    p = sub.add_parser("graph", help="build the region graph")
    p.add_argument("--hierarchy", default=None)
    p.add_argument("--topology", default=TOPOLOGY_HIERARCHICAL, choices=TOPOLOGIES)
    p.add_argument("--seed", type=seed_value, default=0)
    p.add_argument("--out", type=out_value, required=True)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("train", help="train the probe or the graph classifier")
    p.add_argument("--mode", required=True, choices=["probe", "gat"])
    p.add_argument("--manifest", required=True)
    p.add_argument("--config", default=None, help="train config JSON")
    p.add_argument("--graph", default=None, help="graph JSON (gat mode)")
    p.add_argument("--gat-config", default=None, help="gat dimensions JSON (gat mode)")
    p.add_argument("--granularity", default="fine", choices=GRANULARITIES, help="probe feature granularity")
    p.add_argument("--out", type=out_value, required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="export node tokens from pooled features")
    p.add_argument("--graph", required=True)
    p.add_argument("--feats", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", type=out_value, required=True)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="score predictions against references")
    p.add_argument("--pred", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--metrics", default="ce")
    p.add_argument("--out", type=out_value, required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("run", help="run the full pipeline from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", type=out_value, default=None)
    p.set_defaults(func=cmd_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except CtGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
