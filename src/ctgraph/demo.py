"""Bundled desk-scale demo: phantom layout, dataset builder, pipeline config.

The demo phantom packs all 37 labeled structures of the default hierarchy
(34 fine plus the three childless coarse structures) into a 32x32x16 grid
of small ellipsoids and defines ten lesion pathologies hosted in fine
regions spread across the anatomical systems.
"""

from __future__ import annotations

import numpy as np

from .encoder import get_preset, synth_encode
from .errors import ValidationError
from .graph import AnatomyHierarchy, default_hierarchy
from .pooling import pool_all, stack_pooled
from .volume import PathologySpec, PhantomSpec, RegionSpec, generate_phantom

DEMO_SHAPE = (32, 32, 16)

_H_POSITIONS = (4.0, 10.0, 16.0, 22.0, 28.0)
_W_POSITIONS = (4.0, 12.0, 20.0, 28.0)
_D_POSITIONS = (4.0, 11.0)
DEMO_MAX_LABEL = len(_H_POSITIONS) * len(_W_POSITIONS) * len(_D_POSITIONS)  # one grid slot per label
_RADII_CYCLE = ((2.2, 2.6, 2.2), (2.6, 2.2, 2.4), (2.4, 2.4, 2.6))

_PATHOLOGIES = (
    ("nodule_upper_left_lobe", 1, 0.9, 0.45),
    ("consolidation_lower_right_lobe", 5, 0.8, 0.40),
    ("opacity_middle_lobe", 4, 0.7, 0.45),
    ("liver_lesion", 6, 0.9, 0.40),
    ("spleen_lesion", 7, 0.8, 0.35),
    ("pancreas_lesion", 9, 0.85, 0.40),
    ("myocardial_scar", 18, 0.9, 0.40),
    ("atrial_dilation", 19, 0.75, 0.35),
    ("aortic_calcification", 23, 0.9, 0.45),
    ("vertebral_fracture", 29, 0.85, 0.40),
)


def demo_phantom_spec(
    hierarchy: AnatomyHierarchy | None = None,
    noise_sigma: float = 0.05,
    intensity_jitter: float = 0.25,
) -> PhantomSpec:
    """The demo layout for hierarchy's labels, of seed 0; `with_seed` gives the others."""
    hierarchy = hierarchy or default_hierarchy()
    n_labels = hierarchy.max_label
    if n_labels > DEMO_MAX_LABEL:
        raise ValidationError(
            f"the demo phantom layout holds at most {DEMO_MAX_LABEL} labels, but the hierarchy's "
            f"largest label is {n_labels}: give the run a phantom_spec"
        )
    regions = []
    for label in range(1, n_labels + 1):
        slot = label - 1
        hi = slot % len(_H_POSITIONS)
        wi = (slot // len(_H_POSITIONS)) % len(_W_POSITIONS)
        di = slot // (len(_H_POSITIONS) * len(_W_POSITIONS))
        regions.append(
            RegionSpec(
                label=label,
                center=(_H_POSITIONS[hi], _W_POSITIONS[wi], _D_POSITIONS[di]),
                radii=_RADII_CYCLE[slot % len(_RADII_CYCLE)],
                intensity=0.15 + 0.02 * label,
            )
        )
    pathologies = tuple(
        PathologySpec(name=name, host_label=host, delta=delta, prevalence=prev, radius=1.8)
        for name, host, delta, prev in _PATHOLOGIES
    )
    return PhantomSpec(
        shape=DEMO_SHAPE,
        regions=tuple(regions),
        pathologies=pathologies,
        noise_sigma=noise_sigma,
        intensity_jitter=intensity_jitter,
    )


def build_pooled_dataset(
    spec: PhantomSpec,
    hierarchy: AnatomyHierarchy,
    preset_name: str,
    n_samples: int,
    base_seed: int = 0,
    encoder_seed: int = 7,
):
    """Generate phantoms, encode, and pool: (the samples stacked once by `stack_pooled`, targets)."""
    preset = get_preset(preset_name)
    samples, targets = [], []
    for i in range(n_samples):
        volume, mask, target = generate_phantom(spec.with_seed(base_seed + i))
        pyramid = synth_encode(volume, preset, seed=encoder_seed)
        samples.append(pool_all(pyramid, mask, hierarchy))
        targets.append(target)
    return stack_pooled(samples), np.stack(targets)


def demo_pipeline_config(out_dir: str = "demo_out") -> dict:
    """The bundled 16-sample run config consumed by `ct-graph run`."""
    return {
        "seed": 7,
        "out_dir": out_dir,
        "preset": "demo",
        "hierarchy": None,
        "topology": "hierarchical",
        "phantom_spec": None,
        "num_samples": 16,
        "probe": {"mode": "probe", "epochs": 20, "seed": 7},
        "gat_train": {
            "mode": "gat",
            "epochs": 10,
            "lr": 0.002,
            "batch_size": 8,
            "seed": 7,
        },
        "gat": {"d_h": 32, "n_heads": 4, "export_dim": 64},
    }
