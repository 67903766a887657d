"""Standardized training/evaluation protocol emitter.

Emits the per-task recipe (dataset, head, schedule, learning rates, ...)
as a structured config.  Batch sizes are per GPU; learning-rate fields
scale linearly with the GPU count N and are emitted as symbolic "N*..."
strings until a concrete N is supplied.  Augmentation names are opaque
identifiers for external augmentation libraries and are emitted verbatim,
never interpreted.  No training happens here.
"""

from __future__ import annotations

from .errors import FormatError, check_at_least

TASKS = ("classification", "detection", "segmentation")

# (value, scales_with_gpu_count)
_PROTOCOLS = {
    "classification": {
        "dataset": "ImageNet-1k",
        "head": "FC",
        "epochs": 150,
        "warmup_epochs": 5,
        "batch_size_per_gpu": 48,
        "optimizer": "AdamW",
        "weight_decay": 0.05,
        "lr_schedule": "cosine",
        "warmup_lr": (1e-7, True),
        "min_lr": (1e-6, True),
        "base_lr": (1e-4, True),
        "data_augmentation": ["rand-m15-n2-mstd0.5"],
        "gradient_clip": 1.0,
        "drop_path": 0.2,
        "input_resolution": [224, 224],
    },
    "detection": {
        "dataset": "COCO",
        "head": "Mask R-CNN",
        "epochs": 12,
        "warmup_epochs": 5,
        "batch_size_per_gpu": 4,
        "optimizer": "AdamW",
        "weight_decay": 0.05,
        "lr_schedule": "multi-step",
        "warmup_lr": (1e-7, True),
        "min_lr": (2.5e-6, True),
        "base_lr": (2.5e-5, True),
        "data_augmentation": ["RandFlip0.5"],
        "gradient_clip": 1.0,
        "drop_path": 0.1,
        "input_resolution": [1280, 800],
    },
    "segmentation": {
        "dataset": "ADE20K",
        "head": "UperNet",
        "epochs": 125,
        "warmup_epochs": 5,
        "batch_size_per_gpu": 4,
        "optimizer": "AdamW",
        "weight_decay": 0.05,
        "lr_schedule": "linear",
        "warmup_lr": (1e-7, True),
        "min_lr": (0.0, False),
        "base_lr": (1.5e-5, True),
        "data_augmentation": ["PhotoMetricDist.", "RandFlip0.5"],
        "gradient_clip": 1.0,
        "drop_path": 0.3,
        "input_resolution": [512, 512],
    },
}


def emit_protocol(task: str, gpu_count: int | None = None) -> dict:
    """Protocol config for one task; LRs scale by N when gpu_count (>= 1) is given."""
    if task not in _PROTOCOLS:
        raise FormatError(f"unknown task {task!r}; choose from {TASKS}")
    if gpu_count is not None:
        check_at_least("gpu_count", gpu_count, 1)
    out: dict = {"task": task, "gpu_count": gpu_count}
    for key, value in _PROTOCOLS[task].items():
        if isinstance(value, tuple):
            factor, scaled = value
            if not scaled:
                out[key] = factor
            elif gpu_count is None:
                out[key] = f"N*{factor!r}"
            else:
                out[key] = gpu_count * factor
        else:
            out[key] = value
    return out
