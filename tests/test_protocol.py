import pytest

from archspace.errors import FormatError
from archspace.protocol import emit_protocol


def test_classification_with_eight_gpus():
    cfg = emit_protocol("classification", gpu_count=8)
    assert cfg["dataset"] == "ImageNet-1k"
    assert cfg["head"] == "FC"
    assert cfg["epochs"] == 150
    assert cfg["warmup_epochs"] == 5
    assert cfg["batch_size_per_gpu"] == 48
    assert cfg["optimizer"] == "AdamW"
    assert cfg["weight_decay"] == 0.05
    assert cfg["lr_schedule"] == "cosine"
    assert cfg["base_lr"] == pytest.approx(8e-4)
    assert cfg["warmup_lr"] == pytest.approx(8e-7)
    assert cfg["min_lr"] == pytest.approx(8e-6)
    assert cfg["data_augmentation"] == ["rand-m15-n2-mstd0.5"]
    assert cfg["gradient_clip"] == 1.0
    assert cfg["drop_path"] == 0.2
    assert cfg["input_resolution"] == [224, 224]


def test_detection_symbolic_gpu_count():
    cfg = emit_protocol("detection")
    assert cfg["dataset"] == "COCO"
    assert cfg["head"] == "Mask R-CNN"
    assert cfg["epochs"] == 12
    assert cfg["batch_size_per_gpu"] == 4
    assert cfg["lr_schedule"] == "multi-step"
    assert cfg["base_lr"] == "N*2.5e-05"
    assert cfg["warmup_lr"] == "N*1e-07"
    assert cfg["min_lr"] == "N*2.5e-06"
    assert cfg["data_augmentation"] == ["RandFlip0.5"]
    assert cfg["drop_path"] == 0.1
    assert cfg["input_resolution"] == [1280, 800]


def test_segmentation_with_four_gpus():
    cfg = emit_protocol("segmentation", gpu_count=4)
    assert cfg["dataset"] == "ADE20K"
    assert cfg["head"] == "UperNet"
    assert cfg["epochs"] == 125
    assert cfg["lr_schedule"] == "linear"
    assert cfg["min_lr"] == 0.0          # absolute, never scaled
    assert cfg["base_lr"] == pytest.approx(6e-5)
    assert cfg["data_augmentation"] == ["PhotoMetricDist.", "RandFlip0.5"]
    assert cfg["drop_path"] == 0.3
    assert cfg["input_resolution"] == [512, 512]


@pytest.mark.parametrize("gpu_count", [0, -2])
def test_gpu_count_below_one_is_refused(gpu_count):
    # at -2 the classification base_lr would read -0.0002, at 0 it would read 0.0
    with pytest.raises(ValueError, match=f"^gpu_count must be >= 1, got {gpu_count}$"):
        emit_protocol("classification", gpu_count=gpu_count)


def test_shared_optimizer_settings():
    for task in ("classification", "detection", "segmentation"):
        cfg = emit_protocol(task)
        assert cfg["optimizer"] == "AdamW"
        assert cfg["weight_decay"] == 0.05
        assert cfg["warmup_epochs"] == 5
        assert cfg["gradient_clip"] == 1.0


def test_unknown_task_rejected():
    with pytest.raises(FormatError):
        emit_protocol("pretraining")
