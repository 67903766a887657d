"""Smoke test of the benchmark's own code, at a tiny size.

    python3 -m pytest bench/test_bench.py -q

Runs every workload for one or a few samples with tracing off and on,
checks that the printed metrics are exactly the ones BENCHMARK.json
declares, that the span wrappers leave every output hash unchanged and
come off cleanly, and that the benchmark refuses to run without src/.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    CONFIG = json.load(_fh)
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]
SMOKE_SAMPLES = {"walk_checked": 30}
# The workloads that probe a known defect once per run (bench/README.md).
PROBES_DEFECT = {"score_vkdnw"}


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300)


def test_config_shape():
    assert set(CONFIG) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= CONFIG["run_seconds"] <= 60
    assert 2 <= len(WORKLOADS) <= 8
    names = WORKLOADS + [m["name"] for m in CONFIG["end_to_end"] + CONFIG["per_layer"]]
    assert all(NAME.match(n) for n in names)
    assert len(set(WORKLOADS)) == len(WORKLOADS)
    metric_names = [m["name"] for m in CONFIG["end_to_end"] + CONFIG["per_layer"]]
    assert len(set(metric_names)) == len(metric_names)
    for m in CONFIG["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in CONFIG["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert all(UNIT.match(m["unit"]) for m in CONFIG["end_to_end"] + CONFIG["per_layer"])
    setup = next(m for m in CONFIG["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in CONFIG["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke(workload, trace):
    samples = SMOKE_SAMPLES.get(workload, 1)
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--samples", str(samples))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    facts = json.loads(next(x for x in proc.stdout.splitlines() if x.startswith("facts "))[6:])
    assert ("known_defect" in facts) == (workload in PROBES_DEFECT)
    declared = CONFIG["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if "bound" in m:
            assert got["value"] > 0


def test_wrappers_restore_originals():
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    try:
        import archspace
        import spans
        from archspace import graph, mutation, search

        before = (mutation.propose_step, search.propose_step, archspace.propose_step,
                  mutation.CostState.__dict__["from_spec"], graph.BlockGraph.__dict__["digest"])
        tracer = spans.Tracer()
        tracer.install()
        assert search.propose_step is not before[1]
        assert archspace.propose_step is search.propose_step
        tracer.uninstall()
        after = (mutation.propose_step, search.propose_step, archspace.propose_step,
                 mutation.CostState.__dict__["from_spec"], graph.BlockGraph.__dict__["digest"])
        assert all(a is b for a, b in zip(before, after))
    finally:
        del sys.path[:2]


def test_refuses_without_sources():
    with tempfile.TemporaryDirectory(dir=HERE) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__", "tmp*", ".pytest_cache"))
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", WORKLOADS[0],
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
