"""The benchmark's own checks, on scaled-down copies of its workloads.

Run from the repository root: python3 -m pytest benchmarks
"""

import dataclasses
import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bench  # noqa: E402
import tracing  # noqa: E402
from specquant import cli, spectral  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
QUALITY = ("trunc_err_rel", "recon_err_rel", "forward_err_rel")
# Counts that depend only on the inputs, so a repeated run must reproduce them.
EXACT = (
    "spectral.fft.points",
    "spectral.reconstruct.cos_evals",
    "spectral.fft.per_column",
    "spectral.reconstruct.per_column",
    "pipeline.select_migration_strength.candidates",
    "quant.compensated_win_ratio",
    "quant.rtn_fallback",
)
SMALL = {
    "auto-bluestein": dict(c_in=48, c_out=32, calib_tokens=32, heldout_tokens=2 * bench.BATCH),
    "compensated-pow2": dict(c_in=64, c_out=8, calib_tokens=64, heldout_tokens=2 * bench.BATCH),
}
LOOSE = {name: 10.0 for name in QUALITY}
NO_SLACK = {name: 0.0 for name in QUALITY}


def small(name):
    return dataclasses.replace(bench.WORKLOADS[name], **SMALL[name])


def run_small(name, seed, trace, tmp_path, reference=LOOSE):
    ops = bench.Ops()
    work = tmp_path / f"{name}-{seed}-{trace}-{len(list(tmp_path.iterdir()))}"
    work.mkdir()
    values, _ = bench.run(
        small(name), seed, 0, trace, reference, NO_SLACK, work, ops,
        PER_LAYER if trace else END_TO_END,
    )
    return ops, values


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_gates_pass_and_every_end_to_end_metric_is_positive(name, tmp_path):
    ops, values = run_small(name, 3, 0, tmp_path)
    assert ops.failures == []
    assert values["rounds"] == bench.MIN_ROUNDS
    assert ops.attempted >= bench.MIN_ROUNDS * bench.FORWARD_PER_ROUND
    for metric in END_TO_END:
        assert values[metric] > 0, metric
    assert values["forward_tail_percentile"] == 95


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_traced_counts_repeat_exactly(name, tmp_path):
    original = spectral.fft
    ops_a, first = run_small(name, 5, 1, tmp_path)
    ops_b, second = run_small(name, 5, 1, tmp_path)
    assert spectral.fft is original
    assert ops_a.failures == [] and ops_b.failures == []
    assert set(PER_LAYER) <= set(first)
    for metric in EXACT:
        assert first[metric] == second[metric], metric
    for metric in PER_LAYER:
        if metric.endswith(".calls"):
            assert first[metric] == second[metric], metric


def test_auto_search_counts_per_column(tmp_path):
    _, values = run_small("auto-bluestein", 2, 1, tmp_path)
    # 10 compress_layer calls (9 candidates + final) and the report's stats pass.
    assert values["spectral.fft.per_column"] == 21
    assert values["spectral.reconstruct.per_column"] == 21
    assert values["pipeline.select_migration_strength.candidates"] == bench.COMPRESS_RUNS * 9
    assert values["quant.quantize_residual_compensated.calls"] == 0


def test_compensated_counts(tmp_path):
    _, values = run_small("compensated-pow2", 2, 1, tmp_path)
    assert values["quant.quantize_residual_compensated.calls"] == bench.COMPRESS_RUNS
    assert 0.0 <= values["quant.compensated_win_ratio"] <= 1.0
    assert values["pipeline.select_migration_strength.calls"] == 0


def test_every_layer_metric_has_its_expected_move():
    moves = json.loads((HERE / "reference.json").read_text())["moves"]
    assert set(moves) == set(PER_LAYER)
    for entry in moves.values():
        assert set(entry["end_to_end"]) <= set(END_TO_END)
        assert set(entry["workloads"]) <= set(bench.WORKLOADS)


def test_fft_points_count_bluestein_padding():
    assert bench._fft_points(1024) == 1024
    assert bench._fft_points(768) == 3 * 2048


def test_tail_percentile_keeps_ten_samples_beyond():
    assert bench.tail_percentile(199) == 90
    assert bench.tail_percentile(bench.MIN_ROUNDS * bench.FORWARD_PER_ROUND) == 95
    assert bench.tail_percentile(bench.MAX_ROUNDS * bench.FORWARD_PER_ROUND) == 95
    assert bench.tail_percentile(1000) == 99
    assert bench.tail_percentile(99) is None


def test_quality_gate_counts_failures(tmp_path):
    ops, _ = run_small("compensated-pow2", 3, 0, tmp_path, reference={n: 1e-9 for n in QUALITY})
    assert len(ops.failures) == len(QUALITY)


def test_self_time_excludes_children():
    spans = [["a", 0.0, 10.0, None], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    assert tracing.roots(spans) == [0, 0, 0, 0]
    stats = tracing.self_times(spans, range(len(spans)))
    assert stats == {"a": [1, 6.0], "b": [2, 3.0], "c": [1, 1.0]}


def test_nondeterministic_artifact_fails_the_run(tmp_path, monkeypatch, capsys):
    stamp = itertools.count()
    real = cli._run_config
    monkeypatch.setattr(cli, "_run_config", lambda args: {**real(args), "stamp": next(stamp)})
    monkeypatch.setitem(bench.WORKLOADS, "auto-bluestein", small("auto-bluestein"))
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)
    rc = bench.main(["--workload", "auto-bluestein", "--seed", "1", "--seconds", "0"])
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert rc == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert any("different bytes" in line for line in out)


def test_without_the_program_it_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "auto-bluestein",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
