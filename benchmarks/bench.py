"""Seeded end-to-end benchmark of specquant: compression, compensated
quantization and serving of one linear layer.

Each workload generates its inputs from --seed with `specquant.synth`, writes
them as NPY and drives the real entry points: `cli.main([...])` in-process for
the commands and the library for the serving loop. Every run checks its
outputs (see `measure`); a failed check counts as a failed operation and makes
the run exit non-zero. With --trace 1 the same pass runs with specquant's
public functions wrapped (see tracing.py) and the per-layer numbers are
reported instead of the end-to-end ones. README.md next to this file lists the
workloads and metrics.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import specquant
from specquant import cli, pipeline, quant, synth, tensor_io

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

RATIO = 0.25
DECAY = 1.5
OUTLIERS = 32
MAGNITUDE = 100.0
ACT_BITS = 4
BATCH = 128
SETUP_REPEATS = 3
# Two identical compress runs also serve the determinism check.
COMPRESS_RUNS = 2
# A timed sample of a shorter operation repeats it for at least this long.
SAMPLE_MIN_S = 0.5
# With 70 forward batches a round, 3 to 14 rounds give 210 to 980 samples:
# p95 always has 10 samples beyond it and p99 never does, so the reported
# tail percentile stays p95 from run to run.
MIN_ROUNDS = 3
MAX_ROUNDS = 14
FORWARD_PER_ROUND = 70
TAIL_LADDER = (90, 95, 99, 99.9)


@dataclass(frozen=True)
class Workload:
    name: str
    c_in: int
    c_out: int
    calib_tokens: int
    smooth: str
    residual_quant: str
    svd_ratios: str
    heldout_tokens: int = 8 * BATCH


WORKLOADS = {
    w.name: w
    for w in (
        # c_in=768 forces Bluestein; the 9-point auto grid repeats the
        # spectral work about 21 times per column.
        Workload("auto-bluestein", 768, 256, 256, "auto", "rtn", "0.1,0.2,0.3"),
        # Radix-2 spectral path once; the O(c_in^3) compensation loop dominates.
        Workload("compensated-pow2", 1024, 256, 512, "0.5", "compensated", "0.25"),
    )
}


class Abort(Exception):
    """An operation the rest of the pass depends on failed."""


class Ops:
    """Counts operations and correctness gates; a failed gate is a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


@dataclass
class Inputs:
    weights: Path
    calib: Path
    heldout: Path
    artifact: Path
    svd: Path
    evals: Path


def make_inputs(wl, seed, work):
    """Generate the workload's matrices from `seed` and write them as NPY.

    Held-out tokens are further rows of the calibration generator call, so
    they share its outlier channels (which are a property of the layer, not
    of a batch) while the compressor never sees them.
    """
    s_w, s_x = (int(v) for v in np.random.SeedSequence(seed).generate_state(2))
    w = synth.smooth_decay_layer(wl.c_in, wl.c_out, decay=DECAY, seed=s_w)
    x = synth.outlier_activations(
        wl.calib_tokens + wl.heldout_tokens, wl.c_in,
        magnitude=MAGNITUDE, num_outliers=OUTLIERS, seed=s_x,
    )
    inp = Inputs(
        weights=work / "w.npy", calib=work / "x_calib.npy", heldout=work / "x_heldout.npy",
        artifact=work / "artifact", svd=work / "compare_svd", evals=work / "eval_matmul",
    )
    tensor_io.save_matrix(w, inp.weights)
    tensor_io.save_matrix(x[: wl.calib_tokens], inp.calib)
    tensor_io.save_matrix(x[wl.calib_tokens :], inp.heldout)
    return inp


def _cli(argv):
    """Run one CLI command in-process; returns its exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def _per_call(fn, exact):
    """(seconds per call, last result) of fn().

    Unless `exact`, fn runs back to back until SAMPLE_MIN_S has passed, so a
    short operation is timed over more work.
    """
    calls, t0 = 0, time.perf_counter()
    while True:
        result = fn()
        calls += 1
        elapsed = time.perf_counter() - t0
        if exact or elapsed >= SAMPLE_MIN_S:
            return elapsed / calls, result


@contextlib.contextmanager
def _saved_layers():
    """Collect every layer `tensor_io.save_compressed_layer` is handed."""
    layers = []
    original = tensor_io.save_compressed_layer

    def keep(layer, *args, **kwargs):
        layers.append(layer)
        return original(layer, *args, **kwargs)

    tensor_io.save_compressed_layer = keep
    try:
        yield layers
    finally:
        tensor_io.save_compressed_layer = original


def _digest(directory):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
    }


def _finite(values):
    return bool(np.isfinite(np.asarray(values, dtype=np.float64)).all())


def tail_percentile(n):
    """Highest ladder percentile with at least 10 of n samples beyond it."""
    fit = [p for p in TAIL_LADDER if n * (100 - p) / 100 >= 10]
    return fit[-1] if fit else None


def _check_report(inp, ops):
    report = json.loads((inp.artifact / "report.json").read_text())
    # The bound is exact arithmetic; a channel that keeps every bin has bound
    # 0 and a rounding-level achieved error, hence the term in the channel norm.
    over = [
        c["channel"] for c in report["channels"]
        if not c["achieved_error"]
        <= c["error_bound"] * (1 + 1e-9) + 1e-12 * c["total_energy"] ** 0.5
    ]
    ops.check(not over, f"achieved error above the tail bound on channels {over[:5]}")
    numbers = [v for c in report["channels"] for v in c.values()]
    numbers += [v for v in report["summary"].values() if not isinstance(v, bool)]
    ops.check(_finite(numbers), "non-finite value in report.json")


def measure(wl, inp, seconds, ops, reference, bounds, span=None, exact=False):
    """Timed rounds of compare-svd, cold start, forward batches and
    eval-matmul; the first COMPRESS_RUNS rounds start with a compress.

    Rounds are at least MIN_ROUNDS (not fewer than COMPRESS_RUNS) and at most
    MAX_ROUNDS; another starts while it is expected to end within `seconds`. Each timing is the median of its samples, which
    are spread over the run, so a slow spell of a shared machine moves it
    less. `span(name)` brackets each operation when tracing; the checks stay
    outside the operation spans. `exact` runs one call per sample; with
    seconds=0 that makes the calls, and so the traced counts, repeat exactly.
    """
    span = span or (lambda name: contextlib.nullcontext())
    compress = [
        "compress", "--weights", inp.weights, "--calib", inp.calib, "--ratio", RATIO,
        "--smooth", wl.smooth, "--residual-quant", wl.residual_quant, "--out", inp.artifact,
    ]
    compare_svd = ["compare-svd", "--weights", inp.weights, "--ratios", wl.svd_ratios, "--out", inp.svd]
    eval_matmul = [
        "eval-matmul", "--weights", inp.weights, "--calib", inp.heldout,
        "--artifact", inp.artifact, "--act-bits", ACT_BITS, "--out", inp.evals,
    ]
    x_all = tensor_io.load_matrix(inp.heldout)
    w = tensor_io.load_matrix(inp.weights)
    reference_y = x_all @ w
    batches = [x_all[i : i + BATCH] for i in range(0, x_all.shape[0], BATCH)]
    times = {"compress_s": [], "compare_svd_s": [], "cold_start_s": [], "eval_matmul_s": []}
    latencies = []
    first_digest = forward_err = None
    start = time.perf_counter()
    rounds = 0
    short_round = 0.0
    while rounds < MIN_ROUNDS or (
        rounds < MAX_ROUNDS and time.perf_counter() - start + short_round <= seconds
    ):
        rounds += 1
        if rounds <= COMPRESS_RUNS:
            with _saved_layers() as saved, span("op.compress"):
                dt, rc = _per_call(lambda: _cli(compress), True)
            if not ops.check(rc == 0 and len(saved) == 1, f"compress exited with {rc}"):
                raise Abort("compress failed")
            times["compress_s"].append(dt)
            in_memory = saved[0]
            digest = _digest(inp.artifact)
            if first_digest is None:
                first_digest = digest
                artifact_bytes = sum(p.stat().st_size for p in inp.artifact.iterdir())
                _check_report(inp, ops)
            else:
                ops.check(digest == first_digest, "two identical compress runs wrote different bytes")
        round_start = time.perf_counter()

        with span("op.compare_svd"):
            dt, rc = _per_call(lambda: _cli(compare_svd), exact)
        times["compare_svd_s"].append(dt)
        if ops.check(rc == 0, f"compare-svd exited with {rc}"):
            rows = json.loads((inp.svd / "compare_svd.json").read_text())["rows"]
            per_rank = wl.c_in + wl.c_out + 1
            ops.check(
                len(rows) == len(wl.svd_ratios.split(","))
                and all(_finite(list(r.values())) and 0 <= r["budget_slack"] < per_rank for r in rows),
                "compare-svd rows are non-finite or not budget-matched",
            )

        with span("op.cold_start"):
            dt, (layer, y0) = _per_call(lambda: _cold_start(inp.artifact, batches[0]), exact)
        times["cold_start_s"].append(dt)
        ops.check(
            np.array_equal(y0, pipeline.forward_approx(batches[0], in_memory, ACT_BITS)),
            "forward on the loaded artifact differs from the in-memory layer",
        )
        if forward_err is None:
            y_all = pipeline.forward_approx(x_all, layer, ACT_BITS)
            ops.check(_finite(y_all), "non-finite forward output")
            forward_err = float(np.linalg.norm(reference_y - y_all))

        for i in range(FORWARD_PER_ROUND):
            with span("op.forward"):
                t0 = time.perf_counter()
                y = pipeline.forward_approx(batches[i % len(batches)], layer, ACT_BITS)
                latencies.append(time.perf_counter() - t0)
            ops.check(_finite(y), "non-finite forward output")

        with span("op.eval_matmul"):
            dt, rc = _per_call(lambda: _cli(eval_matmul), exact)
        times["eval_matmul_s"].append(dt)
        if ops.check(rc == 0, f"eval-matmul exited with {rc}"):
            rows = json.loads((inp.evals / "eval_matmul.json").read_text())["rows"]
            reported = [r["frobenius_error"] for r in rows if r["method"] == "specquant"]
            ops.check(
                _finite([r["frobenius_error"] for r in rows]) and len(reported) == 1
                and abs(reported[0] - forward_err) <= 1e-12 * forward_err,
                "eval-matmul's specquant error disagrees with the loaded layer's forward",
            )
        short_round = time.perf_counter() - round_start

    w_hat = layer.smoothing.lam[:, None] * w
    w_low = layer.low_freq_matrix()
    deq = quant.dequantize(layer.residual)
    ops.check(_finite(w_low) and _finite(deq), "non-finite W' or residual")
    norm_w = float(np.linalg.norm(w_hat))
    quality = {
        "trunc_err_rel": float(np.linalg.norm(w_hat - w_low)) / norm_w,
        "recon_err_rel": float(np.linalg.norm(w_hat - w_low - deq)) / norm_w,
        "forward_err_rel": forward_err / float(np.linalg.norm(reference_y)),
    }
    for name, value in quality.items():
        limit = reference[name] * (1 + bounds[name])
        ops.check(value <= limit, f"{name} {value:.6g} above reference limit {limit:.6g}")

    lat_ms = np.asarray(latencies) * 1e3
    tail = tail_percentile(lat_ms.size)
    return {
        **{name: statistics.median(v) for name, v in times.items()},
        "forward_p50_ms": float(np.median(lat_ms)),
        "forward_tail_ms": float(np.percentile(lat_ms, tail)),
        **quality,
        "artifact_bytes": artifact_bytes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "forward_tail_percentile": tail,
        "forward_samples": int(lat_ms.size),
        "rounds": rounds,
        "round_samples": times,
    }


def _cold_start(artifact, batch):
    """Load the artifact, then the first forward, which builds W'."""
    layer = tensor_io.load_compressed_layer(artifact)
    return layer, pipeline.forward_approx(batch, layer, ACT_BITS)


def _fft_points(n):
    """Points transformed by `spectral.fft` on a length-n input: n for radix-2;
    for Bluestein, three radix-2 transforms of the padded length."""
    if n & (n - 1) == 0:
        return n
    return 3 * (1 << (2 * n - 2).bit_length())


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


TRACE_HOOKS = {
    "spectral.fft": lambda a, k, r: {"points": _fft_points(np.size(_arg(a, k, 0, "x")))},
    "spectral.reconstruct": lambda a, k, r: {
        "cos_evals": _arg(a, k, 0, "spec").retained * _arg(a, k, 0, "spec").n
    },
    "pipeline.select_migration_strength": lambda a, k, r: {
        "candidates": len(_arg(a, k, 2, "grid"))
    },
    "quant.quantize_residual_compensated": lambda a, k, r: {
        "compensated": (_arg(a, k, 0, "r"), _arg(a, k, 1, "bits"), r)
    },
}


def layer_metrics(tracer, c_out, overhead_s, names):
    """Per-layer numbers from the spans recorded under the benchmark's operations.

    A function in `names` that the pass never called reports 0 calls and 0 s.
    """
    spans = tracer.spans
    root = tracing.roots(spans)
    in_ops = [i for i in range(len(spans)) if root[i] != i and spans[root[i]][0].startswith("op.")]
    stats = tracing.self_times(spans, in_ops)
    out = {n: 0 for n in names if n.endswith((".calls", ".self_s"))}
    for name, (calls, self_s) in stats.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    kept = set(in_ops)
    sums = {}
    for idx, key, value in tracer.extras:
        if idx in kept and key != "compensated":
            sums[key] = sums.get(key, 0) + value
    out["spectral.fft.points"] = sums.get("points", 0)
    out["spectral.reconstruct.cos_evals"] = sums.get("cos_evals", 0)
    out["pipeline.select_migration_strength.candidates"] = sums.get("candidates", 0)

    first_compress = next(i for i, s in enumerate(spans) if s[0] == "op.compress")
    for fn in ("fft", "reconstruct"):
        calls = sum(1 for i in in_ops if root[i] == first_compress and spans[i][0] == f"spectral.{fn}")
        out[f"spectral.{fn}.per_column"] = calls / c_out

    differ = channels = fallback = 0
    for idx, key, (r, bits, q) in ((i, k, v) for i, k, v in tracer.extras if k == "compensated"):
        if idx in kept:
            rtn = quant.quantize(r, bits, "per_channel").codes
            differ += int((q.codes != rtn).any(axis=0).sum())
            channels += q.cols
            fallback += int(q.rtn_fallback)
    out["quant.compensated_win_ratio"] = differ / channels if channels else 0.0
    out["quant.rtn_fallback"] = fallback

    covered = tracing.child_time(spans)
    out["trace.uncovered_s"] = sum(
        (s[2] - s[1]) - covered[i] for i, s in enumerate(spans)
        if s[3] is None and s[0].startswith("op.")
    )
    out["trace.overhead_s"] = overhead_s
    return out


def environment(workload, seed, threads):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = done.stdout.strip() if done.returncode == 0 else None
    return {
        "workload": workload,
        "seed": seed,
        "numpy": np.__version__,
        "specquant": specquant.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "commit": commit,
        "specquant_threads_env": os.environ.get("SPECQUANT_THREADS"),
    }


def run(wl, seed, seconds, trace, reference, bounds, work, ops, names):
    """Set up and measure one workload; returns (metrics, trace spans or None)."""
    setup_s = []
    for _ in range(1 if trace else SETUP_REPEATS):
        t0 = time.perf_counter()
        inp = make_inputs(wl, seed, work)
        setup_s.append(time.perf_counter() - t0)
    if not trace:
        metrics = measure(wl, inp, seconds, ops, reference, bounds)
        return {"setup_s": statistics.median(setup_s), **metrics}, None
    tracer = tracing.Tracer(TRACE_HOOKS)
    with tracing.installed(tracer):
        # Exactly MIN_ROUNDS rounds, so the traced counts repeat exactly.
        traced = measure(wl, inp, 0, ops, reference, bounds, span=tracer.span, exact=True)
    batch = tensor_io.load_matrix(inp.heldout)[:BATCH]
    untraced = [_per_call(lambda: _cold_start(inp.artifact, batch), True)[0] for _ in range(MIN_ROUNDS)]
    overhead_s = traced["cold_start_s"] - statistics.median(untraced)
    return layer_metrics(tracer, wl.c_out, overhead_s, names), tracer.spans


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    reference = json.loads((HERE / "reference.json").read_text())["quality"][args.workload]
    wl = WORKLOADS[args.workload]
    env = environment(wl.name, args.seed, os.environ.get("OPENBLAS_NUM_THREADS"))

    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{wl.name}-{args.seed}-{os.getpid()}"
    work.mkdir()
    ops = Ops()
    try:
        values, spans = run(
            wl, args.seed, args.seconds, args.trace, reference, bounds, work, ops,
            [m["name"] for m in wanted],
        )
    except Abort:
        values, spans = {}, None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = not ops.failures and bool(values)
    metrics = {}
    if values:
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record = {
        "env": env, "trace": args.trace, "correct": correct, "attempted": ops.attempted,
        "failed": len(ops.failures), "failures": ops.failures, "values": values,
    }
    if spans:
        # [name, start, end, parent index], seconds from the first span's start.
        t0 = spans[0][1]
        record["spans"] = [[n, round(s - t0, 7), round(e - t0, 7), p] for n, s, e, p in spans]
    out = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, separators=(",", ":")) + "\n")

    print(f"env {json.dumps(env, sort_keys=True)}")
    for failure in ops.failures:
        print(f"FAILED {failure}")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>14.6g} {m['unit']}")
    if not args.trace and values:
        print(
            f"{'forward_tail_ms is p' + format(values['forward_tail_percentile'], 'g'):48s}"
            f" {values['forward_samples']:>14d} samples"
        )
        print(f"{'rounds':48s} {values['rounds']:>14d} count")
        print(f"{'ops_attempted':48s} {ops.attempted:>14d} count")
        print(f"{'ops_failed':48s} {len(ops.failures):>14d} count")
    print(f"record {os.path.relpath(out, ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": max(ops.attempted, 1),
        "failed": len(ops.failures), "metrics": metrics,
    }))
    return 0 if correct else 1
