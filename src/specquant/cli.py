"""Command-line front end.

Commands:

- ``compress``     weights + calibration NPY -> artifact dir + JSON/CSV report
- ``analyze``      per-channel spectral energy report of a weight dump
- ``compare-svd``  spectral truncation vs budget-matched SVD over a ratio sweep
- ``eval-matmul``  Frobenius error of quantization variants on given activations
- ``synth``        seeded synthetic weight/activation generators (NPY out)

Every command is deterministic given its inputs and --seed; reports embed the
resolved configuration.
"""

import argparse
import csv
import json
import os
import sys
import traceback

import numpy as np

from . import __version__, pipeline, quant, spectral, synth, tensor_io
from .budget import DEFAULT_METRIC, METRICS, spectral_entropy
from .errors import DataError, ShapeError, SpecQuantError
from .validation import norm


def _json_text(payload):
    """Strict JSON text; a value past the float64 range raises DataError."""
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise DataError(f"report value past the float64 range: {exc}") from None


def _write_text(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_csv(path, fieldnames, rows):
    """CSV of the rows; a value past the float64 range raises DataError
    before the file is opened."""
    for row in rows:
        for name, value in row.items():
            if isinstance(value, float) and not np.isfinite(value):
                raise DataError(f"report value past the float64 range: {name} is {value}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def _run_config(args):
    cfg = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    cfg["version"] = __version__
    return cfg


def _parse_smooth(value):
    if value == "auto":
        return "auto"
    try:
        return float(value)
    except ValueError:
        raise ValueError(
            f"--smooth must be 'auto' or a number in [0, 1], got {value!r}"
        ) from None


def cmd_compress(args):
    w = tensor_io.load_matrix(args.weights)
    x = tensor_io.load_matrix(args.calib)
    layer = pipeline.compress_layer(
        x,
        w,
        ratio=args.ratio,
        groups=args.groups,
        metric=args.metric,
        alpha=args.alpha,
        residual_bits=args.residual_bits,
        smooth=_parse_smooth(args.smooth),
        residual_quant=args.residual_quant,
    )
    w_hat = layer.smoothing.lam[:, None] * w
    trunc = w_hat - layer.low_freq_matrix()
    achieved = norm(trunc, axis=0)
    total, retained, tail = layer.energy
    half = spectral.half_spectrum_length(layer.c_in)
    total_bins = int(layer.plan.k.sum())
    params = layer.c_in * layer.c_out
    summary = {
        "c_in": layer.c_in,
        "c_out": layer.c_out,
        "migration_strength": layer.smoothing.migration_strength,
        "total_retained_bins": total_bins,
        "achieved_bin_ratio": total_bins / (layer.c_out * half) if layer.c_out else 0.0,
        "bits_per_parameter": 8 * tensor_io.stored_bytes(layer) / params if params else 0.0,
        "truncation_error_frobenius": float(norm(trunc)),
        "reconstruction_error_frobenius": float(norm(trunc - layer.residual_matrix())),
        "forward_error_highprec": float(
            norm(x @ w - pipeline.forward_approx(x, layer, activation_bits=None))
        ),
        "residual_rtn_fallback": bool(layer.residual.rtn_fallback),
    }
    rows = [
        {
            "channel": j,
            "k": int(layer.plan.k[j]),
            "rho": float(layer.plan.rho[j]),
            "total_energy": float(total[j]),
            "retained_energy": float(retained[j]),
            "tail_energy": float(tail[j]),
            "error_bound": float(np.sqrt(tail[j])),
            "achieved_error": float(achieved[j]),
        }
        for j in range(layer.c_out)
    ]
    # Serialized first: an unrepresentable value leaves no artifact behind.
    report = _json_text({"config": _run_config(args), "summary": summary, "channels": rows})
    budget_meta = {
        "metric": args.metric,
        "temperature": args.alpha,
        "compression_ratio": args.ratio,
    }
    tensor_io.save_compressed_layer(
        layer, args.out, layer_name=args.layer_name, budget_meta=budget_meta
    )
    _write_text(os.path.join(args.out, "report.json"), report)
    _write_csv(
        os.path.join(args.out, "report.csv"),
        [
            "channel", "k", "rho", "total_energy", "retained_energy",
            "tail_energy", "error_bound", "achieved_error",
        ],
        rows,
    )
    print(f"wrote artifact and report to {args.out}")
    return 0


def cmd_analyze(args):
    w = tensor_io.load_matrix(args.weights)
    os.makedirs(args.out, exist_ok=True)
    c_in, c_out = w.shape
    spec = spectral.fft_columns(w)
    total, _, _ = spectral.band_energies(spec, 1, c_in)
    fractions = spectral.lowband_fraction(spec, c_in, args.band)
    entropy = spectral_entropy(spec)
    rows = [
        {
            "channel": j,
            "total_energy": float(total[j]),
            "lowband_fraction": float(fractions[j]),
            "spectral_entropy": float(entropy[j]),
        }
        for j in range(c_out)
    ]
    summary = {
        "c_in": c_in,
        "c_out": c_out,
        "band": args.band,
        "mean_lowband_fraction": float(fractions.mean()) if c_out else 0.0,
        "std_lowband_fraction": float(fractions.std()) if c_out else 0.0,
        "mean_spectral_entropy": float(entropy.mean()) if c_out else 0.0,
    }
    text = _json_text({"config": _run_config(args), "summary": summary})
    _write_csv(
        os.path.join(args.out, "analyze.csv"),
        ["channel", "total_energy", "lowband_fraction", "spectral_entropy"],
        rows,
    )
    _write_text(os.path.join(args.out, "analyze.json"), text)
    print(
        f"analyzed {c_out} channels: mean low-band fraction "
        f"{summary['mean_lowband_fraction']:.4f} at band {args.band}"
    )
    return 0


def cmd_compare_svd(args):
    w = tensor_io.load_matrix(args.weights)
    ratios = [float(v) for v in args.ratios.split(",") if v.strip()]
    if not ratios:
        raise ValueError("--ratios must name at least one ratio")
    recs = pipeline.compare_budgets(w, ratios, metric=args.metric, alpha=args.alpha)
    os.makedirs(args.out, exist_ok=True)
    fields = ["ratio", "b_spectral", "b_svd", "k_svd", "budget_slack", "err_spectral", "err_svd"]
    rows = [{f: getattr(rec, f) for f in fields} for rec in recs]
    _write_text(
        os.path.join(args.out, "compare_svd.json"),
        _json_text({"config": _run_config(args), "rows": rows}),
    )
    _write_csv(os.path.join(args.out, "compare_svd.csv"), fields, rows)
    print(f"wrote {len(rows)} comparison rows to {args.out}")
    return 0


def cmd_eval_matmul(args):
    w = tensor_io.load_matrix(args.weights)
    x = tensor_io.load_matrix(args.calib)
    layer = tensor_io.load_compressed_layer(args.artifact)
    if w.shape != (layer.c_in, layer.c_out):
        raise ShapeError(
            f"weights are {w.shape[0]}x{w.shape[1]}, the artifact is {layer.c_in}x{layer.c_out}"
        )
    if x.shape[1] != layer.c_in:
        raise ShapeError(
            f"activations have {x.shape[1]} columns, the artifact expects c_in={layer.c_in}"
        )
    weight_bits = layer.residual.bits
    reference = x @ w

    def err(y):
        return float(norm(y - reference))

    naive = quant.dequantize(quant.quantize(x, args.act_bits, "per_token")) @ quant.dequantize(
        quant.quantize(w, weight_bits, "per_channel")
    )
    x_hat, w_hat = pipeline.apply_smoothing(x, w, layer.smoothing)
    smooth_only = quant.dequantize(
        quant.quantize(x_hat, args.act_bits, "per_token")
    ) @ quant.dequantize(quant.quantize(w_hat, weight_bits, "per_channel"))
    specq = pipeline.forward_approx(x, layer, activation_bits=args.act_bits)
    rows = [
        {"method": "fp-reference", "frobenius_error": 0.0},
        {"method": f"naive-W{weight_bits}A{args.act_bits}", "frobenius_error": err(naive)},
        {
            "method": f"smooth-only-W{weight_bits}A{args.act_bits}",
            "frobenius_error": err(smooth_only),
        },
        {"method": "specquant", "frobenius_error": err(specq)},
    ]
    os.makedirs(args.out, exist_ok=True)
    _write_text(
        os.path.join(args.out, "eval_matmul.json"),
        _json_text({"config": _run_config(args), "rows": rows}),
    )
    _write_csv(os.path.join(args.out, "eval_matmul.csv"), ["method", "frobenius_error"], rows)
    print(f"wrote {len(rows)} method rows to {args.out}")
    return 0


def cmd_synth(args):
    if args.kind == "smooth-decay":
        m = synth.smooth_decay_layer(args.rows, args.cols, decay=args.decay, seed=args.seed)
    elif args.kind == "outlier-activations":
        m = synth.outlier_activations(
            args.rows,
            args.cols,
            magnitude=args.magnitude,
            num_outliers=args.num_outliers,
            seed=args.seed,
        )
    else:
        m = synth.gaussian_matrix(args.rows, args.cols, scale=args.scale, seed=args.seed)
    tensor_io.save_matrix(m, args.out)
    print(f"wrote {args.rows}x{args.cols} {args.kind} matrix to {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="specquant",
        description="Two-stage layer compression: smoothing + channel-wise "
        "low-frequency truncation with budgeted residual quantization.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="compress one layer to an artifact directory")
    p.add_argument("--weights", required=True, help="weight matrix NPY (c_in x c_out)")
    p.add_argument("--calib", required=True, help="calibration activations NPY (T x c_in)")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--ratio", type=float, help="global retained-bin ratio in (0, 1]")
    g.add_argument("--groups", type=int, help="fixed retained bins per channel")
    p.add_argument("--metric", choices=METRICS, default=DEFAULT_METRIC)
    p.add_argument("--alpha", type=float, default=1.0, help="softmax temperature")
    p.add_argument("--residual-bits", type=int, default=pipeline.DEFAULT_RESIDUAL_BITS)
    p.add_argument("--smooth", default="auto", help="migration strength in [0,1] or 'auto'")
    p.add_argument("--residual-quant", choices=("rtn", "compensated"), default="rtn")
    p.add_argument("--layer-name", default="layer")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("analyze", help="per-channel spectral energy report")
    p.add_argument("--weights", required=True)
    p.add_argument("--band", type=float, default=0.2, help="low-frequency bin share")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("compare-svd", help="spectral vs budget-matched SVD sweep")
    p.add_argument("--weights", required=True)
    p.add_argument("--ratios", default="0.1,0.2,0.3,0.4,0.5")
    p.add_argument("--metric", choices=METRICS, default=DEFAULT_METRIC)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare_svd)

    p = sub.add_parser("eval-matmul", help="error of quantization variants on activations")
    p.add_argument("--weights", required=True)
    p.add_argument("--calib", required=True, help="activations NPY to evaluate on")
    p.add_argument("--artifact", required=True, help="compressed-layer directory")
    p.add_argument("--act-bits", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval_matmul)

    p = sub.add_parser("synth", help="write a synthetic NPY instance")
    p.add_argument(
        "--kind",
        choices=("smooth-decay", "outlier-activations", "gaussian"),
        required=True,
    )
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--decay", type=float, default=2.0, help="spectral decay exponent")
    p.add_argument("--magnitude", type=float, default=100.0, help="outlier column scale")
    p.add_argument("--num-outliers", type=int, default=1)
    p.add_argument("--scale", type=float, default=1.0, help="gaussian std")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output NPY path")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SpecQuantError, ValueError, OSError) as exc:
        frame = traceback.extract_tb(sys.exc_info()[2])[-1]
        where = f"{os.path.basename(frame.filename)}:{frame.lineno}"
        print(f"specquant: error: {exc} [{where}]", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
