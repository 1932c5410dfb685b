"""Command-line front end.

Commands:

- ``compress``     weights + calibration NPY -> artifact dir + JSON/CSV report
- ``analyze``      per-channel spectral energy report of a weight dump
- ``compare-svd``  spectral truncation vs budget-matched SVD over a ratio sweep
- ``eval-matmul``  Frobenius error of quantization variants on given activations
- ``synth``        seeded synthetic weight/activation generators (NPY out)

Every command is deterministic given its inputs (and `synth` its --seed);
reports embed the resolved configuration. A report is serialized before
--out is created, so a command that fails with a named error writes nothing.
"""

import argparse
import csv
import os
import sys
import traceback

import numpy as np

from . import __version__, pipeline, quant, spectral, synth, tensor_io
from .budget import DEFAULT_METRIC, METRICS, spectral_entropy
from .errors import ShapeError, SpecQuantError
from .validation import norm, scalar


def _report_text(args, **sections):
    """The strict JSON text of a report: the run's config and `sections`."""
    return tensor_io.json_text({"config": _run_config(args), **sections}, "report")


def _write_report(out, stem, text, fields, rows):
    """Write `text`, a command's `_report_text`, to <out>/<stem>.json and
    `rows` to <out>/<stem>.csv; the one place a command creates `out`, so a
    command that fails before its report is serialized writes nothing."""
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, f"{stem}.json"), "w", encoding="utf-8") as fh:
        fh.write(text)
    with open(os.path.join(out, f"{stem}.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def _run_config(args):
    cfg = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    cfg["version"] = __version__
    return cfg


def cmd_compress(args):
    w = tensor_io.load_matrix(args.weights)
    x = tensor_io.load_matrix(args.calib)
    # --smooth goes in as a float where it reads as one; the library takes no
    # other text than "auto", and refuses the rest by name.
    try:
        smooth = float(args.smooth)
    except ValueError:
        smooth = args.smooth
    layer = pipeline.compress_layer(
        x,
        w,
        ratio=args.ratio,
        groups=args.groups,
        metric=args.metric,
        alpha=args.alpha,
        residual_bits=args.residual_bits,
        smooth=smooth,
        residual_quant=args.residual_quant,
    )
    layer.name = args.layer_name
    total, retained, tail = layer.energy
    bound = spectral.energy_norm(tail, layer.energy_unit_log2)
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
        "truncation_error_frobenius": layer.truncation_error,
        "reconstruction_error_frobenius": layer.reconstruction_error,
        "forward_error_highprec": layer.forward_error,
        "residual_rtn_fallback": bool(layer.residual.rtn_fallback),
        "energy_unit_log2": layer.energy_unit_log2,
    }
    rows = [
        {
            "channel": j,
            "k": int(layer.plan.k[j]),
            "rho": float(layer.plan.rho[j]),
            "total_energy": float(total[j]),
            "retained_energy": float(retained[j]),
            "tail_energy": float(tail[j]),
            "error_bound": float(bound[j]),
            "achieved_error": float(layer.achieved_error[j]),
        }
        for j in range(layer.c_out)
    ]
    # Serialized first: an unrepresentable value leaves no artifact behind.
    text = _report_text(args, summary=summary, channels=rows)
    tensor_io.save_compressed_layer(layer, args.out)
    fields = [
        "channel", "k", "rho", "total_energy", "retained_energy",
        "tail_energy", "error_bound", "achieved_error",
    ]
    _write_report(args.out, "report", text, fields, rows)
    print(f"wrote artifact and report to {args.out}")
    return 0


def cmd_analyze(args):
    w = tensor_io.load_matrix(args.weights)
    c_in, c_out = w.shape
    spec = spectral.fft_columns(w)
    (total, _, _), unit = spectral.band_energies(spec, 1, c_in)
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
        "energy_unit_log2": unit,
    }
    text = _report_text(args, summary=summary)
    fields = ["channel", "total_energy", "lowband_fraction", "spectral_entropy"]
    _write_report(args.out, "analyze", text, fields, rows)
    print(
        f"analyzed {c_out} channels: mean low-band fraction "
        f"{summary['mean_lowband_fraction']:.4f} at band {args.band}"
    )
    return 0


def cmd_compare_svd(args):
    w = tensor_io.load_matrix(args.weights)
    ratios = [float(v) for v in args.ratios.split(",")]
    recs = pipeline.compare_budgets(w, ratios, metric=args.metric, alpha=args.alpha)
    fields = ["ratio", "b_spectral", "b_svd", "k_svd", "budget_slack", "err_spectral", "err_svd"]
    rows = [{f: getattr(rec, f) for f in fields} for rec in recs]
    text = _report_text(args, rows=rows)
    _write_report(args.out, "compare_svd", text, fields, rows)
    print(f"wrote {len(rows)} comparison rows to {args.out}")
    return 0


def cmd_eval_matmul(args):
    bits = scalar(args.act_bits, "act_bits", 2, 8, integer=True)
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
    # The weights are quantized once; the tokens are walked TILE rows at a
    # time, so no full-size copy of them is made.
    q_w = quant.quantize(w, weight_bits)
    q_lw = quant.quantize(layer.smoothing.w_hat(w), weight_bits)
    tile_errors = []
    for t in range(0, x.shape[0], pipeline.TILE):
        x_t = x[t : t + pipeline.TILE]
        # First, so a non-finite x_hat is refused by that name; an output
        # past the float64 range is refused, named, by `_product` or the report.
        specq = pipeline.forward_approx(x_t, layer, bits)
        reference = pipeline._product(x_t, w)
        naive = quant.matmul(x_t, bits, q_w)
        # Rounded in its own buffer.
        x_hat = layer.smoothing.x_hat(x_t)
        smooth_only = quant.matmul(x_hat, bits, q_lw, out=x_hat)
        tile_errors.append([norm(y - reference) for y in (naive, smooth_only, specq)])
    naive, smooth_only, specq = (float(norm(e)) for e in np.reshape(tile_errors, (-1, 3)).T)
    rows = [
        {"method": "fp-reference", "frobenius_error": 0.0},
        {"method": f"naive-W{weight_bits}A{bits}", "frobenius_error": naive},
        {"method": f"smooth-only-W{weight_bits}A{bits}", "frobenius_error": smooth_only},
        {"method": "specquant", "frobenius_error": specq},
    ]
    text = _report_text(args, rows=rows)
    _write_report(args.out, "eval_matmul", text, ["method", "frobenius_error"], rows)
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
    p.add_argument("--residual-quant", choices=pipeline.RESIDUAL_QUANTIZERS, default="rtn")
    p.add_argument("--layer-name", default="layer")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("analyze", help="per-channel spectral energy report")
    p.add_argument("--weights", required=True)
    p.add_argument("--band", type=float, default=0.2, help="low-frequency bin share")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("compare-svd", help="spectral vs budget-matched SVD sweep")
    p.add_argument("--weights", required=True)
    p.add_argument("--ratios", default="0.1,0.2,0.3,0.4,0.5")
    p.add_argument("--metric", choices=METRICS, default=DEFAULT_METRIC)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare_svd)

    p = sub.add_parser("eval-matmul", help="error of quantization variants on activations")
    p.add_argument("--weights", required=True)
    p.add_argument("--calib", required=True, help="activations NPY to evaluate on")
    p.add_argument("--artifact", required=True, help="compressed-layer directory")
    p.add_argument("--act-bits", type=int, default=4)
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
