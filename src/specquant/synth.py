"""Seeded synthetic instances for experiments and acceptance checks.

Every size and scalar is checked first, by `validation.scalar`: a size and
the `seed` are non-negative integers (8.0 is 8), except the transform length
c_in of `smooth_decay_layer`, an integer of at least 1; `decay` and `magnitude`
are finite and `scale` is a finite number >= 0. Anything else, or more
outlier columns than columns, raises ValueError naming the argument.
"""

import math

import numpy as np

from . import spectral
from .validation import scalar


def smooth_decay_layer(c_in, c_out, *, decay=2.0, seed=0):
    """Weight matrix whose channels have power-law spectral decay.

    Channel j is synthesized from a half-spectrum with amplitudes
    A_0 = C_j and A_m = C_j / m^decay, random phases, and C_j drawn
    uniformly from [0.5, 2). By construction |fft(column)[m]| reproduces those
    amplitudes exactly, so C_j is recoverable as |fft(column)[1]|. c_in is
    a transform length, an integer of at least 1, c_out a non-negative
    integer and `decay` finite; a decay so extreme that the weights are not
    finite raises ValueError.
    """
    c_in, c_out = scalar(c_in, "c_in", 1, integer=True), _size(c_out, "c_out")
    decay = scalar(decay, "decay")
    rng = np.random.default_rng(scalar(seed, "seed", 0, integer=True))
    half = spectral.half_spectrum_length(c_in)
    real_bins = set(spectral._real_bin_indices(c_in))
    bins = np.empty((c_out, half, 2))
    # max(m, 1)^decay by libm's pow: numpy's vector pow takes different
    # rounding paths on different SIMD targets, so the weights would too.
    profile = np.array([_pow(max(m, 1), decay) for m in range(half)])
    # An extreme decay overflows the power or divides by its underflow; a
    # result that stays finite (so steep that only bins 0 and 1 are left) is
    # valid.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for j in range(c_out):
            c = rng.uniform(0.5, 2.0)
            bins[j, :, 0] = c / profile
            phases = rng.uniform(-np.pi, np.pi, half)
            phases = np.where(phases <= -np.pi, np.pi, phases)
            for rb in real_bins:
                phases[rb] = rng.choice((0.0, np.pi))
            bins[j, :, 1] = phases
        w = spectral.reconstruct_columns(bins.reshape(-1, 2), np.full(c_out, half), c_in)
    if not np.isfinite(w).all():
        raise ValueError(f"decay={decay} gives non-finite weights")
    return w


def _pow(base, exp):
    """base ** exp by libm, inf where it overflows."""
    try:
        return math.pow(base, exp)
    except OverflowError:
        return math.inf


def _size(n, name):
    """`n` as an int if it is a non-negative integer, else ValueError."""
    return scalar(n, name, 0, integer=True)


def outlier_activations(rows, c_in, *, magnitude=100.0, num_outliers=1, seed=0):
    """Standard-normal activations with a few columns blown up by `magnitude`.

    The sizes are non-negative integers, at most c_in outlier columns, and
    `magnitude` is finite.
    """
    rows, c_in = _size(rows, "rows"), _size(c_in, "c_in")
    num_outliers = _size(num_outliers, "num_outliers")
    if num_outliers > c_in:
        raise ValueError(f"num_outliers must be at most c_in = {c_in}, got {num_outliers}")
    magnitude = scalar(magnitude, "magnitude")
    rng = np.random.default_rng(scalar(seed, "seed", 0, integer=True))
    x = rng.normal(0.0, 1.0, (rows, c_in))
    cols = rng.choice(c_in, size=num_outliers, replace=False)
    x[:, cols] *= magnitude
    return x


def gaussian_matrix(rows, cols, *, scale=1.0, seed=0):
    """Normal entries of standard deviation `scale`, a finite number >= 0;
    the sizes are non-negative integers."""
    rows, cols = _size(rows, "rows"), _size(cols, "cols")
    scale = scalar(scale, "scale", 0)
    rng = np.random.default_rng(scalar(seed, "seed", 0, integer=True))
    return rng.normal(0.0, scale, (rows, cols))
