"""Seeded synthetic instances for experiments and acceptance checks."""

import numpy as np

from . import spectral


def smooth_decay_layer(c_in, c_out, *, decay=2.0, seed=0, amp_range=(0.5, 2.0)):
    """Weight matrix whose channels have power-law spectral decay.

    Channel j is synthesized from a half-spectrum with amplitudes
    A_0 = C_j and A_m = C_j / m^decay, random phases, and C_j drawn from
    `amp_range`. By construction |fft(column)[m]| reproduces those
    amplitudes exactly, so C_j is recoverable as |fft(column)[1]|.
    """
    rng = np.random.default_rng(seed)
    half = spectral.half_spectrum_length(c_in)
    real_bins = set(spectral._real_bin_indices(c_in))
    bins = np.empty((c_out, half, 2))
    m = np.arange(half)
    # An extreme decay overflows the power or divides by its underflow; a
    # result that stays finite (so steep that only bins 0 and 1 are left) is
    # valid.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for j in range(c_out):
            c = rng.uniform(*amp_range)
            bins[j, :, 0] = c / np.maximum(m, 1).astype(np.float64) ** decay
            phases = rng.uniform(-np.pi, np.pi, half)
            phases = np.where(phases <= -np.pi, np.pi, phases)
            for rb in real_bins:
                phases[rb] = rng.choice((0.0, np.pi))
            bins[j, :, 1] = phases
        w = spectral.reconstruct_columns(bins.reshape(-1, 2), np.full(c_out, half), c_in)
    if not np.isfinite(w).all():
        raise ValueError(f"decay={decay} gives non-finite weights")
    return w


def outlier_activations(rows, c_in, *, magnitude=100.0, num_outliers=1, seed=0):
    """Standard-normal activations with a few columns blown up by `magnitude`."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, (rows, c_in))
    cols = rng.choice(c_in, size=num_outliers, replace=False)
    x[:, cols] *= magnitude
    return x


def gaussian_matrix(rows, cols, *, scale=1.0, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, scale, (rows, cols))
