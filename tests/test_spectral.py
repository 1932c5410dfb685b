"""Transform, truncation, and energy-accounting contracts."""

import hashlib
import json

import numpy as np
import pytest

from specquant import compress_layer, spectral, synth, tensor_io
from specquant.budget import spectral_entropy
from specquant.errors import DataError, ShapeError
from specquant.spectral import (
    band_energies,
    dft_naive,
    fft,
    fft_columns,
    half_spectrum_length,
    reconstruct_columns,
    truncate_columns,
)

from oracles import dft_extended_precision, parseval_check, reconstruct, truncate_columns_full


def test_dft_constant_is_dc_only():
    c = 2.5
    out = dft_naive([c, c, c, c])
    np.testing.assert_allclose(out[0], 4 * c, rtol=1e-14)
    np.testing.assert_allclose(out[1:], 0.0, atol=1e-13)


def test_dft_impulse_is_flat():
    out = dft_naive([1.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(out, np.ones(4), atol=1e-14)


def test_dft_matches_extended_precision_len7():
    rng = np.random.default_rng(11)
    x = rng.normal(size=7)
    lib = dft_naive(x)
    ref = dft_extended_precision(x)
    scale = np.abs(ref).max()
    assert np.abs(lib - ref).max() <= 1e-13 * scale


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32, 64, 128])
def test_fft_matches_naive_power_of_two(n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=n)
    full = dft_naive(x)
    half = fft(x)
    scale = max(np.abs(full).max(), 1e-300)
    assert np.abs(half - full[: n // 2 + 1]).max() <= 1e-12 * scale


@pytest.mark.parametrize("n", [3, 5, 6, 7, 12, 15, 31, 100, 255])
def test_fft_matches_naive_other_lengths(n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=n)
    full = dft_naive(x)
    half = fft(x)
    scale = max(np.abs(full).max(), 1e-300)
    assert np.abs(half - full[: n // 2 + 1]).max() <= 1e-12 * scale


# The odd leaf lengths of real model widths, and DIRECT_MAX and the next odd
# length, the last leaf on the direct sum and the first on Bluestein.
ODD_FACTORS = (1, 3, 5, 7, 9, 15, 43, spectral.DIRECT_MAX, spectral.DIRECT_MAX + 2)


@pytest.mark.parametrize("q", ODD_FACTORS)
@pytest.mark.parametrize("a", range(7))
def test_mixed_lengths_match_naive(a, q):
    """n = 2^a q: radix-2 stages over leaves of length q (direct sum up to
    DIRECT_MAX, Bluestein beyond), both as the real half-spectrum and as the
    full complex transform."""
    n = 2**a * q
    rng = np.random.default_rng(n)
    x, y = rng.normal(size=(2, n))
    ref = dft_naive(x) + 1j * dft_naive(y)
    scale = np.abs(ref).max()
    got = spectral._dft_columns((x + 1j * y)[:, None])[:, 0]
    assert np.abs(got - ref).max() <= 1e-12 * scale
    full = dft_naive(x)
    assert np.abs(fft(x) - full[: n // 2 + 1]).max() <= 1e-12 * np.abs(full).max()


@pytest.mark.parametrize(
    "n, length",
    [(1024, None), (15, 15), (768, 3), (1000, 125), (14336, 7),
     (4 * (spectral.DIRECT_MAX + 2), spectral.DIRECT_MAX + 2)],
)
def test_bluestein_pads_only_the_odd_factor(monkeypatch, n, length):
    """The forward and inverse real transforms of even n run at n / 2, so the
    leaves have the odd factor of n / 2 as their length; odd n is one leaf of
    length n. A leaf up to DIRECT_MAX runs the direct sum and never reaches
    Bluestein; a longer one runs Bluestein at that odd length alone."""
    seen = {"_direct": [], "_bluestein": []}

    def record(name):
        original = getattr(spectral, name)

        def recording(x):
            seen[name].append(x.shape[0])
            return original(x)

        monkeypatch.setattr(spectral, name, recording)

    record("_direct")
    record("_bluestein")
    w = np.random.default_rng(n).normal(size=(n, 3))
    k = np.full(3, half_spectrum_length(n))
    reconstruct_columns(truncate_columns(fft_columns(w), k, n), k, n)
    path = None if length is None else "_direct" if length <= spectral.DIRECT_MAX else "_bluestein"
    for name, lengths in seen.items():
        assert lengths == ([length, length] if name == path else [])


def test_bluestein_near_the_float64_limit_stays_finite():
    """A 53-point column, one Bluestein leaf, of standard normals times
    2e305 has its largest bin at 2.6e306. Each leaf runs in power-of-two
    units, so its half-spectrum is finite, raises no warning (tier-1 makes
    warnings errors) and matches `dft_naive` relative to that bin; the
    odd-length rebuild, which runs the same transform, is finite too."""
    x = np.random.default_rng(0).standard_normal((53, 1)) * 2e305
    spec = fft_columns(x)
    ref = dft_naive(x[:, 0])[:27]
    assert np.isfinite(spec).all()
    scale = np.abs(ref).max()
    assert 2e306 < scale < 3e306
    assert np.abs(spec[:, 0] - ref).max() <= 1e-12 * scale
    k = np.array([27])
    back = reconstruct_columns(truncate_columns(spec, k, 53), k, 53)
    assert np.isfinite(back).all()
    assert np.abs(back - x).max() <= 1e-12 * np.abs(x).max()


@pytest.mark.parametrize("q", [3, spectral.DIRECT_MAX])
@pytest.mark.parametrize("leaves", [1, 2])
def test_direct_leaves_match_extended_precision(q, leaves):
    """The direct sum at its shortest and longest leaf: one full-length leaf
    of odd n = q, and the packed half-length leaf of n = 2q."""
    n = leaves * q
    x = np.random.default_rng(n).normal(size=n)
    ref = dft_extended_precision(x)[: n // 2 + 1]
    assert np.abs(fft(x) - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("n", [3072, 11008, 14336])
def test_model_widths_round_trip_and_energy(n):
    """Widths of real layers (2^10 * 3, 2^8 * 43, 2^11 * 7), where the O(n^2)
    oracle is too slow: the full-band round trip and Parseval's total."""
    w = np.random.default_rng(n).normal(size=(n, 4))
    spec = fft_columns(w)
    k = np.full(4, half_spectrum_length(n))
    back = reconstruct_columns(truncate_columns(spec, k, n), k, n)
    assert np.abs(back - w).max() <= 1e-12 * np.abs(w).max()
    (total, _, _), _ = band_energies(spec, k, n)
    np.testing.assert_allclose(total, (w * w).sum(axis=0), rtol=1e-12, atol=0)


def test_fft_length_one_is_identity():
    out = fft([3.25])
    assert out.shape == (1,)
    assert out[0] == pytest.approx(3.25)


@pytest.mark.parametrize("n", [2, 4, 6, 10, 16, 24, 30])
def test_fft_even_lengths_match_extended_precision(n):
    """The half-length real path: radix-2 halves (2, 4, 16) and halves
    with direct leaves (6, 10, 24, 30)."""
    x = np.random.default_rng(40 + n).normal(size=n)
    ref = dft_extended_precision(x)[: n // 2 + 1]
    assert np.abs(fft(x) - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("n", [1, 2, 3, 6, 15, 24, 64, 100, 768, 1000])
@pytest.mark.parametrize("c", [0, 1, 17, 35, spectral.BLOCK + 1, 2 * spectral.BLOCK + 3])
def test_fft_columns_is_per_column_fft_bitwise(n, c):
    """Radix-2 (64) halves, halves with direct leaves (6, 24, 100, 768) and
    Bluestein leaves (1000), odd lengths on the full-length path (3, 15) and
    the degenerate lengths, with widths inside one partial block (17, 35)
    and widths past whole blocks that end in a partial one."""
    w = np.random.default_rng(n + c).normal(size=(n, c))
    batched = fft_columns(w)
    assert batched.shape == (half_spectrum_length(n), c)
    for j in range(c):
        assert np.array_equal(batched[:, j], fft(w[:, j]))


@pytest.mark.parametrize("n", [1, 2, 3, 6, 15, 16, 100, 768, 1000])
@pytest.mark.parametrize("c", [spectral.BLOCK + 1, 2 * spectral.BLOCK + 3])
def test_reconstruct_columns_is_per_column_bitwise(n, c):
    """Each column equals its channel rebuilt alone, although a block pads
    the channel's rows with zeros up to the block's largest k. The first
    block mixes k = 1, the full band and a k with 2k > n // 2, whose mirrored
    rows (n // 2 - k, n // 2) overlap its own rows [0, k)."""
    rng = np.random.default_rng(n + c)
    half = half_spectrum_length(n)
    ks = rng.integers(1, half + 1, c)
    ks[:3] = 1, half, n // 4 + 1
    bins = truncate_columns(fft_columns(rng.normal(size=(n, c))), ks, n)
    batched = reconstruct_columns(bins, ks, n)
    ends = np.cumsum(ks)
    for j in range(c):
        alone = reconstruct_columns(bins[ends[j] - ks[j] : ends[j]], ks[j : j + 1], n)
        assert batched[:, j].tobytes() == alone[:, 0].tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 6, 15, 16, 100, 128, 768])
def test_reconstruct_columns_matches_cosine_sum(n):
    rng = np.random.default_rng(n)
    c = 2 * spectral.BLOCK + 3
    spec = fft_columns(rng.normal(size=(n, c)))
    ks = rng.integers(1, half_spectrum_length(n) + 1, c)
    bins = truncate_columns(spec, ks, n)
    assert bins.shape == (ks.sum(), 2) and bins.flags.c_contiguous
    batched = reconstruct_columns(bins, ks, n)
    assert batched.shape == (n, c)
    ends = np.cumsum(ks)
    for j in range(c):
        ref = reconstruct(bins[ends[j] - ks[j] : ends[j]], n)
        assert np.linalg.norm(batched[:, j] - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("n", [6, 15, 16])
def test_reconstruct_columns_takes_real_part_of_real_bins(n):
    """Any phase at DC or Nyquist counts as A cos(phi), as in the cosine sum."""
    rng = np.random.default_rng(42)
    half = half_spectrum_length(n)
    bins = np.stack([rng.uniform(0.5, 2.0, half), rng.uniform(-3.0, 3.0, half)], axis=1)
    ref = reconstruct(bins, n)
    got = reconstruct_columns(bins, [half], n)[:, 0]
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def test_full_band_columns_round_trip():
    rng = np.random.default_rng(41)
    n, c = 768, 17
    w = rng.normal(size=(n, c))
    ks = np.full(c, half_spectrum_length(n))
    back = reconstruct_columns(truncate_columns(fft_columns(w), ks, n), ks, n)
    assert np.linalg.norm(back - w) <= 1e-12 * np.linalg.norm(w)


@pytest.mark.parametrize("c_in, c_out", [(64, 8), (15, 4)])
def test_smooth_decay_layer_matches_per_channel_cosine_sum(c_in, c_out):
    """The batched build equals one cosine sum per channel over the same
    draws: C_j, then the phases, then a sign for each real bin."""
    w = synth.smooth_decay_layer(c_in, c_out, decay=1.5, seed=7)
    rng = np.random.default_rng(7)
    half = half_spectrum_length(c_in)
    m = np.arange(half)
    ref = np.empty((c_in, c_out))
    for j in range(c_out):
        amps = rng.uniform(0.5, 2.0) / np.maximum(m, 1).astype(np.float64) ** 1.5
        phases = rng.uniform(-np.pi, np.pi, half)
        phases = np.where(phases <= -np.pi, np.pi, phases)
        for rb in set(spectral._real_bin_indices(c_in)):
            phases[rb] = rng.choice((0.0, np.pi))
        ref[:, j] = reconstruct(np.stack([amps, phases], axis=1), c_in)
    assert np.linalg.norm(w - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize(
    "decay, message",
    [(-2000.0, "decay=-2000.0 gives"), (np.nan, "decay must be finite, got nan")],
    ids=["-2000.0", "nan"],
)
def test_smooth_decay_layer_rejects_a_non_finite_decay_result(decay, message):
    """A decay whose amplitudes overflow (c / 0 at -2000) or that is NaN
    raises a ValueError naming it, with no RuntimeWarning on the way."""
    with pytest.raises(ValueError, match=message):
        synth.smooth_decay_layer(8, 3, decay=decay)


def test_smooth_decay_layer_takes_c_in_as_a_transform_length(monkeypatch):
    """c_in is a signal length, at least 1, refused by its own name before
    any draw; c_out may be 0."""
    monkeypatch.setattr(np.random, "default_rng", None)  # no draw is made
    for c_in in (0, -1, 2.5, True):
        with pytest.raises(ValueError, match=r"c_in must be an integer in \[1, inf\), got "):
            synth.smooth_decay_layer(c_in, 4)
    monkeypatch.undo()
    assert synth.smooth_decay_layer(1, 0).shape == (1, 0)


def test_smooth_decay_layer_steep_decay_keeps_the_lowest_bins():
    """decay=2000 overflows m**decay to inf for m >= 2, so those bins get
    amplitude 0 and only bins 0 and 1 (A_0 = A_1 = C_j) are left: a finite
    matrix."""
    w = synth.smooth_decay_layer(8, 3, decay=2000.0)
    assert np.isfinite(w).all()
    spec = np.abs(fft_columns(w))
    assert (spec[2:] <= 1e-15 * spec[0]).all()
    np.testing.assert_allclose(spec[1], spec[0], rtol=1e-14)


@pytest.mark.parametrize(
    "c_in, digest",
    [
        pytest.param(768, "f69b3189be85d9da49115f10494b72407a1c13ee314ec360a0dba69605a6f2f8", id="768"),
        pytest.param(1024, "a243bbfdcc03e1da4fa131d127963f2976a8ff61d23c593dd95add5900bf6a98", id="1024"),
    ],
)
def test_smooth_decay_layer_benchmark_weights_keep_their_bits(c_in, digest):
    """The seed-1 weights of the two benchmark workloads (decay 1.5, 256
    channels, the seed `benchmarks/bench.py` derives from --seed 1). The
    digests hold on x86 with numpy's AVX-512 dispatch (X86_V4, AVX512_ICL,
    AVX512_SPR) on and off, that is on the AVX-512 and the AVX2 (X86_V3)
    kernels: the decay profile takes libm's pow, and the transforms use only
    kernels that round alike on both."""
    seed = int(np.random.SeedSequence(1).generate_state(2)[0])
    w = synth.smooth_decay_layer(c_in, 256, decay=1.5, seed=seed)
    assert hashlib.sha256(w.tobytes()).hexdigest() == digest


def test_column_energies_match_single_channel():
    rng = np.random.default_rng(12)
    n, c = 24, 5
    w = rng.normal(size=(n, c))
    w[:, 2] = 0.0
    ks = np.array([1, 3, 5, 13, 7])
    (total, retained, tail), _ = band_energies(fft_columns(w), ks, n)
    fractions = spectral.lowband_fraction(fft_columns(w), n, 0.3)
    for j in range(c):
        one = band_energies(fft(w[:, j])[:, None], int(ks[j]), n)[0][:, 0]
        np.testing.assert_allclose((total[j], retained[j], tail[j]), one, rtol=1e-12, atol=0)
        assert fractions[j] == pytest.approx(
            spectral.lowband_fraction(fft(w[:, j])[:, None], n, 0.3)[0]
        )
    assert fractions[2] == 1.0


@pytest.mark.parametrize("n, c", [(16, 8), (7, 5)])
@pytest.mark.parametrize("exp", [660, -1000])
def test_lowband_fraction_is_scale_free(n, c, exp):
    """Scaling a layer by 2^exp leaves every low-band fraction unchanged,
    also where the squared amplitudes would overflow or underflow."""
    w = synth.smooth_decay_layer(n, c, decay=1.5, seed=3)
    base = spectral.lowband_fraction(fft_columns(w), n)
    scaled = spectral.lowband_fraction(fft_columns(np.ldexp(w, exp)), n)
    np.testing.assert_array_equal(scaled, base)
    assert ((base > 0.0) & (base < 1.0)).all()


def test_conjugate_symmetry_of_full_spectrum():
    rng = np.random.default_rng(2)
    for n in (4, 7, 16, 33):
        full = dft_naive(rng.normal(size=n))
        scale = np.abs(full).max()
        for k in range(1, n):
            assert abs(full[k] - np.conj(full[n - k])) <= 1e-10 * scale


@pytest.mark.parametrize("n", [1, 2, 15, 16, 768])
def test_truncate_columns_matches_the_full_array_formula(n):
    """Bit for bit, with negative real DC and Nyquist bins (some with a
    small imaginary part that the pinning drops), bins on the negative real
    axis whose angle is -pi, channels that keep every bin and a scalar k."""
    rng = np.random.default_rng(n)
    c = 2 * spectral.BLOCK + 3
    half = half_spectrum_length(n)
    spec = fft_columns(rng.normal(size=(n, c)))
    spec[0, ::2] = -np.abs(spec[0, ::2])
    spec[-1, 1::3] = -np.abs(spec[-1, 1::3]) + 1e-9j
    spec[0, 4::8] += 1e-9j
    spec[half // 2, ::4] = complex(-1.0, -0.0)
    ks = rng.integers(1, half + 1, c)
    ks[:4] = half
    for k in (ks, half, 1):
        got = truncate_columns(spec, k, n)
        ref = truncate_columns_full(spec, k, n)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def test_truncate_full_band_round_trip():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 4, 5, 8, 17, 64):
        x = rng.normal(size=n)
        sp = truncate_columns(fft(x)[:, None], half_spectrum_length(n), n)
        np.testing.assert_allclose(reconstruct(sp, n), x, atol=1e-9)


def test_constant_signal_reconstructs_from_dc_alone():
    x = np.full(8, -1.75)
    sp = truncate_columns(fft(x)[:, None], 1, 8)
    np.testing.assert_allclose(reconstruct(sp, 8), x, atol=1e-12)


def test_pure_sinusoid_truncation():
    n = 16
    x = np.sin(2 * np.pi * np.arange(n) / n)
    hs = fft(x)
    # Bins 0 and 1 carry the whole signal.
    np.testing.assert_allclose(reconstruct(truncate_columns(hs[:, None], 2, n), n), x, atol=1e-12)
    # DC alone is zero; the error is the full signal norm at bin 1.
    only_dc = reconstruct(truncate_columns(hs[:, None], 1, n), n)
    np.testing.assert_allclose(only_dc, 0.0, atol=1e-12)
    assert np.linalg.norm(x - only_dc) == pytest.approx(np.linalg.norm(x), rel=1e-12)


def test_truncate_k_out_of_range():
    hs = fft(np.ones(8))[:, None]
    with pytest.raises(ValueError):
        truncate_columns(hs, 0, 8)
    with pytest.raises(ValueError):
        truncate_columns(hs, 6, 8)


@pytest.mark.parametrize(
    "k",
    [3.7, True, 2.5, np.bool_(True), [2, 2.5], np.array([True]), "3", np.nan, np.inf,
     [True, 2], [np.True_, 2]],
)
@pytest.mark.parametrize(
    "call",
    [
        lambda hs, k: truncate_columns(hs, k, 16),
        lambda hs, k: band_energies(hs, k, 16),
        lambda hs, k: reconstruct_columns(np.zeros((3, 2)), k, 16),
        lambda hs, k: band_energies(hs, k, 16.0),
    ],
    ids=["truncate_columns", "band_energies", "reconstruct_columns", "band_energies-n-16.0"],
)
def test_counts_must_be_integers(call, k):
    """A bool or non-integral count is refused by name, where a cast would
    keep floor(k) bins or one bin per True. An integral float n is the
    integer n, so the range reads [1, 9], not [1, 9.0]."""
    hs = fft_columns(np.arange(16.0)[:, None])
    with pytest.raises(ValueError, match=r"k must be an integer in \[1, 9\], got "):
        call(hs, k)


@pytest.mark.parametrize("band", [0, 1.5, np.nan, True, np.bool_(True), "0.5", None])
def test_lowband_fraction_band_is_a_number_in_the_unit_interval(band):
    """A band is refused by name unless it is a number in (0, 1]: a bool is
    not a band of 1.0, and text is not converted."""
    hs = fft_columns(np.arange(32.0).reshape(16, 2))
    with pytest.raises(ValueError, match=r"band must lie in \(0, 1\], got"):
        spectral.lowband_fraction(hs, 16, band=band)


def test_integral_float_counts_are_counts():
    """8.0 counts as 8, as it does in `budget`: the same bins and energies.
    So is a signal length of 16.0 or np.int64(16) the length 16."""
    hs = fft_columns(np.arange(32.0).reshape(16, 2))
    assert np.array_equal(truncate_columns(hs, 8.0, 16), truncate_columns(hs, 8, 16))
    assert np.array_equal(band_energies(hs, [8.0, 3.0], 16)[0], band_energies(hs, [8, 3], 16)[0])
    bins = truncate_columns(hs, 8, 16)
    assert np.array_equal(
        reconstruct_columns(bins, np.array([8.0, 8.0]), 16), reconstruct_columns(bins, [8, 8], 16)
    )
    for n in (16.0, np.int64(16)):
        assert truncate_columns(hs, 8, n).tobytes() == bins.tobytes()
        assert (reconstruct_columns(bins, [8, 8], n).tobytes()
                == reconstruct_columns(bins, [8, 8], 16).tobytes())
        energy, unit = band_energies(hs, 3, n)
        assert energy.tobytes() == band_energies(hs, 3, 16)[0].tobytes() and unit == 0


# A 16-point, 3-column half-spectrum.
_HS3 = fft_columns(np.arange(48.0).reshape(16, 3))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: fft(np.array([])), "x must have at least 1 element"),
        (lambda: fft(np.array([1.0, np.nan])), "x contains non-finite values"),
        (lambda: fft(np.ones((2, 2))), "x must be 1-D"),
        (lambda: fft(["1", "2", "3"]), "x must hold real numbers, got dtype <U1"),
        (lambda: truncate_columns([["1"], ["2"], ["3"]], 1, 4),
         "half_spec must hold real or complex numbers, got dtype <U1"),
        (lambda: spectral.lowband_fraction([["1"], ["2"], ["3"]], 4),
         "half_spec must hold real or complex numbers, got dtype <U1"),
        (lambda: fft_columns(np.zeros((0, 3))), "columns must have at least 1 element"),
        (lambda: fft_columns(np.ones(4)), "w must be 2-D"),
        (lambda: reconstruct_columns(np.zeros((3, 2)), [2, 2], 8), r"expected a \(4, 2\) array"),
        (lambda: reconstruct_columns(np.zeros(8), [2, 2], 8), "bins must be 2-D, got 1-D"),
        (lambda: reconstruct_columns([["1", "0"]], [1], 4), "bins must hold real numbers"),
        # One count per channel: a single count or a ragged list is a k fault.
        (lambda: reconstruct_columns(np.zeros((2, 2)), 2, 16), "k must be 1-D, got 0-D"),
        (lambda: reconstruct_columns(np.zeros((2, 2)), [[1, 2], [3]], 16),
         r"k must be an integer in \[1, 9\], got \[1, 2\]"),
        (lambda: band_energies(np.full((5, 1), np.inf), 1, 8), "half-spectra contain non-finite"),
        # A signal length is an integer of at least 1 (of at least 0 for
        # the bin count): a fraction is not floored, and a bool or text is
        # not a length.
        (lambda: truncate_columns(_HS3, 2, 16.5), r"n must be an integer in \[1, inf\), got 16.5"),
        (lambda: reconstruct_columns(np.zeros((2, 2)), [2], 16.5),
         r"n must be an integer in \[1, inf\), got 16.5"),
        (lambda: reconstruct_columns([[1.0, 0.0]], [1], True),
         r"n must be an integer in \[1, inf\), got True"),
        (lambda: band_energies(_HS3, 2, "16"), r"n must be an integer in \[1, inf\), got '16'"),
        (lambda: spectral.lowband_fraction(_HS3, 17.5), "n must be a non-negative integer, got 17.5"),
        (lambda: half_spectrum_length(-3), "n must be a non-negative integer, got -3"),
        (lambda: half_spectrum_length(16.5), "n must be a non-negative integer, got 16.5"),
        (lambda: half_spectrum_length(True), "n must be a non-negative integer, got True"),
        # k is one count or one per column, named in place of numpy's
        # broadcast message.
        (lambda: truncate_columns(_HS3, [2, 2], 16),
         r"k must be one count or one per column \(3\), got \(2,\)"),
    ],
    ids=[
        "fft-empty", "fft-nan", "fft-2d", "fft-text", "truncate_columns-text",
        "lowband_fraction-text", "fft_columns-empty-column", "fft_columns-1d",
        "reconstruct-rows", "reconstruct-1d", "reconstruct-text", "reconstruct-k-scalar",
        "reconstruct-k-ragged", "band_energies-inf",
        "truncate_columns-n-fraction", "reconstruct-n-fraction", "reconstruct-n-bool",
        "band_energies-n-text", "lowband_fraction-n-fraction", "half_spectrum_length-negative",
        "half_spectrum_length-fraction", "half_spectrum_length-bool", "truncate_columns-k-length",
    ],
)
def test_bad_transform_input_is_named(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda hs: truncate_columns(hs, 1, 8),
        lambda hs: band_energies(hs, 1, 8),
        lambda hs: spectral.lowband_fraction(hs, 8),
    ],
    ids=["truncate_columns", "band_energies", "lowband_fraction"],
)
def test_column_functions_reject_a_1d_half_spectrum(call):
    """A single channel is a one-column matrix; a bare vector is refused."""
    hs = fft(np.arange(8.0))
    with pytest.raises(ValueError, match="half_spec must be 2-D, got 1-D"):
        call(hs)
    call(hs[:, None])


@pytest.mark.parametrize(
    "call, array",
    [
        (lambda a: spectral_entropy(a), [[1.0], [2.0], [3.0]]),
        (lambda a: reconstruct_columns(a, [1], 4), [[1.0, 0.0]]),
    ],
    ids=["spectral_entropy", "reconstruct_columns"],
)
def test_a_list_is_taken_as_its_array(call, array):
    """A nested list of numbers is the array numpy reads it as, with the
    bits of the ndarray call."""
    assert call(array).tobytes() == call(np.array(array)).tobytes()


def test_reconstruct_dc_only_spectrum():
    np.testing.assert_allclose(reconstruct(np.array([[4.0, 0.0]]), 4), np.ones(4), atol=1e-15)


def test_reconstruct_truncated_impulse():
    sp = truncate_columns(fft([1.0, 0.0, 0.0, 0.0])[:, None], 1, 4)
    np.testing.assert_allclose(reconstruct(sp, 4), np.full(4, 0.25), atol=1e-15)


def test_error_bound_zero_for_full_band():
    x = np.random.default_rng(4).normal(size=12)
    tail = band_energies(fft(x)[:, None], half_spectrum_length(12), 12)[0][2]
    assert np.sqrt(tail[0]) == pytest.approx(0.0, abs=1e-12)


def test_error_bound_sinusoid_equals_l2_norm():
    n = 32
    x = np.sin(2 * np.pi * np.arange(n) / n)
    tail = band_energies(fft(x)[:, None], 1, n)[0][2]
    assert np.sqrt(tail[0]) == pytest.approx(np.linalg.norm(x), rel=1e-12)


def test_bound_dominates_achieved_error_exhaustively():
    rng = np.random.default_rng(5)
    for n in range(1, 33):
        for x in (rng.normal(size=n), rng.uniform(-1, 1, n)):
            hs = fft(x)[:, None]
            for k in range(1, half_spectrum_length(n) + 1):
                tail = band_energies(hs, k, n)[0][2, 0]
                achieved = np.linalg.norm(x - reconstruct(truncate_columns(hs, k, n), n))
                assert achieved <= np.sqrt(tail) + 1e-9


def test_energy_norm_scales_back_from_the_unit_exactly():
    """The norm of an energy in 2^unit units is its root times 2^(unit / 2),
    exactly, and the column norm at any scale the unit is picked for; a
    norm past the float64 range, here of 64 columns of +-4e307, is inf with
    no warning (warnings are errors)."""
    x = np.random.default_rng(7).normal(size=(24, 3))
    for scale in (1.0, 2.0**-600, 2.0**600):
        (total, _, tail), unit = band_energies(fft_columns(x * scale), 2, 24)
        assert unit != 0 or scale == 1.0
        got = spectral.energy_norm(total, unit)
        np.testing.assert_allclose(got, np.linalg.norm(x, axis=0) * scale, rtol=1e-14)
        exact = np.sqrt(tail) * 2.0 ** (unit // 2)
        assert spectral.energy_norm(tail, unit).tobytes() == exact.tobytes()
    w = np.random.default_rng(0).choice([-1.0, 1.0], size=(4, 64)) * 4e307
    (total, _, _), unit = band_energies(fft_columns(w), 1, 4)
    assert np.isfinite(spectral.energy_norm(total, unit)).all()
    assert spectral.energy_norm(total.sum(), unit) == np.inf


def test_energy_split_matches_parseval():
    rng = np.random.default_rng(6)
    for n in (1, 5, 16, 50):
        x = rng.normal(size=n)
        total, retained, tail = band_energies(fft(x)[:, None], 1, n)[0][:, 0]
        assert retained + tail == pytest.approx(total, rel=1e-9)
        assert total == pytest.approx(float(np.sum(x * x)), rel=1e-9)


def test_parseval_examples():
    assert parseval_check(np.zeros(6)) == (0.0, 0.0)
    t, f = parseval_check([1.0, 0.0, 0.0, 0.0])
    assert t == pytest.approx(1.0, rel=1e-12)
    assert f == pytest.approx(1.0, rel=1e-12)


def test_parseval_random_lengths():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(1, 1025))
        t, f = parseval_check(rng.normal(size=n))
        assert abs(t - f) <= 1e-9 * max(t, 1e-300)


def test_error_monotone_in_k():
    rng = np.random.default_rng(8)
    for n in (8, 15, 32):
        x = rng.normal(size=n)
        hs = fft(x)[:, None]
        errs = [
            np.linalg.norm(x - reconstruct(truncate_columns(hs, k, n), n))
            for k in range(1, half_spectrum_length(n) + 1)
        ]
        for lo, hi in zip(errs[1:], errs[:-1]):
            assert lo <= hi + 1e-12


def test_phase_conventions():
    rng = np.random.default_rng(9)
    for n in (4, 9, 16):
        ks = np.array([1, 2, half_spectrum_length(n)])
        bins = truncate_columns(fft_columns(rng.normal(size=(n, ks.size))), ks, n)
        amps, phases = bins.T
        assert (phases > -np.pi).all() and (phases <= np.pi).all()
        assert (amps >= 0).all()
        # DC opens every channel; Nyquist (even n) closes a full-band one.
        real_rows = list(np.cumsum(ks) - ks) + ([bins.shape[0] - 1] if n % 2 == 0 else [])
        assert all(phases[r] in (0.0, np.pi) for r in real_rows)


def test_negative_dc_gets_pi_phase():
    sp = truncate_columns(fft(np.full(4, -2.0))[:, None], 1, 4)
    assert sp.shape == (1, 2)
    assert sp[0, 1] == np.pi
    assert sp[0, 0] == pytest.approx(8.0)
    np.testing.assert_allclose(reconstruct(sp, 4), np.full(4, -2.0), atol=1e-12)


def test_channel_spectrum_rejects_bad_state(tmp_path):
    """A layer's spectrum rows with a negative amplitude, a phase outside
    (-pi, pi], a DC or Nyquist bin that is not real, a non-finite value, a
    row count that disagrees with the plan or more bins than the channel has
    are rejected at save, before any file is written, and at load from a
    tampered artifact."""
    rng = np.random.default_rng(10)
    layer = compress_layer(rng.normal(size=(8, 4)), rng.normal(size=(4, 2)), ratio=1.0, smooth=0.5)
    assert layer.plan.k.tolist() == [3, 3]  # DC, bin 1, Nyquist per channel
    good = tmp_path / "good"
    tensor_io.save_compressed_layer(layer, good)
    cases = [
        ((0, 0), -1.0, DataError, "non-negative"),
        ((1, 1), 4.0, DataError, "phases"),
        ((1, 1), -np.pi, DataError, "phases"),  # -pi is spelled +pi
        ((3, 1), 0.5, DataError, "bin 0"),  # DC of channel 1 not real
        ((5, 1), -0.5, DataError, "bin 2"),  # Nyquist of channel 1 not real
        ((4, 0), np.nan, DataError, "non-finite"),
        (None, None, ShapeError, "spectra"),  # one row more than the plan
    ]
    spectra = layer.spectra
    for index, value, error, match in cases:
        if index is None:
            layer.spectra = np.vstack([spectra, [[1.0, 0.0]]])
        else:
            layer.spectra = spectra.copy()
            layer.spectra[index] = value
        out = tmp_path / "bad"
        with pytest.raises(error, match=match):
            tensor_io.save_compressed_layer(layer, out)
        assert not out.exists()
        (good / tensor_io.SPECTRA_FILE).write_bytes(layer.spectra.tobytes())
        with pytest.raises(error, match=match):
            tensor_io.load_compressed_layer(good)

    layer.plan.k[0] = 4  # a length-4 channel has only 3 bins
    layer.spectra = np.vstack([[[1.0, 0.0]], spectra])
    with pytest.raises(ShapeError, match="plan k"):
        tensor_io.save_compressed_layer(layer, tmp_path / "bad")
    assert not (tmp_path / "bad").exists()
    (good / tensor_io.SPECTRA_FILE).write_bytes(layer.spectra.tobytes())
    manifest = json.loads((good / tensor_io.MANIFEST_FILE).read_text())
    manifest["plan"]["k"][0] = 4
    (good / tensor_io.MANIFEST_FILE).write_text(json.dumps(manifest))
    with pytest.raises(ShapeError, match="plan k"):
        tensor_io.load_compressed_layer(good)
