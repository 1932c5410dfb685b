"""Channel-wise Fourier analysis: transforms, low-frequency truncation,
reconstruction, and the energy accounting behind the compression error bound.

Conventions, fixed once here and relied on everywhere else:

- The forward transform is unnormalized, X[k] = sum_n x[n] exp(-i 2 pi k n / N).
- Real input is carried as a half-spectrum of the first N // 2 + 1 bins; the
  rest of the spectrum is implied by conjugate symmetry.
- Reconstruction carries the 1/N factor and doubles every bin that has a
  conjugate partner (all bins except DC and, for even N, Nyquist). This makes
  the full-band round trip exact and the tail-energy bound hold with equality
  up to rounding.
- A truncated spectrum keeps the contiguous band from DC upward. A retained
  bin's frequency is implicit in its index, so the only stored state per bin
  is the (amplitude, phase) pair: exactly 2k reals for k bins, held as a
  (k, 2) array. A layer packs its channels' rows one after another into one
  (sum k, 2) array, split by the per-channel counts.
- A weight matrix is handled as its columns, all at once: `fft_columns` and
  `reconstruct_columns` run the radix-2 and Bluestein code along axis 0, and
  `truncate_columns`, `band_energies` and `lowband_fraction` take the
  (n // 2 + 1, c) half-spectra it produces; a single channel is a one-column
  matrix. `fft` is that path on one vector, so both agree bit for bit;
  `dft_naive`, the direct cosine sum `reconstruct` and `parseval_check` are
  the independent references.
- Real columns of even length n are transformed at half length: the forward
  transform packs the even and odd samples as one complex n/2-point signal
  and splits its transform into the half-spectrum, and the inverse packs the
  half-spectrum the same way and interleaves the real and imaginary parts of
  one n/2-point transform into W'. Odd n has no such packing and runs the
  full-length complex transform. `_rfft` and `_irfft` hold that choice.
"""

from functools import lru_cache

import numpy as np

from .validation import as_matrix, as_vector, pow2_units


def half_spectrum_length(n):
    """Number of DFT bins needed to represent a real signal of length n."""
    return n // 2 + 1


def _real_bin_indices(n):
    """Bins of a real signal that are themselves purely real."""
    if n % 2 == 0 and n >= 2:
        return (0, n // 2)
    return (0,)


@lru_cache(maxsize=None)
def _bit_reverse(n):
    bits = n.bit_length() - 1
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.intp)
    for _ in range(bits):
        rev = (rev << 1) | (idx & 1)
        idx = idx >> 1
    rev.setflags(write=False)
    return rev


# Columns are transformed this many at a time: wide enough to amortize the
# per-stage Python overhead, narrow enough that a Bluestein block's padded
# work arrays stay in cache and peak memory does not grow with c_out.
BLOCK = 16


@lru_cache(maxsize=None)
def _stage_twiddles(size):
    """exp(-2 pi i j / size) for j < size / 2, as a read-only (size / 2, 1)."""
    tw = np.exp((-2j * np.pi / size) * np.arange(size // 2))[:, None]
    tw.setflags(write=False)
    return tw


def _radix2(a):
    """Iterative radix-2 transform along axis 0 of a complex (n, c) array;
    n must be a power of two."""
    n, c = a.shape
    out = a[_bit_reverse(n)]
    size = 2
    while size <= n:
        half = size // 2
        tw = _stage_twiddles(size)
        blocks = out.reshape(-1, size, c)
        even = blocks[:, :half].copy()
        odd = blocks[:, half:] * tw
        blocks[:, :half] = even + odd
        blocks[:, half:] = even - odd
        size *= 2
    return out


def _iradix2(a):
    return np.conj(_radix2(np.conj(a))) / a.shape[0]


@lru_cache(maxsize=64)
def _chirp(n):
    """Bluestein chirp w (n, 1) and the transformed conjugate-chirp kernel
    (m, 1) for length n, with m the power of two the convolution runs at."""
    k = np.arange(n)
    # Reduce k^2 mod 2n before forming the angle to keep the phase accurate.
    w = np.exp((-1j * np.pi / n) * ((k * k) % (2 * n)))
    m = 1 << (2 * n - 2).bit_length()
    b = np.zeros(m, dtype=complex)
    b[:n] = np.conj(w)
    b[m - n + 1:] = np.conj(w[1:][::-1])
    kernel = _radix2(b[:, None])
    w = w[:, None]
    w.setflags(write=False)
    kernel.setflags(write=False)
    return w, kernel


def _bluestein(x):
    """Chirp-z transform along axis 0 for arbitrary n, built on radix-2.

    Zero-padding the input directly would move the bin frequencies and break
    implicit indexing, so lengths that are not a power of two go through the
    quadratic-phase convolution instead.
    """
    n, c = x.shape
    w, kernel = _chirp(n)
    a = np.zeros((kernel.shape[0], c), dtype=complex)
    a[:n] = x * w
    conv = _iradix2(_radix2(a) * kernel)
    return w * conv[:n]


def _dft_columns(a):
    """Full N-bin transform of every column of a complex (n, c) array."""
    n = a.shape[0]
    if n & (n - 1) == 0:
        return _radix2(a)
    return _bluestein(a)


@lru_cache(maxsize=64)
def _split_twiddle(n):
    """-i/2 * exp(-2 pi i k / n) for k = 0 .. n / 2 as a read-only (n/2 + 1, 1)
    array: the factor that splits the half-length transform of a packed real
    signal of even length n into its half-spectrum."""
    tw = -0.5j * np.exp((-2j * np.pi / n) * np.arange(n // 2 + 1))[:, None]
    tw.setflags(write=False)
    return tw


def _split(z, zr, tw):
    """(z + conj(zr)) / 2 + tw * (z - conj(zr)), elementwise."""
    zr = np.conj(zr)
    return 0.5 * (z + zr) + tw * (z - zr)


def _rfft(a):
    """Half-spectra (n // 2 + 1, c) of the columns of a real (n, c) array.

    Even n runs one m = n / 2 point transform of z = a[0::2] + i a[1::2].
    With E and O the transforms of the even and odd samples,
    Z[k] = E[k] + i O[k] and conj(Z[m - k]) = E[k] - i O[k], so
    X[k] = E[k] + exp(-2 pi i k / n) O[k] follows for k = 0 .. m (indices of
    Z taken mod m). Odd n is transformed at full length as a complex signal.
    """
    n, c = a.shape
    if n % 2:
        return _dft_columns(a.astype(complex))[: n // 2 + 1]
    m = n // 2
    z = np.empty((m, c), dtype=complex)
    z.real = a[0::2]
    z.imag = a[1::2]
    zf = _dft_columns(z)
    k = np.arange(m + 1)
    return _split(zf[k % m], zf[-k % m], _split_twiddle(n))


def _irfft(h, n):
    """Real (n, c) signals whose half-spectra are the columns of the
    (n // 2 + 1, c) array h; the inverse of `_rfft`. Only the real part of
    DC and (even n) Nyquist counts, as in the cosine sum.

    Even n runs one m = n / 2 point transform. The packed signal
    z = x[0::2] + i x[1::2] is the inverse transform of E[k] + i O[k], whose
    conjugate times 2 is the `_rfft` split of conj(h) at bins k and m - k.
    Odd n is the real part of one full-length transform of the weighted
    conjugate spectrum.
    """
    c = h.shape[1]
    if n % 2:
        z = np.zeros((n, c), dtype=complex)
        z[: h.shape[0]] = (_pair_weights(n) / n)[:, None] * np.conj(h)
        return _dft_columns(z).real
    m = n // 2
    u = np.conj(h) / m
    u[[0, m]] = u[[0, m]].real
    z = _dft_columns(_split(u[:m], u[m:0:-1], _split_twiddle(n)[:m]))
    out = np.empty((n, c))
    out[0::2] = z.real
    out[1::2] = -z.imag
    return out


def dft_naive(x):
    """Direct O(N^2) evaluation of the transform definition, full N bins.

    Serves as the independent oracle for `fft`. Twiddle factors are taken
    from a single table of N-th roots indexed by k*n mod N, so every term is
    the literal product x[n] * exp(-i 2 pi k n / N).
    """
    x = as_vector(x, "x")
    n = x.size
    roots = np.exp((-2j * np.pi / n) * np.arange(n))
    k = np.arange(n)
    return roots[np.outer(k, k) % n] @ x


def fft(x):
    """Half-spectrum (bins 0 .. N // 2) of a real vector.

    Even N runs at half length; the transform is radix-2 Cooley-Tukey when
    its length is a power of two, Bluestein otherwise.
    """
    return fft_columns(as_vector(x, "x")[:, None])[:, 0]


def fft_columns(w):
    """Half-spectra of every column of a real (n, c) matrix, as (n // 2 + 1, c).

    Column j equals `fft(w[:, j])` bit for bit; the columns are transformed
    BLOCK at a time.
    """
    w = as_matrix(w, "w")
    n, c = w.shape
    if n == 0:
        raise ValueError("columns must have at least 1 element")
    out = np.empty((half_spectrum_length(n), c), dtype=complex)
    for j in range(0, c, BLOCK):
        out[:, j : j + BLOCK] = _rfft(w[:, j : j + BLOCK])
    return out


def _pair_weights(n):
    """Per-bin multiplicity: 1 for DC and Nyquist, 2 for conjugate pairs."""
    w = np.full(half_spectrum_length(n), 2.0)
    w[0] = 1.0
    if n % 2 == 0 and n >= 2:
        w[-1] = 1.0
    return w


def _check_columns(half_spec, k, n):
    """Validated (half-spectra, counts) for a (half, c) array of column
    half-spectra and a k per column (or one k for all)."""
    hs = np.asarray(half_spec, dtype=complex)
    half = half_spectrum_length(n)
    if hs.ndim != 2 or hs.shape[0] != half:
        raise ValueError(f"expected a ({half}, c) array of column half-spectra for n={n}")
    return hs, _check_counts(k, hs.shape[1:], n)


def _check_counts(k, shape, n):
    """Per-channel retained counts broadcast to `shape`, each in [1, n // 2 + 1]."""
    if n < 1:
        raise ValueError(f"signal length must be at least 1, got {n}")
    ks = np.broadcast_to(np.asarray(k, dtype=np.int64), shape)
    if ((ks < 1) | (ks > half_spectrum_length(n))).any():
        raise ValueError(f"k={k} outside [1, {half_spectrum_length(n)}]")
    return ks


def truncate_columns(half_spec, k, n):
    """Keep the k[j] lowest-index bins of column j of a (half, c) array of
    half-spectra, packed as a (sum(k), 2) array of (amplitude, phase) rows,
    channel after channel: the layout of `spectra.bin`.

    `n` is the original signal length; it cannot be recovered from the
    half-spectrum length alone (even and odd n share lengths).
    """
    hs, ks = _check_columns(half_spec, k, n)
    pairs = np.stack([np.abs(hs), np.angle(hs)], axis=-1)
    phases = pairs[..., 1]
    phases[phases <= -np.pi] = np.pi
    # Conjugate symmetry forces DC/Nyquist real; drop their rounding-level
    # imaginary part and pin the phase.
    for m in _real_bin_indices(n):
        re = hs[m].real
        pairs[m, :, 0] = np.abs(re)
        pairs[m, :, 1] = np.where(re >= 0.0, 0.0, np.pi)
    kept = np.arange(hs.shape[0]) < ks[:, None]
    return pairs.transpose(1, 0, 2)[kept]


def reconstruct(bins, n):
    """Time-domain signal of one channel's (k, 2) truncated spectrum.

    x_hat[n] = (1/N) * sum_m w_m * A_m * cos(2 pi m n / N + phi_m) with
    w_m the conjugate-pair weights; this is the unique real reconstruction
    consistent with conjugate symmetry.
    """
    bins = np.asarray(bins, dtype=np.float64)
    if bins.ndim != 2 or bins.shape[1] != 2:
        raise ValueError("expected a (k, 2) array of (amplitude, phase) rows")
    k = bins.shape[0]
    _check_counts(k, (), n)
    coeff = _pair_weights(n)[:k] * bins[:, 0] / n
    theta = (2.0 * np.pi / n) * np.outer(np.arange(k), np.arange(n))
    theta += bins[:, 1:]
    return coeff @ np.cos(theta)


def reconstruct_columns(bins, k, n):
    """(n, len(k)) matrix whose column j is the signal of channel j of the
    packed (sum(k), 2) spectra `bins`.

    Agrees with `reconstruct` to rounding, but runs one inverse real
    transform per BLOCK columns of the zero-padded half-spectra
    A_m * exp(i phi_m). The result depends only on the stored (amplitude,
    phase) values, so a layer and its saved-and-loaded copy rebuild the same
    bits.
    """
    ks = _check_counts(k, np.shape(k), n)
    if ks.ndim != 1 or np.shape(bins) != (int(ks.sum()), 2):
        raise ValueError(f"expected a ({ks.sum()}, 2) array of packed spectra")
    bounds = np.concatenate(([0], np.cumsum(ks)))
    half = half_spectrum_length(n)
    out = np.empty((n, ks.size))
    for start in range(0, ks.size, BLOCK):
        kb = ks[start : start + BLOCK]
        rows = bins[bounds[start] : bounds[start + kb.size]]
        # Row-major order of the transposed mask is channel after channel,
        # the order of the packed rows.
        kept = np.arange(half) < kb[:, None]
        h = np.zeros((half, kb.size), dtype=complex)
        h.T[kept] = rows[:, 0] * np.exp(1j * rows[:, 1])
        out[:, start : start + kb.size] = _irfft(h, n)
    return out


def band_energies(half_spec, k, n):
    """(total, retained, tail) energy of each column of a (half, c) array of
    half-spectra, split at that column's k: three arrays over the columns.

    Energy of bin m is w_m * |X[m]|^2 / N, so `total` equals the time-domain
    energy sum(x^2) and `tail` is exactly the squared reconstruction error of
    a k-bin truncation; its square root is the error bound.
    """
    hs, ks = _check_columns(half_spec, k, n)
    terms = _pair_weights(n)[:, None] * np.abs(hs) ** 2 / n
    kept = np.arange(hs.shape[0])[:, None] < ks
    return (terms.sum(axis=0), np.where(kept, terms, 0.0).sum(axis=0),
            np.where(kept, 0.0, terms).sum(axis=0))


def parseval_check(x):
    """(time energy, frequency energy): sum(x^2) vs (1/N) sum |X[k]|^2.

    The frequency side is evaluated over the full N-bin spectrum; callers
    assert the two agree to relative 1e-9.
    """
    x = as_vector(x, "x")
    full = _dft_columns(x.astype(complex)[:, None])[:, 0]
    return float(np.sum(x * x)), float(np.sum(np.abs(full) ** 2) / x.size)


def lowband_fraction(half_spec, n, band=0.2):
    """Fraction of each channel's energy in the lowest `band` share of bins,
    one per column of a (half, c) array of half-spectra.

    A zero-energy channel reports 1.0 (everything is trivially captured).
    Each channel's amplitudes are taken in units of the power of two at its
    largest bin, an exact rescaling that keeps the energies from overflowing
    or underflowing, so the fraction does not depend on the channel's scale.
    """
    if not 0.0 < band <= 1.0:
        raise ValueError("band must lie in (0, 1]")
    half = half_spectrum_length(n)
    k = max(1, int(band * half))
    amp = pow2_units(np.abs(half_spec), axis=0)[0]
    total, retained, _ = band_energies(amp, k, n)
    return np.divide(retained, total, out=np.ones_like(total), where=total != 0.0)
