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
  `reconstruct_columns` run the transform along axis 0, and
  `truncate_columns`, `band_energies` and `lowband_fraction` take the
  (n // 2 + 1, c) half-spectra it produces; a single channel is a one-column
  matrix. `fft` is that path on one vector, so both agree bit for bit;
  `dft_naive` is the independent reference.
- Real columns of even length n are transformed at half length: the forward
  transform packs the even and odd samples as one complex n/2-point signal
  and splits its transform into the half-spectrum, and the inverse packs the
  half-spectrum the same way and interleaves the real and imaginary parts of
  one n/2-point transform into W'. Odd n has no such packing and runs the
  full-length complex transform. `_rfft` and `_irfft` hold that choice.
- The rebuild of W' touches only the kept bins. Each block of columns
  carries just its K = max k rows, and the inverse packs them into the
  half-length input without forming the zero bins past K: at ratio 0.25
  that is 105 of 385 bins at n = 768 and 195 of 513 at n = 1024 on the
  benchmark layers. The zero rows a block gives a channel with fewer bins
  change none of its bits, so every column equals its channel rebuilt alone.
- A complex transform of length n = 2^a q, q odd, is decimation in time:
  the 2^a interleaved length-q leaves are transformed in one batch and
  radix-2 stages merge them up to n. Leaves up to DIRECT_MAX points, the
  small odd factors of real model widths (3, 5, 7, 27, 43), run the direct
  sum over a table of q-th roots; longer ones run one batched Bluestein
  transform, which pads only q to a power of two. DIRECT_MAX is the
  measured crossover of the two. A power of two is radix-2 alone and an odd
  n is one full-length leaf. At n = 768 the packed 384 = 2^7 * 3 point
  transform is 7 radix-2 stages over direct 3-point leaves; no Bluestein.
  No step calls BLAS, so each column's bits depend neither on the block
  width nor on BLAS threading.
- Columns go through the transforms BLOCK = 64 at a time. Timed on the
  benchmark layers (256 channels; 2-vCPU Xeon VM, numpy 2.4; three runs of
  150 calls), the n = 768 rebuild took 6.1-7.2 ms at 64 against 9.0-9.8 at
  16 and 6.5-7.8 at 32, and the n = 1024 forward transform 6.9-9.8 ms at
  64 against 9.4-11.6 at 16. At 128 the forward stages outgrow the cache
  (16.3-16.9 ms at n = 1024). 64 costs 2 MB of peak memory over 16 in a
  process that only transforms.
"""

from functools import lru_cache

import numpy as np

from .validation import array, as_matrix, as_vector, integers, pow2_units, scalar


def half_spectrum_length(n):
    """Number of DFT bins needed to represent a real signal of length n, a
    non-negative integer as `validation.scalar` takes it (16.0 is 16)."""
    return scalar(n, "n", 0, integer=True) // 2 + 1


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
# per-stage Python overhead, narrow enough that a block's stage arrays and
# the padded Bluestein buffers of its leaves stay small and peak memory does
# not grow with c_out. See the module docstring for the measured choice.
BLOCK = 64


@lru_cache(maxsize=64)
def _stage_twiddles(size, c):
    """exp(-2 pi i j / size) for j < size / 2, repeated across c columns as a
    read-only (size / 2, c) array: a stage multiplies two arrays of one shape."""
    tw = np.exp((-2j * np.pi / size) * np.arange(size // 2))
    tw = np.repeat(tw[:, None], c, axis=1)
    tw.setflags(write=False)
    return tw


# Odd leaf lengths up to this one run the direct sum, longer ones Bluestein.
# The direct sum costs q^2 multiply-adds per leaf column against Bluestein's
# three power-of-two transforms of at least 2q - 1 points. Timed on the
# leaves of 16-column blocks of 2^a q points (a = 3, 6, 9; 2-vCPU Xeon VM,
# numpy 2.4), the direct sum is faster through q = 47 at every a, breaks
# even at q = 49 and 51 for a = 3, and is slower from q = 53 for a <= 6.
DIRECT_MAX = 47


@lru_cache(maxsize=None)
def _direct_twiddles(q):
    """exp(-2 pi i j k / q) as a read-only (q, q, 1) array indexed [j, k]:
    one (q, 1) column of q-th roots, taken mod q, per input sample j."""
    j = np.arange(q)
    roots = np.exp((-2j * np.pi / q) * j)
    tw = roots[np.outer(j, j) % q][:, :, None]
    tw.setflags(write=False)
    return tw


def _direct(x):
    """Transform along axis 0 of a complex (q, c) array by the direct sum
    X[k] = sum_j x[j] exp(-2 pi i j k / q): q elementwise multiply-adds, so
    each column's bits depend on that column alone."""
    tw = _direct_twiddles(x.shape[0])
    out = np.repeat(x[:1], x.shape[0], axis=0)
    for j in range(1, x.shape[0]):
        out += tw[j] * x[j]
    return out


def _dft_columns(a):
    """Full N-bin transform of every column of a complex (n, c) array.

    Decimation in time for n = 2^a q with q odd: the 2^a leaves a[r::2^a]
    of length q are transformed in one batch (none when q = 1), laid out in
    bit-reversed order of r, and merged by radix-2 stages of size 2q up to
    n. The leaves run the direct sum while q <= DIRECT_MAX and one batched
    Bluestein transform, which pads only q to a power of two, beyond. A
    power of two is plain radix-2 and an odd n is one full-length leaf.
    """
    n, c = a.shape
    p = n & -n
    q = n // p
    if q > 1:
        a = (_direct if q <= DIRECT_MAX else _bluestein)(a.reshape(q, p * c))
    leaves = a.reshape(q, p, c).transpose(1, 0, 2)[_bit_reverse(p)]
    # The stages write through reshaped views, so `out` must be contiguous.
    out = np.ascontiguousarray(leaves).reshape(n, c)
    # Every stage writes its twiddled odd halves, n / 2 rows in all, here.
    scratch = np.empty((n // 2, c), dtype=complex)
    size = 2 * q
    while size <= n:
        half = size // 2
        blocks = out.reshape(-1, size, c)
        even = blocks[:, :half]
        odd = scratch.reshape(-1, half, c)
        np.multiply(blocks[:, half:], _stage_twiddles(size, c), out=odd)
        np.subtract(even, odd, out=blocks[:, half:])
        even += odd
        size *= 2
    return out


@lru_cache(maxsize=64)
def _chirp(n):
    """Bluestein chirp w (n, 1) and the transformed conjugate-chirp kernel
    (m, 1) for odd length n, with m the power of two the convolution runs
    at: the least one of at least 2n - 1."""
    k = np.arange(n)
    # Reduce k^2 mod 2n before forming the angle to keep the phase accurate.
    w = np.exp((-1j * np.pi / n) * ((k * k) % (2 * n)))
    m = 1 << (2 * n - 2).bit_length()
    b = np.zeros(m, dtype=complex)
    b[:n] = np.conj(w)
    b[m - n + 1:] = np.conj(w[1:][::-1])
    kernel = _dft_columns(b[:, None])
    w = w[:, None]
    w.setflags(write=False)
    kernel.setflags(write=False)
    return w, kernel


def _bluestein(x):
    """Chirp-z transform along axis 0 of a complex (n, c) array, as a
    convolution run by power-of-two transforms.

    Zero-padding the input directly would move the bin frequencies and break
    implicit indexing, so an odd factor longer than DIRECT_MAX goes through
    the quadratic-phase convolution instead. The kernel spectrum has entries
    up to 2n - 1 and the inverse is divided by m only at the end, so each
    column runs in units of the power of two at its largest |re|, |im|, an
    exact rescaling (`np.ldexp` on both parts) that keeps the intermediates
    of any spectrum that fits in float64 from overflowing.
    """
    n, c = x.shape
    w, kernel = _chirp(n)
    m = kernel.shape[0]
    exp = np.frexp(np.maximum(np.abs(x.real), np.abs(x.imag)).max(axis=0))[1]
    a = np.zeros((m, c), dtype=complex)
    a.real[:n] = np.ldexp(x.real, -exp)
    a.imag[:n] = np.ldexp(x.imag, -exp)
    a[:n] *= w
    conv = np.conj(_dft_columns(np.conj(_dft_columns(a) * kernel))) / m
    out = w * conv[:n]
    np.ldexp(out.real, exp, out=out.real)
    np.ldexp(out.imag, exp, out=out.imag)
    return out


@lru_cache(maxsize=64)
def _split_factors(n):
    """(1/2 + t, 1/2 - t) with t = -i/2 exp(-2 pi i k / n), k = 0 .. n / 2,
    as read-only (n/2 + 1, 1) arrays: the weights that split the half-length
    transform of a packed real signal of even length n into its
    half-spectrum, and that pack a half-spectrum back."""
    t = -0.5j * np.exp((-2j * np.pi / n) * np.arange(n // 2 + 1))[:, None]
    a, b = 0.5 + t, 0.5 - t
    a.setflags(write=False)
    b.setflags(write=False)
    return a, b


def _rfft(a):
    """Half-spectra (n // 2 + 1, c) of the columns of a real (n, c) array.

    Even n runs one m = n / 2 point transform of z = a[0::2] + i a[1::2].
    With E and O the transforms of the even and odd samples,
    Z[k] = E[k] + i O[k] and conj(Z[m - k]) = E[k] - i O[k], so
    X[k] = E[k] + exp(-2 pi i k / n) O[k] = (1/2 + t_k) Z[k] + (1/2 - t_k)
    conj(Z[m - k]) for k = 0 .. m (`_split_factors`, indices of Z mod m).
    Odd n is transformed at full length as a complex signal.
    """
    n, c = a.shape
    if n % 2:
        return _dft_columns(a.astype(complex))[: n // 2 + 1]
    m = n // 2
    z = np.empty((m, c), dtype=complex)
    z.real = a[0::2]
    z.imag = a[1::2]
    # Row m repeats row 0 (Z[m] = Z[0]), so Z[m - k] is the reversed array.
    z = _dft_columns(z)
    z = np.concatenate((z, z[:1]))
    fa, fb = _split_factors(n)
    out = np.conj(z[::-1])
    # fb first: swapping a complex product's operands can change its bits.
    np.multiply(fb, out, out=out)
    out += fa * z
    return out


def _irfft(h, n):
    """Real (n, c) signals whose half-spectra start with the K rows of the
    (K, c) array h and are zero past them; the inverse of `_rfft`. The DC
    and (even n) Nyquist rows of h must be real.

    Even n runs one m = n / 2 point transform. The packed signal
    x[0::2] + i x[1::2] is the conjugate of the transform of
    z[k] = (1/2 + t_k) u[k] + (1/2 - t_k) conj(u[m - k]), u = conj(h) / m:
    the `_rfft` split, run backwards. With u zero past K, the first term
    fills rows [0, K) and the second rows (m - K, m), in one formula for any
    K up to the full band; the rest of z is zero. Odd n is the real part of
    one full-length transform of the weighted conjugate spectrum, whose
    first K rows are the only nonzero ones.
    """
    k, c = h.shape
    if n % 2:
        z = np.zeros((n, c), dtype=complex)
        np.multiply((_pair_weights(n)[:k] / n)[:, None], np.conj(h), out=z[:k])
        return _dft_columns(z).real
    m = n // 2
    fa, fb = _split_factors(n)
    low = min(k, m)
    z = np.zeros((m, c), dtype=complex)
    np.multiply(fa[:low] / m, np.conj(h[:low]), out=z[:low])
    # conj(u[j]) = h[j] / m, for j = k - 1 .. 1 at rows m - j.
    z[m - k + 1 :] += (fb[m - k + 1 : m] / m) * h[k - 1 : 0 : -1]
    z = _dft_columns(z)
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

    Even N runs at half length; the transform runs radix-2 Cooley-Tukey
    stages over transforms of its odd factor (see `_dft_columns`).
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


def _real_rows(ks, n):
    """(m, rows) for each real bin m (DC and, for even n, Nyquist) of
    channels with counts ks, packed channel after channel: bin m of channel
    j is row start_j + m, present when k_j > m."""
    starts = np.cumsum(ks) - ks
    return [(m, (starts + m)[ks > m]) for m in _real_bin_indices(n)]


def _pair_weights(n):
    """Per-bin multiplicity: 1 for DC and Nyquist, 2 for conjugate pairs."""
    w = np.full(half_spectrum_length(n), 2.0)
    w[list(_real_bin_indices(n))] = 1.0
    return w


def _check_columns(half_spec, k, n):
    """Validated (half-spectra, counts, n) for a (half, c) array of column
    half-spectra, real or complex (`validation.array`), a k per column (or
    one k for all) and the signal length n, as `_check_counts` takes them."""
    hs = array(half_spec, "half_spec", 2, complex_ok=True)
    ks, n = _check_counts(k, hs.shape[1:], n)
    half = half_spectrum_length(n)
    if hs.shape[0] != half:
        raise ValueError(f"expected a ({half}, c) array of column half-spectra for n={n}")
    return hs, ks, n


def _check_counts(k, shape, n):
    """(counts, n): the signal length n as an int, an integer of at least 1
    as `validation.scalar` takes it, so 16.0 is 16, and the retained counts,
    each an integer in [1, n // 2 + 1] as `validation.integers` takes it:
    an integer ndarray, such as a plan's k, as it is, and anything else
    element by element, so an integral float such as 8.0 is a count and a
    bool is not. k is one count or one per entry of `shape`, broadcast to
    it, or with `shape` None one count per channel, a 1-D array; any other
    array of counts raises ValueError naming k."""
    n = scalar(n, "n", 1, integer=True)
    ks = integers(k, "k", 1, half_spectrum_length(n), ndim=1 if shape is None else None)
    if shape is None:
        return ks, n
    if ks.ndim and ks.shape != shape:
        raise ValueError(f"k must be one count or one per column ({shape[0]}), got {ks.shape}")
    return np.broadcast_to(ks, shape), n


def truncate_columns(half_spec, k, n):
    """Keep the k[j] lowest-index bins of column j of a (half, c) array of
    half-spectra, packed as a (sum(k), 2) array of (amplitude, phase) rows,
    channel after channel: the layout of `spectra.bin`.

    `n` is the original signal length, an integer of at least 1 as
    `_check_counts` takes it; it cannot be recovered from the half-spectrum
    length alone (even and odd n share lengths).
    """
    hs, ks, n = _check_columns(half_spec, k, n)
    # Row-major order of the transposed mask is channel after channel.
    kept = hs.T[np.arange(hs.shape[0]) < ks[:, None]]
    pairs = np.stack([np.abs(kept), np.angle(kept)], axis=-1)
    phases = pairs[:, 1]
    phases[phases <= -np.pi] = np.pi
    # Conjugate symmetry forces DC/Nyquist real; drop their rounding-level
    # imaginary part and pin the phase.
    for _, rows in _real_rows(ks, n):
        re = kept[rows].real
        pairs[rows, 0] = np.abs(re)
        pairs[rows, 1] = np.where(re >= 0.0, 0.0, np.pi)
    return pairs


def reconstruct_columns(bins, k, n):
    """(n, len(k)) matrix whose column j is the signal of channel j of the
    packed (sum(k), 2) spectra `bins`, with k one count per channel as
    `_check_counts` takes it.

    Column j is x[t] = (1/n) sum_m w_m A_m cos(2 pi m t / n + phi_m) over
    the channel's (amplitude, phase) rows, w_m the conjugate-pair weights:
    the unique real signal consistent with conjugate symmetry. A_m exp(i
    phi_m) is formed once for all rows, with only the real part at DC and
    Nyquist, as in the cosine sum. Each BLOCK columns then run one inverse
    real transform of their K = max k kept rows, so no bin past K is
    touched. The result depends only on the stored (amplitude, phase)
    values, so a layer and its saved-and-loaded copy rebuild the same bits.
    `bins` is a real 2-D array as `validation.array` takes it, unchecked for
    finiteness: a non-finite spectrum rebuilds to a non-finite W' for the
    caller to refuse.
    """
    bins = array(bins, "bins", 2)
    ks, n = _check_counts(k, None, n)
    if bins.shape != (int(ks.sum()), 2):
        raise ValueError(f"expected a ({ks.sum()}, 2) array of packed spectra")
    spec = np.empty(len(bins), dtype=complex)
    np.cos(bins[:, 1], out=spec.real)
    spec.real *= bins[:, 0]
    np.sin(bins[:, 1], out=spec.imag)
    spec.imag *= bins[:, 0]
    for _, rows in _real_rows(ks, n):
        spec.imag[rows] = 0.0
    bounds = np.concatenate(([0], np.cumsum(ks)))
    out = np.empty((n, ks.size))
    for start in range(0, ks.size, BLOCK):
        kb = ks[start : start + BLOCK]
        h = np.zeros((kb.max(), kb.size), dtype=complex)
        # Row-major order of the transposed mask is channel after channel,
        # the order of the packed rows.
        h.T[np.arange(h.shape[0]) < kb[:, None]] = spec[bounds[start] : bounds[start + kb.size]]
        out[:, start : start + kb.size] = _irfft(h, n)
    return out


def band_energies(half_spec, k, n):
    """(energy, unit): the total, retained and tail energy of each column of
    a (half, c) array of half-spectra, split at that column's k, as a (3, c)
    array in units of 2^unit. The one place an energy unit is chosen.

    Energy of bin m is w_m * |X[m]|^2 / N, so `total` equals the time-domain
    energy sum(x^2) and `tail` is exactly the squared reconstruction error of
    a k-bin truncation; `energy_norm(tail, unit)` is the error bound.
    `unit` is 0 unless the energy of all columns together reaches 2^1023,
    half the float64 range (so any sum of the energies fits), or max|X| is
    below 2^-458, where squares of bins 2^-53 times the largest would be
    subnormal; then the amplitudes are taken in units of 2^e, e the frexp
    exponent of max|X|, an exact rescaling, and unit = 2e. A non-finite
    half-spectrum raises ValueError.
    """
    hs, ks, n = _check_columns(half_spec, k, n)
    amp, unit = np.abs(hs), 0
    with np.errstate(over="ignore"):  # taken again in a power-of-two unit below
        terms = _pair_weights(n)[:, None] * amp**2 / n
        rescale = not terms.sum() < 2.0**1023 or 0.0 < amp.max(initial=0.0) < 2.0**-458
    if rescale:
        amp, exp = pow2_units(amp)
        terms, unit = _pair_weights(n)[:, None] * amp**2 / n, 2 * int(exp.item())
        if not np.isfinite(terms.sum()):
            raise ValueError("half-spectra contain non-finite values")
    kept = np.arange(hs.shape[0])[:, None] < ks
    return np.stack((terms.sum(axis=0), np.where(kept, terms, 0.0).sum(axis=0),
                     np.where(kept, 0.0, terms).sum(axis=0))), unit


def energy_norm(energy, unit):
    """The 2-norm whose square is `energy` in units of 2^unit, as
    `band_energies` gives them: sqrt(energy) * 2^(unit / 2), exact in the
    rescaling because the unit is even. Past the float64 range it is inf,
    without a warning, for the caller to refuse by name."""
    with np.errstate(over="ignore"):
        return np.ldexp(np.sqrt(energy), unit // 2)


def lowband_fraction(half_spec, n, band=0.2):
    """Fraction of each channel's energy in the lowest `band` share of bins,
    one per column of a (half, c) array of half-spectra.

    A zero-energy channel reports 1.0 (everything is trivially captured).
    Each channel's amplitudes are taken in units of the power of two at its
    largest bin, an exact rescaling that keeps the energies from overflowing
    or underflowing, so the fraction does not depend on the channel's scale.
    `half_spec` is a real or complex 2-D array, as `validation.array` takes
    it, and `band` a number in (0, 1], as `validation.scalar` takes it.
    """
    band = scalar(band, "band", 0, 1, open_lo=True)
    half = half_spectrum_length(n)
    k = max(1, int(band * half))
    amp = pow2_units(np.abs(array(half_spec, "half_spec", 2, complex_ok=True)), axis=0)[0]
    (total, retained, _), _ = band_energies(amp, k, n)
    return np.divide(retained, total, out=np.ones_like(total), where=total != 0.0)
