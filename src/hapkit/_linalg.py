"""Dense complex-matrix helpers shared across the package.

Every block handled by hapkit is a square complex128 matrix, held in an
(n, d, d) stack with the other blocks of its side.  The operator (spectral)
norm is the norm used throughout.  Every per-block norm, eigenvalue,
exponential and PSD root is computed on such stacks, in chunks from
``_chunks``; a block with a non-finite entry gets NaN, so every scan over it
fails closed.
"""

from __future__ import annotations

import numpy as np

# Most bytes of blocks in one chunk of ``_chunks``: a scan holds at
# most a small multiple of this much copied block data at once, so a
# family's scan adds little to peak memory whatever its size.
STACK_BYTES = 1 << 21


def _frozen(a) -> bool:
    """A read-only complex128 view of a read-only array: no one can write it."""
    return (isinstance(a, np.ndarray) and a.dtype == np.complex128
            and not a.flags.writeable
            and isinstance(a.base, np.ndarray) and not a.base.flags.writeable)


def freeze(a) -> np.ndarray:
    """``a`` as a frozen complex128 array (see ``_frozen``): itself if it is one;
    if it owns its data, a view of it after it is made read-only (its maker
    hands it over); else a view of a read-only copy."""
    if _frozen(a):
        return a
    if not (isinstance(a, np.ndarray) and a.dtype == np.complex128 and a.base is None):
        a = np.array(a, dtype=np.complex128)
    a.setflags(write=False)
    return a.view()


def _chunks(stack, prepare=None):
    """(rows, chunk) pairs covering the finite blocks of an (n, d, d) ``stack``,
    or of what ``prepare`` makes of each chunk.

    A chunk holds at most ``STACK_BYTES`` of blocks and is a view of the
    stack.  A block with a non-finite entry is left out, since a LAPACK call
    on it would raise for the whole chunk; only a chunk that leaves one out
    is copied.
    """
    step = max(1, STACK_BYTES // (16 * stack.shape[-1] ** 2))
    for start in range(0, len(stack), step):
        chunk = stack[start:start + step]
        if prepare is not None:
            chunk = prepare(chunk)
        rows = np.arange(start, start + len(chunk))
        finite = np.isfinite(chunk).all(axis=(-2, -1))
        if finite.all():
            yield rows, chunk
        elif finite.any():
            yield rows[finite], chunk[finite]


def _stacked(stack, reduce, prepare=None) -> np.ndarray:
    """One value per block: ``reduce`` maps a finite (n, d, d) chunk to n values; NaN elsewhere."""
    out = np.full(len(stack), np.nan)
    for rows, chunk in _chunks(stack, prepare):
        out[rows] = reduce(chunk)
    return out


def _adjoint(stack: np.ndarray) -> np.ndarray:
    return np.conjugate(np.swapaxes(stack, -1, -2))


def _largest_singular_values(chunk: np.ndarray) -> np.ndarray:
    return np.linalg.svd(chunk, compute_uv=False).max(-1)


def spectral_norms(stack, minus_identity: bool = False) -> np.ndarray:
    """Spectral norms of the blocks of an (n, d, d) stack (of ``block - I`` if ``minus_identity``).

    Each value equals ``np.linalg.norm(block, 2)`` bitwise; NaN if non-finite.
    """
    eye = np.eye(stack.shape[-1]) if minus_identity else None
    return _stacked(stack, _largest_singular_values,
                    None if eye is None else lambda chunk: chunk - eye)


def adjoint_residuals(stack) -> np.ndarray:
    """Hermitian residuals ||B - B*|| of the blocks of a stack; NaN if B - B* is not finite."""
    return _stacked(stack, _largest_singular_values, lambda chunk: chunk - _adjoint(chunk))


def min_eigenvalues(stack) -> np.ndarray:
    """Smallest eigenvalue of the Hermitian part of each block of a stack; NaN if non-finite."""
    return _stacked(stack, lambda chunk: np.linalg.eigvalsh(hermitize(chunk))[:, 0])


def hermitian_eigenvalues(stack: np.ndarray) -> np.ndarray:
    """(n, d) ascending eigenvalues of an (n, d, d) stack, one row per block.

    A row is NaN unless its block is finite and equal to its adjoint entry
    for entry, so the eigenvalues are those of the block itself.
    """
    out = np.full(stack.shape[:2], np.nan)
    for rows, chunk in _chunks(stack):
        hermitian = (chunk == _adjoint(chunk)).all(axis=(-2, -1))
        if hermitian.any():
            out[rows[hermitian]] = np.linalg.eigvalsh(chunk[hermitian])
    return out


# The next three are unused by hapkit; kept because the benchmark tracer wraps them by name.
def spectral_norm(a: np.ndarray) -> float:
    return float(spectral_norms(np.asarray(a)[np.newaxis])[0])


def min_eigenvalue(a: np.ndarray) -> float:
    return float(min_eigenvalues(np.asarray(a)[np.newaxis])[0])


def frobenius_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part of a matrix or of every matrix in a stack.

    One temporary, the adjoint, then summed and halved in place: bitwise
    (a + a*) / 2, since addition commutes.
    """
    h = _adjoint(a)  # a new array, even for real ``a``
    h += a
    h /= 2.0
    return h


def hermitian_eigh(stack) -> tuple[np.ndarray, np.ndarray]:
    """(w, v): ascending eigenvalues and eigenvectors of the Hermitian part of
    every block of a stack, one ``eigh`` per chunk; NaN rows for a non-finite block."""
    w = np.full(stack.shape[:2], np.nan)
    v = np.full(stack.shape, np.nan, dtype=np.complex128)
    for rows, chunk in _chunks(stack):
        w[rows], v[rows] = np.linalg.eigh(hermitize(chunk))
    return w, v


def hermitian_calculus(w: np.ndarray, v: np.ndarray, f) -> np.ndarray:
    """V diag(f(w)) V* for every row of ``hermitian_eigh``'s (w, v); NaN for a NaN row.

    ``f`` maps an (n, d) array of eigenvalues elementwise.  One batched
    matmul gives each block bitwise what it gives on it alone.
    """
    out = np.full(v.shape, np.nan, dtype=np.complex128)
    ok = ~np.isnan(w[:, 0])
    vecs = v[ok]
    out[ok] = (vecs * f(w[ok])[:, np.newaxis, :]) @ _adjoint(vecs)
    return out


def expm_neg(stacks, t: float, spectra) -> dict:
    """exp(-t*a) for every block a of each side's stack in ``stacks``.

    ``spectra[d]`` is (hermitian, w, v) for the side-d stack: which blocks
    count as Hermitian, with adjoint residual at most 1e-12 * max(1, ||a||),
    and ``hermitian_eigh`` of the stack; it does not depend on t.  Hermitian
    blocks go through ``hermitian_calculus``, exact up to the backward error
    of the eigensolver; any other block, a non-finite one too, through
    scaling-and-squaring.
    """
    out = {}
    for d, stack in stacks.items():
        hermitian, w, v = spectra[d]
        out[d] = values = hermitian_calculus(w, v, lambda w: np.exp(-t * w))
        for r in np.flatnonzero(~hermitian):
            # imported here: scipy.linalg is about half of the package's import time,
            # and only this fallback needs it
            import scipy.linalg
            values[r] = scipy.linalg.expm(-t * stack[r])
    return out


def psd_sqrt(spectra) -> dict:
    """Principal roots V diag(sqrt(w)) V*, by side, of the Hermitian blocks whose
    ``hermitian_eigh`` pairs (w, v) are ``spectra[d]``.

    Negative eigenvalues are clamped to 0: the caller has decided positivity
    beforehand, so the ones left are rounding.
    """
    return {d: hermitian_calculus(w, v, lambda w: np.sqrt(np.clip(w, 0.0, None)))
            for d, (w, v) in spectra.items()}
