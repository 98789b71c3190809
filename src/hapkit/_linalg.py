"""Dense complex-matrix helpers shared across the package.

Every block handled by hapkit is a square complex128 matrix.  The operator
(spectral) norm is the norm used throughout.  Every per-block norm,
eigenvalue, exponential and PSD root is computed on stacks from ``_stacks``;
a block with a non-finite entry gets NaN, so every scan over it fails closed.
"""

from __future__ import annotations

import numpy as np

# Most bytes of blocks in one stack of ``_stacks``: a scan holds at
# most a small multiple of this much copied block data at once, so a
# family's scan adds little to peak memory whatever its size.
STACK_BYTES = 1 << 21


def _frozen(a) -> bool:
    """A read-only complex128 view of a read-only array: no one can write it."""
    return (isinstance(a, np.ndarray) and a.dtype == np.complex128
            and not a.flags.writeable
            and isinstance(a.base, np.ndarray) and not a.base.flags.writeable)


def as_block(mat, dim: int | None = None) -> np.ndarray:
    """Coerce ``mat`` to a read-only square complex128 array.

    A frozen view (see ``_frozen``) is adopted as it is; anything else is
    copied, so later writes by the caller cannot reach the block.
    """
    a = mat if _frozen(mat) else np.array(mat, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"block must be a square matrix, got shape {a.shape}")
    if dim is not None and a.shape[0] != dim:
        raise ValueError(f"block has side {a.shape[0]}, expected {dim}")
    a.setflags(write=False)
    return a


def _stacks(blocks):
    """(indices, stack) pairs covering the finite square ``blocks``.

    Blocks of one side are stacked, at most ``STACK_BYTES`` at a time.  A
    block with a non-finite entry is left out, since a LAPACK call on it
    would raise for the whole stack.
    """
    by_side = {}
    for i, blk in enumerate(blocks):
        by_side.setdefault(blk.shape[0], []).append(i)
    for d, idx in by_side.items():
        step = max(1, STACK_BYTES // (16 * d * d))
        for start in range(0, len(idx), step):
            chunk = np.array(idx[start:start + step])
            stack = np.stack([blocks[i] for i in chunk])
            finite = np.isfinite(stack).all(axis=(-2, -1))
            if finite.all():
                yield chunk, stack
            elif finite.any():
                yield chunk[finite], stack[finite]


def _stacked(blocks, reduce) -> np.ndarray:
    """One value per block: ``reduce`` maps a finite (n, d, d) stack to n values; NaN elsewhere."""
    out = np.full(len(blocks), np.nan)
    for idx, stack in _stacks(blocks):
        out[idx] = reduce(stack)
    return out


def spectral_norms(blocks, minus_identity: bool = False) -> np.ndarray:
    """Spectral norms of square ``blocks`` (of ``block - I`` if ``minus_identity``).

    Each value equals ``np.linalg.norm(block, 2)`` bitwise; NaN if non-finite.
    """
    def largest_singular_values(stack):
        if minus_identity:
            stack = stack - np.eye(stack.shape[-1])
        return np.linalg.svd(stack, compute_uv=False).max(-1)
    return _stacked(blocks, largest_singular_values)


def min_eigenvalues(blocks) -> np.ndarray:
    """Smallest eigenvalue of the Hermitian part of each square block; NaN if non-finite."""
    return _stacked(blocks, lambda stack: np.linalg.eigvalsh(hermitize(stack))[:, 0])


# The next three are unused by hapkit; kept because the benchmark tracer wraps them by name.
def spectral_norm(a: np.ndarray) -> float:
    return float(spectral_norms([np.asarray(a)])[0])


def min_eigenvalue(a: np.ndarray) -> float:
    return float(min_eigenvalues([np.asarray(a)])[0])


def frobenius_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part of a matrix or of every matrix in a stack."""
    return (a + np.swapaxes(a.conj(), -1, -2)) / 2.0


def hermitian_calculus(blocks, f) -> tuple[list, np.ndarray]:
    """V diag(f(w)) V* and min(w) for the Hermitian part V diag(w) V* of every block.

    ``f`` maps an (n, d) stack of ascending eigenvalues elementwise.  One
    ``eigh`` and one batched matmul per stack give each block bitwise what
    they give on it alone.  A non-finite block gets a NaN block and NaN.
    """
    out = [np.full(blk.shape, np.nan, dtype=np.complex128) for blk in blocks]
    lows = np.full(len(blocks), np.nan)
    for idx, stack in _stacks(blocks):
        w, v = np.linalg.eigh(hermitize(stack))
        lows[idx] = w[:, 0]
        values = (v * f(w)[:, np.newaxis, :]) @ np.swapaxes(v.conj(), -1, -2)
        for i, value in zip(idx, values):
            out[i] = value
    return out, lows


def expm_neg(blocks, t: float) -> list[np.ndarray]:
    """exp(-t*a) for every square block a.

    Hermitian blocks (adjoint residual at most 1e-12 * max(1, ||a||)) go
    through ``hermitian_calculus``, exact up to the backward error of the
    eigensolver; any other block, a non-finite one too, through scaling-and-squaring.
    """
    residuals = spectral_norms([a - a.conj().T for a in blocks])
    hermitian = residuals <= 1e-12 * np.maximum(1.0, spectral_norms(blocks))
    out, _ = hermitian_calculus(blocks, lambda w: np.exp(-t * w))
    for i in np.flatnonzero(~hermitian):
        # imported here: scipy.linalg is about half of the package's import time,
        # and only this fallback needs it
        import scipy.linalg
        out[i] = scipy.linalg.expm(-t * blocks[i])
    return out


def psd_sqrt(blocks) -> tuple[list, np.ndarray]:
    """Principal roots of the Hermitian parts of ``blocks``, and their smallest eigenvalues.

    Negative eigenvalues are clamped to 0; the caller decides which are rounding.
    """
    return hermitian_calculus(blocks, lambda w: np.sqrt(np.clip(w, 0.0, None)))
