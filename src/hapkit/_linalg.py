"""Dense complex-matrix helpers shared across the package.

Every block handled by hapkit is a square complex128 matrix.  The operator
(spectral) norm is the norm used throughout.  Every per-block norm and
eigenvalue scan runs through ``_stacked``; a block with a non-finite entry
gets NaN there, so every scan over it fails closed.
"""

from __future__ import annotations

import numpy as np

# Most bytes of blocks one LAPACK call of ``_stacked`` gets: a scan holds at
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


def _stacked(blocks, reduce) -> np.ndarray:
    """One value per square block: ``reduce`` maps an (n, d, d) stack to n values.

    Blocks of one side are stacked, at most ``STACK_BYTES`` at a time, and
    each stack goes to ``reduce`` once.  A block with a non-finite entry gets
    NaN without reaching ``reduce``, whose LAPACK call would raise for the
    whole stack.
    """
    out = np.full(len(blocks), np.nan)
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
                out[chunk] = reduce(stack)
            elif finite.any():
                out[chunk[finite]] = reduce(stack[finite])
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


def spectral_norm(a: np.ndarray) -> float:
    return float(spectral_norms([np.asarray(a)])[0])


def min_eigenvalue(a: np.ndarray) -> float:
    # Unused by hapkit; kept because the benchmark tracer wraps it by name.
    return float(min_eigenvalues([np.asarray(a)])[0])


def frobenius_norm(a: np.ndarray) -> float:
    # Unused by hapkit; kept because the benchmark tracer wraps it by name.
    return float(np.linalg.norm(a))


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part of a matrix or of every matrix in a stack."""
    return (a + np.swapaxes(a.conj(), -1, -2)) / 2.0


def expm_neg(a: np.ndarray, t: float) -> np.ndarray:
    """Evaluate exp(-t*a).

    Hermitian input (adjoint residual at most 1e-12 * max(1, ||a||)) goes
    through an eigendecomposition (exact up to the backward error of the
    eigensolver); anything else falls back to scaling-and-squaring.
    """
    a = np.asarray(a, dtype=np.complex128)
    scale = max(1.0, spectral_norm(a))
    if spectral_norm(a - a.conj().T) <= 1e-12 * scale:
        w, v = np.linalg.eigh(hermitize(a))
        return (v * np.exp(-t * w)) @ v.conj().T
    # imported here: scipy.linalg is about half of the package's import time,
    # and only this fallback needs it
    import scipy.linalg
    return scipy.linalg.expm(-t * a)


def psd_sqrt(a: np.ndarray, tol: float) -> tuple[np.ndarray, float]:
    """Principal square root of a Hermitian PSD matrix.

    Eigenvalues in [-tol, 0) are clamped to 0; an eigenvalue below -tol
    (or NaN) raises.  Returns the root and the largest clamp magnitude applied.
    """
    w, v = np.linalg.eigh(hermitize(a))
    lo = float(w[0])
    if not lo >= -tol:
        raise ValueError(f"matrix is not positive semidefinite: eigenvalue {lo}")
    clamp = max(0.0, -lo)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T, clamp
