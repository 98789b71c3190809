"""Dense complex-matrix helpers shared across the package.

Every block handled by hapkit is a square complex128 matrix.  The operator
(spectral) norm is the norm used throughout.  A block with a non-finite
entry has norm NaN, so every scan over it fails closed.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

# Most bytes of blocks one SVD call of ``spectral_norms`` stacks: a scan holds
# at most this much copied block data at once (twice with ``- I``), so a
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


def _max_singular_values(stack: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in an (n, d, d) stack.

    A matrix with a non-finite entry gets NaN without reaching the SVD,
    which would raise for the whole stack.
    """
    finite = np.isfinite(stack).all(axis=(-2, -1))
    if finite.all():
        return np.linalg.svd(stack, compute_uv=False).max(-1)
    out = np.full(len(stack), np.nan)
    if finite.any():
        out[finite] = np.linalg.svd(stack[finite], compute_uv=False).max(-1)
    return out


def spectral_norm(a: np.ndarray) -> float:
    return float(_max_singular_values(np.asarray(a)[np.newaxis])[0])


def spectral_norms(blocks, minus_identity: bool = False) -> np.ndarray:
    """Spectral norms of square ``blocks`` (of ``block - I`` if ``minus_identity``).

    Blocks of one side are stacked, at most ``STACK_BYTES`` at a time, and
    scanned by one SVD call per stack; the values equal ``spectral_norm``
    of each block bitwise.
    """
    out = np.empty(len(blocks))
    by_side = {}
    for i, blk in enumerate(blocks):
        by_side.setdefault(blk.shape[0], []).append(i)
    for d, idx in by_side.items():
        step = max(1, STACK_BYTES // (16 * d * d))
        for start in range(0, len(idx), step):
            chunk = idx[start:start + step]
            stack = np.stack([blocks[i] for i in chunk])
            if minus_identity:
                stack = stack - np.eye(d)
            out[chunk] = _max_singular_values(stack)
    return out


def frobenius_norm(a: np.ndarray) -> float:
    # Unused by hapkit; kept because the benchmark tracer wraps it by name.
    return float(np.linalg.norm(a))


def hermitian_residual(a: np.ndarray) -> float:
    """Operator-norm distance of ``a`` from its adjoint."""
    return spectral_norm(a - a.conj().T)


def hermitize(a: np.ndarray) -> np.ndarray:
    return (a + a.conj().T) / 2.0


def min_eigenvalue(a: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part of ``a``."""
    return float(np.linalg.eigvalsh(hermitize(a))[0])


def worst(values, default=0.0, *, key=float, lower: bool = False):
    """The item of ``values`` with the largest ``key`` (smallest if ``lower``).

    ``default`` seeds the scan and wins ties.  A NaN key is returned at once:
    Python's ``max`` and ``min`` drop a NaN that is not first, which would let
    a scan report a finite worst case for a non-finite block.
    """
    best, best_key = default, key(default)
    for item in values:
        k = key(item)
        if k != k:
            return item
        if k < best_key if lower else k > best_key:
            best, best_key = item, k
    return best


def expm_neg(a: np.ndarray, t: float) -> np.ndarray:
    """Evaluate exp(-t*a).

    Hermitian input (adjoint residual at most 1e-12 * max(1, ||a||)) goes
    through an eigendecomposition (exact up to the backward error of the
    eigensolver); anything else falls back to scaling-and-squaring.
    """
    a = np.asarray(a, dtype=np.complex128)
    scale = max(1.0, spectral_norm(a))
    if hermitian_residual(a) <= 1e-12 * scale:
        w, v = np.linalg.eigh(hermitize(a))
        return (v * np.exp(-t * w)) @ v.conj().T
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
