import contextlib
import importlib.util
import io
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import hapkit as hk
import oracles
from hapkit.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "fixtures"


def load_perfbench(name: str):
    """``perfbench/<name>.py`` executed from its file, which stays unchanged."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", REPO_ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.fixture
def rng():
    return np.random.default_rng(20240613)


def zdual_table(radius: int) -> hk.IrrepTable:
    return hk.dual_irrep_table(hk.GroupSpec((0,)), radius)


def zdual_label(table: hk.IrrepTable, n: int) -> hk.IrrepLabel:
    return table.decode("e" if n == 0 else f"a^{n}")


def label_value(table: hk.IrrepTable, label: hk.IrrepLabel) -> int:
    enc = table.encode(label)
    return 0 if enc == "e" else int(enc.split("^")[1])


def diam3_residual(phi1, phi2, omega1, omega2, wp) -> float:
    """How far convolving two conditionally free products is from the product of
    the factorwise convolutions; (A x B)(C x D) = AC x BD makes it exact up to rounding."""
    lhs = hk.convolve(hk.cfree_state(phi1, phi2, wp), hk.cfree_state(omega1, omega2, wp))
    rhs = hk.cfree_state(hk.convolve(phi1, omega1), hk.convolve(phi2, omega2), wp)
    return oracles.max_block_deviation(lhs, rhs)


def norm_at(F, label) -> float:
    """The spectral norm of the block at ``label``, read off the cached norms."""
    return float(F.norms[F.labels.index(label)])


def sup_norm(B) -> float:
    """The largest block norm of a block map, 0 without blocks, NaN if any is."""
    return float(np.max(B.norms, initial=0.0))


def zdual_family(table, fn, normalized=True) -> hk.MatrixFamily:
    """Scalar family on an integer-dual table: block [fn(n)] at label n."""
    blocks = {lab: [[complex(fn(label_value(table, lab)))]] for lab in table.labels}
    return hk.MatrixFamily(table, blocks, normalized=normalized)


def random_hermitian(rng, dim: int, norm: float) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (a + a.conj().T) / 2
    top = np.linalg.norm(h, 2)
    return h if top == 0 else h * (norm / top)


def random_psd(rng, dim: int, norm: float) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    g = a.conj().T @ a
    top = np.linalg.norm(g, 2)
    return g if top == 0 else g * (norm / top)


def random_table(rng, n_labels: int, max_dim: int) -> hk.IrrepTable:
    entries = [(f"r{i:02d}", int(rng.integers(1, max_dim + 1))) for i in range(n_labels - 1)]
    return hk.make_table(entries)


def random_psd_generator(rng, table, max_norm: float) -> hk.GeneratingFunctional:
    blocks = {}
    for lab in table.labels:
        if lab == table.trivial:
            continue
        blocks[lab] = random_psd(rng, table.dim(lab), float(rng.uniform(0.1, max_norm)))
    return hk.GeneratingFunctional(table, blocks)


def run_cli_subprocess(*argv, cwd=None, env=None) -> subprocess.CompletedProcess:
    """Real process run: used where the process-level contract itself is under test.
    ``env`` adds to (or overrides) this process's environment."""
    return subprocess.run(
        [sys.executable, "-m", "hapkit", *map(str, argv)],
        capture_output=True, cwd=cwd or REPO_ROOT, env={**os.environ, **(env or {})},
    )


def run_cli(*argv) -> SimpleNamespace:
    """In-process run of the CLI entry point (fast path for most tests)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main([str(a) for a in argv])
    return SimpleNamespace(returncode=code,
                           stdout=out.getvalue().encode(),
                           stderr=err.getvalue().encode())
