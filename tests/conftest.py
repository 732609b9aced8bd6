import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qecbound import PauliString, five_qubit_code


@pytest.fixture(scope="session")
def code():
    return five_qubit_code()


def random_pauli(rng: random.Random, n: int, with_phase: bool = True) -> PauliString:
    return PauliString(
        n,
        tuple(rng.randint(0, 1) for _ in range(n)),
        tuple(rng.randint(0, 1) for _ in range(n)),
        rng.randint(0, 3) if with_phase else 0,
    )


_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_MATS = {"I": _I, "X": _X, "Y": _Y, "Z": _Z}


def pauli_matrix(p: PauliString) -> np.ndarray:
    """Independent dense-matrix realization of a PauliString."""
    out = np.array([[p.phase]], dtype=complex)
    for q in range(p.n):
        out = np.kron(out, _MATS[p.letter(q)])
    return out


def grid_modes(geom, ch):
    """(k, omega, |u|^2) of every mode of the (geom, ch) lattice, enumerated by brute force.

    Every nonzero integer vector n of the cube around the cutoff sphere is
    kept when |k| = (2 pi/L)|n| <= omega_c^(1/z_exp); nothing is read from a
    grid, so a grid's shell table and vectors are checked against this.
    """
    dk = 2.0 * math.pi / geom.L
    radius = geom.omega_c ** (1.0 / ch.z_exp) / dk
    side = np.arange(-int(radius) - 1, int(radius) + 2)
    n = np.stack(np.meshgrid(*[side] * geom.D, indexing="ij"), axis=-1).reshape(-1, geom.D)
    m2 = np.einsum("ij,ij->i", n, n)
    keep = (m2 > 0) & (m2 <= radius**2 * (1.0 + 1e-9))
    norm = dk * np.sqrt(m2[keep].astype(float))
    return dk * n[keep], norm**ch.z_exp, norm ** (2.0 * ch.s_exp)


ROOT = Path(__file__).resolve().parent.parent


def fresh_interpreter(code, timeout=120, **env):
    """Run code in a new interpreter with src on the path, from the repository root.

    Keyword arguments set environment variables; None unsets one.  A run
    longer than timeout seconds raises subprocess.TimeoutExpired.
    """
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, **env, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=ROOT,
                          env={k: v for k, v in env.items() if v is not None}, timeout=timeout)
