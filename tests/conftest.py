import math
import random

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
