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


def grid_modes(grid, ch):
    """(k, omega, |u|^2) of every mode of a dense grid, rebuilt from the stored n and -n.

    omega and |u|^2 come from |k| and the channel exponents, not from the grid's shell table.
    """
    n = np.concatenate([grid.n, -grid.n])
    norm = (2.0 * math.pi / grid.L) * np.sqrt(np.einsum("ij,ij->i", n, n).astype(float))
    return (2.0 * math.pi / grid.L) * n, norm**ch.z_exp, norm ** (2.0 * ch.s_exp)
