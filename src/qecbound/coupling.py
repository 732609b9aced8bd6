"""Pair amplitudes and the renormalized coupling of a coarse-grained logical qubit.

The table of third-order, trivial-syndrome logical errors is Pauli algebra
and lives in :mod:`qecbound.pauli` (re-exported here).  Each entry
(alpha, beta, i, j, k) deposits one excitation on site i through channel
alpha and a correlated pair on sites j, k through channel beta.  Contracting
the pair through the bath two-point function turns the entry into a
dimensionless amplitude a_{beta,jk} and the whole table into the effective
single-site coupling lambda*_alpha of the coarse-grained logical qubit.  The
lattice sums behind a_{beta,jk} are formed in :mod:`qecbound.bath` (_pair_sums).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .bath import ModeGrid, QubitLayout, _pair_sums
from .config import BathChannel
from .errors import ConfigError
from .pauli import CHANNEL_AXES, EtaEntry, EtaTable, enumerate_eta  # noqa: F401 - re-exported


@dataclass(frozen=True)
class AMatrix:
    """Pair amplitudes a_{alpha,ij} over the physical sites of one logical qubit.

    a_{alpha,ij} = (lambda_alpha * Delta)^2 * sum_{k != 0} |u_k|^2 exp(-i k.(x_i - x_j)),
    real by construction: the sum is even in k, so the phase is cos(k.(x_i - x_j)).
    """

    axis: str
    values: np.ndarray  # (n_sites, n_sites), symmetric, real

    def __getitem__(self, ij: tuple[int, int]) -> float:
        """Value for 1-based site pair (i, j)."""
        i, j = ij
        return float(self.values[i - 1, j - 1])


def a_matrix(grid: ModeGrid, layout: QubitLayout, channel: BathChannel, delta: float) -> AMatrix:
    """Pair-amplitude matrix for one logical qubit's physical sites: bath's lattice sums over
    the site offsets (_pair_sums, memoized on the grid) times (lambda * Delta)^2."""
    sums = _pair_sums(grid, layout.padded_offsets(grid.D))
    return AMatrix(channel.axis, (channel.lam * delta) ** 2 * sums)


@dataclass(frozen=True)
class EffectiveCoupling:
    """Renormalized per-channel coupling lambda*_alpha of a logical qubit."""

    lambda_star: Mapping[str, float]

    def __getitem__(self, axis: str) -> float:
        return self.lambda_star[axis]

    @property
    def max_value(self) -> float:
        """Largest |lambda*| over the channels (lambda* can be negative)."""
        return max(map(abs, self.lambda_star.values()), default=0.0)


def lambda_star(
    lambdas: Mapping[str, float],
    eta: EtaTable,
    a: Mapping[str, AMatrix],
) -> EffectiveCoupling:
    """lambda*_alpha = lambda_alpha * sum over table entries of a_{beta,jk}.

    The table stores each unordered pair once (j < k); the coefficient list
    contains no ordered duplicates, so each entry contributes a single
    a_{beta,jk} term.
    """
    values: dict[str, float] = {}
    for alpha, lam in lambdas.items():
        total = 0.0
        for entry in eta.for_alpha(alpha):
            if entry.beta not in a:
                raise ConfigError(
                    f"table entry needs channel '{entry.beta}' amplitudes, "
                    f"but only {sorted(a)} were provided"
                )
            if a[entry.beta].axis != entry.beta:
                raise ConfigError(
                    f"amplitude matrix labeled '{a[entry.beta].axis}' supplied "
                    f"for channel '{entry.beta}'"
                )
            total += a[entry.beta][entry.j, entry.k]
        values[alpha] = lam * total
    return EffectiveCoupling(values)
