"""Trivial-syndrome uncorrectable-error table and the renormalized coupling.

A third-order error process deposits one excitation on a single site through
channel ``alpha`` and a correlated pair on two other sites through channel
``beta``.  The entries enumerated here are the (alpha, beta, i, j, k)
combinations for which the product sigma^alpha_i sigma^beta_j sigma^beta_k
commutes with every generator yet acts as a logical operator, i.e. the
lowest-order errors the code cannot see.  Site labels i, j, k are 1-based,
matching the documented generator convention in :func:`qecbound.pauli.five_qubit_code`.

Contracting the pair through the bath two-point function turns each entry
into a dimensionless amplitude a_{beta,jk} and the whole table into the
effective single-site coupling lambda*_alpha of the coarse-grained logical
qubit.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .bath import BathChannel, ModeGrid, QubitLayout, _phases, _separations
from .errors import ConfigError, DegenerateInputError, UnsupportedOrderError
from .pauli import ErrorClass, PauliString, StabilizerCode, classify, multiply, verify_distance

CHANNEL_AXES = ("x", "z")


@dataclass(frozen=True)
class EtaEntry:
    """One nonzero table coefficient; j < k, all site labels 1-based."""

    alpha: str
    beta: str
    i: int
    j: int
    k: int
    logical_type: ErrorClass

    def pauli(self, n: int) -> PauliString:
        """The operator sigma^alpha_i sigma^beta_j sigma^beta_k on n qubits."""
        letter = {"x": "X", "z": "Z"}
        p = PauliString.single(n, self.i - 1, letter[self.alpha])
        p = multiply(p, PauliString.single(n, self.j - 1, letter[self.beta]))
        return multiply(p, PauliString.single(n, self.k - 1, letter[self.beta]))


@dataclass(frozen=True)
class EtaTable:
    """All nonzero coefficients, sorted by (alpha, beta, i, j, k)."""

    entries: tuple[EtaEntry, ...]

    def for_alpha(self, alpha: str) -> tuple[EtaEntry, ...]:
        return tuple(e for e in self.entries if e.alpha == alpha)

    def index_set(self, alpha: str, beta: str) -> set[tuple[int, int, int]]:
        return {(e.i, e.j, e.k) for e in self.entries if e.alpha == alpha and e.beta == beta}

    def to_text(self) -> str:
        """Plain-text export: one row per entry, columns alpha beta i j k logical_type."""
        lines = ["alpha beta i j k logical_type"]
        for e in self.entries:
            lines.append(f"{e.alpha} {e.beta} {e.i} {e.j} {e.k} {e.logical_type.value}")
        return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=8)
def enumerate_eta(code: StabilizerCode) -> EtaTable:
    """Enumerate all trivial-syndrome logical-error triples of a distance-3 code.

    Scans channel pairs (alpha, beta) in {x,z}^2 and distinct sites
    (i; j < k), keeping products with zero syndrome that classify as
    logical: 10 entries for the 5-qubit code.  Memoized: the table depends on the code alone.
    """
    if not verify_distance(code, 3):
        raise UnsupportedOrderError(
            "third-order enumeration requires a distance-3 code"
        )
    sites = range(1, code.n + 1)
    entries = []
    for alpha, beta in itertools.product(CHANNEL_AXES, repeat=2):
        for i in sites:
            for j, k in itertools.combinations([s for s in sites if s != i], 2):
                entry = EtaEntry(alpha, beta, i, j, k, ErrorClass.DETECTABLE)
                cls = classify(code, entry.pauli(code.n))
                if cls.is_logical:
                    entries.append(EtaEntry(alpha, beta, i, j, k, cls))
    entries.sort(key=lambda e: (e.alpha, e.beta, e.i, e.j, e.k))
    return EtaTable(tuple(entries))


@dataclass(frozen=True)
class AMatrix:
    """Pair amplitudes a_{alpha,ij} over the physical sites of one logical qubit.

    a_{alpha,ij} = (lambda_alpha * Delta)^2 * sum_{k != 0} |u_k|^2 exp(-i k.(x_i - x_j)),
    real by construction: summed per +-k pair, the phase is cos(k.(x_i - x_j)).
    """

    axis: str
    values: np.ndarray  # (n_sites, n_sites), symmetric, real

    def __getitem__(self, ij: tuple[int, int]) -> float:
        """Value for 1-based site pair (i, j)."""
        i, j = ij
        return float(self.values[i - 1, j - 1])


def _pair_sums(grid: ModeGrid, positions: np.ndarray) -> np.ndarray:
    """sum_k |u_k|^2 cos(k.(x_i - x_j)) for every site pair (i, j), no coupling scale.

    Twice the sum over the +-k pairs of a dense grid: one cos pass per
    distinct separation.  Radial and malformed grids raise (see ModeGrid).
    """
    w = 2.0 * grid.u2[grid.shell_index]
    seps, _, index = _separations(positions)
    sums = [np.sum(w)] + [np.einsum("i,i->", w, np.cos(_phases(grid, d))) for d in seps[1:]]
    return np.array(sums)[index]  # separation 0 is the on-site sum


def a_matrix(grid: ModeGrid, layout: QubitLayout, channel: BathChannel, delta: float) -> AMatrix:
    """Pair-amplitude matrix for one logical qubit's physical sites.

    Each distinct site separation d (d and -d folded, d = 0 the on-site sum)
    costs one cos pass over the +-k pairs; a malformed hand-built grid
    raises ArithmeticError on every call.  The sums depend on the
    grid and the offsets alone, so they are memoized on the grid and only
    the (lambda * Delta)^2 scale is applied per call.
    """
    if grid.stored_count == 0:
        raise DegenerateInputError("mode grid is empty")
    positions = layout.padded_offsets(grid.D)
    sums = grid.memo("pair_sums", positions.tobytes(), lambda: _pair_sums(grid, positions))
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
