"""Discrete bosonic-bath mode grids and the spectral sums built on them.

Units are dimensionless throughout: the reference frequency, reference
momentum and coupling-normalization momentum are all 1, so times are
measured in inverse reference frequencies and lengths in inverse reference
momenta.  A channel has dispersion omega(k) = |k|**z_exp and coupling weight
|u_k|**2 = |k|**(2*s_exp); modes live on the momentum lattice k = (2*pi/L)*n
for nonzero integer vectors n, cut off at omega <= omega_c.

Dispersion and coupling weight depend only on |k|, so the modes group into
shells, one per distinct |n|**2, and every sum here is even in k.  A grid is
therefore a shell table: omega, |u|**2 and the mode count of each shell.  A
dense grid adds one integer vector per +-k pair, which the position sums
need for cos(k.d); a radial grid stores the table alone and supports only
isotropic sums, but stays small even for 3-dimensional baths with tens of
millions of modes.  Every time-dependent sum bins its static weights into
shells once and then costs one cos (and one sin for an imaginary part) per
shell and time point.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Hashable, Iterable, Iterator, Sequence

import numpy as np

from .errors import CapabilityError, DegenerateInputError, DimensionError

DEFAULT_MODE_BUDGET = 10_000_000
_MEMO_ENTRIES = 8


@dataclass(frozen=True)
class BathChannel:
    """One decoherence channel: axis label, exponents, bare coupling."""

    axis: str
    z_exp: float
    s_exp: float
    lam: float

    def __post_init__(self) -> None:
        if self.axis not in ("x", "z"):
            raise ValueError(f"channel axis must be 'x' or 'z', got {self.axis!r}")
        if self.z_exp <= 0:
            raise ValueError("dynamical exponent z_exp must be positive")
        if self.lam < 0:
            raise ValueError("bare coupling must be non-negative")


@dataclass(frozen=True)
class BathGeometry:
    """Spatial dimension, linear size and UV frequency cutoff of the bath."""

    D: int
    L: float
    omega_c: float

    def __post_init__(self) -> None:
        if self.D not in (1, 2, 3):
            raise ValueError("bath dimension D must be 1, 2 or 3")
        if self.L <= 0:
            raise ValueError("bath size L must be positive")
        if self.omega_c <= 0:
            raise ValueError("cutoff omega_c must be positive")


@dataclass(eq=False)
class ModeGrid:
    """Momentum lattice of one channel spectrum: a shell table, and +-k pair vectors if dense.

    omega, u2 and weight are per shell, one entry per distinct |n|^2 in
    increasing order; weight is the number of modes in the shell.  A dense
    grid also stores n, one integer vector per +-k pair (k = (2*pi/L)*n):
    the lexicographically negative one, in lexicographic order.  Every sum
    is even in k, so a pair stands for both of its modes; a radial grid
    (n None) serves only the isotropic sums.  A hand-built dense grid is
    checked once, by shell_index: each stored n must be lexicographically
    negative and twice the pair count of each shell must equal its weight.
    A grid failing this raises ArithmeticError on every position sum.

    A grid reads only the geometry, the exponents (z_exp, s_exp) and the
    mode budget, never the channel axis or coupling.  build_mode_grid and
    build_radial_mode_grid return one shared instance per such key and keep
    the two most recently built alive, which covers both channels of one
    configuration; their arrays are read-only.  Everything derived from the
    grid alone is computed once per instance: the shell index and per-shell
    damping (cached properties), and through :meth:`memo` the register
    weights of the 8 most recent position sets (w_sum), the unscaled pair
    sums of the 8 most recent offset sets (a_matrix) and the latest numeric
    single-qubit bound per (inputs, lambda*).
    """

    D: int
    L: float
    omega: np.ndarray
    u2: np.ndarray
    weight: np.ndarray
    n: np.ndarray | None = field(default=None, repr=False)
    _memo: dict[str, OrderedDict] = field(default_factory=dict, init=False, repr=False)
    _memo_lock: threading.Lock = field(default_factory=threading.Lock, init=False, repr=False)

    def memo(
        self, kind: str, key: Hashable, compute: Callable[[], Any], entries: int = _MEMO_ENTRIES
    ) -> Any:
        """compute(), memoized on this grid under (kind, key).

        Each kind keeps its `entries` most recently used results.  compute
        runs outside the lock, so two threads may both compute a missing
        entry; both get an equal value.
        """
        with self._memo_lock:
            cache = self._memo.setdefault(kind, OrderedDict())
            if key in cache:
                cache.move_to_end(key)
                return cache[key]
        value = compute()
        with self._memo_lock:
            cache[key] = value
            while len(cache) > entries:
                cache.popitem(last=False)
        return value

    @property
    def prefactor(self) -> float:
        return (2.0 * math.pi / self.L) ** self.D

    @property
    def stored_count(self) -> int:
        """Number of stored records: +-k pairs (dense) or shells (radial)."""
        return len(self.omega if self.n is None else self.n)

    @property
    def mode_count(self) -> int:
        """Number of lattice modes represented (multiplicities included)."""
        return int(round(float(np.sum(self.weight))))

    @property
    def is_radial(self) -> bool:
        return self.n is None

    def _dense_n(self) -> np.ndarray:
        if self.n is None:
            raise CapabilityError("radial grid does not store mode vectors; build a dense "
                                  "grid for position-dependent sums")
        return self.n

    @cached_property
    def shell_index(self) -> np.ndarray:
        """Shell of each stored +-k pair of a dense grid; raises on every access unless valid.

        Shells number the distinct |n|^2 in increasing order, looked up in
        a table over |n| (D = 1) or |n|^2 (D >= 2); no sort is needed.
        """
        n = self._dense_n()
        key = np.abs(n[:, 0]) if self.D == 1 else np.einsum("ij,ij->i", n, n)
        present = np.zeros(int(key.max(initial=0)) + 1, dtype=bool)
        present[key] = True
        index = np.cumsum(present, dtype=np.int32)[key]
        index -= 1
        leading = n[np.arange(len(n)), np.argmax(n != 0, axis=1)]  # first nonzero component
        if np.any(leading >= 0) or not np.array_equal(2 * np.bincount(index), self.weight):
            raise ArithmeticError("grid is not a +-k pair table: every stored n must be "
                                  "lexicographically negative, with weight = 2 * pairs per shell")
        return index

    def _shell_weights(self, values: np.ndarray) -> np.ndarray:
        """2 * |u|^2 / omega^2 * values summed per shell; values are per +-k pair.

        |u|^2 / omega^2 is constant on a shell, so it multiplies the binned
        values and no pair-sized damping array is formed.
        """
        bins = np.bincount(self.shell_index, weights=values, minlength=len(self.omega))
        return 2.0 * self.u2 / self.omega**2 * bins

    @cached_property
    def shell_damping(self) -> np.ndarray:
        """weight * |u|^2 / omega^2 per shell."""
        return self.u2 / self.omega**2 * self.weight

    @property
    def static_sum(self) -> float:
        """sum over modes of |u|^2 / omega^2 (no lattice prefactor)."""
        return float(np.sum(self.shell_damping))


def _isqrt_exact(values: np.ndarray) -> np.ndarray:
    """Elementwise integer sqrt of non-negative int64 values, exact."""
    r = np.sqrt(values).astype(np.int64)
    r += (r + 1) * (r + 1) <= values
    r -= r * r > values
    return r


def _lattice_extent(geom: BathGeometry, z_exp: float) -> int:
    """m2max: the largest |n|^2 passing the frequency cutoff."""
    k_c = geom.omega_c ** (1.0 / z_exp)
    dk = 2.0 * math.pi / geom.L
    # tiny relative slack so k = k_c lands inside despite rounding
    n_max = int(math.floor(k_c / dk * (1.0 + 1e-12)))
    if n_max < 1:
        raise DegenerateInputError(
            f"cutoff omega_c={geom.omega_c} lies below the smallest mode "
            f"frequency for L={geom.L}; the grid would be empty"
        )
    return n_max * n_max


def _slabs(D: int, m2max: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The ball |n|^2 <= m2max, origin included, as runs along the last axis.

    Yields (lead, half) per slab: row j of lead holds the leading D - 1
    coordinates of one run, n_D = -half[j] ... half[j].  Each run of the
    (D - 1)-dimensional ball leads one slab, so D <= 2 is a single slab and
    D = 3 has one per n_1; all in lexicographic order.
    """
    if D == 1:
        leads: Iterable[np.ndarray] = [np.zeros((1, 0), dtype=np.int64)]
    else:
        leads = (
            np.column_stack((np.tile(row, (2 * h + 1, 1)), np.arange(-h, h + 1)))
            for lead, half in _slabs(D - 1, m2max)
            for row, h in zip(lead, half)
        )
    for lead in leads:
        yield lead, _isqrt_exact(m2max - np.einsum("ij,ij->i", lead, lead))


def _runs(half: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(run lengths, n_D of every point) for the runs n_D = -half[j] ... half[j], run after run."""
    runs = 2 * half + 1
    centre = np.cumsum(runs) - half - 1  # offset of each run's n_D = 0
    return runs, np.arange(int(runs.sum()), dtype=np.int64) - np.repeat(centre, runs)


def _dense_vectors(slabs: list, count: int) -> np.ndarray:
    """The first count integer vectors in the slabs of _slabs, in lexicographic order.

    Half the nonzero vectors are the ones before the origin: one per +-k
    pair, the lexicographically negative one.  Built one slab at a time into
    a pre-sized array: the leading columns repeat each run's row, the last
    column counts along the run.
    """
    out = np.empty((count, slabs[0][0].shape[1] + 1), dtype=np.int64, order="F")
    pos = 0
    for lead, half in slabs:
        runs, last = _runs(half)
        take = min(len(last), count - pos)
        for j, column in enumerate([np.repeat(c, runs) for c in lead.T] + [last]):
            out[pos : pos + take, j] = column[:take]
        pos += take
        if pos == count:
            break
    return out


def _radial_counts(slabs: list, m2max: int) -> tuple[np.ndarray, np.ndarray]:
    """(values of |n|^2, multiplicities) over the nonzero integer vectors in the slabs.

    D = 1 is closed form: shell |n| holds +n and -n.  For D >= 2 each slab
    adds its points to one count table over |n|^2 <= m2max.
    """
    if slabs[0][0].shape[1] == 0:  # D = 1
        n_max = math.isqrt(m2max)
        r = np.arange(1, n_max + 1, dtype=np.int64)
        return r * r, np.full(n_max, 2, dtype=np.int64)
    counts = np.zeros(m2max + 1, dtype=np.int64)
    for lead, half in slabs:
        runs, last = _runs(half)
        m2 = np.repeat(np.einsum("ij,ij->i", lead, lead), runs) + last * last
        counts += np.bincount(m2, minlength=m2max + 1)  # O(modes) over all slabs
    counts[0] -= 1  # origin excluded
    idx = np.flatnonzero(counts)
    return idx, counts[idx]


@functools.lru_cache(maxsize=2)
def _shared_grid(
    geom: BathGeometry, z_exp: float, s_exp: float, max_modes: int, radial: bool
) -> ModeGrid:
    """The grid of one spectrum, keyed by exactly what it reads.

    Two entries hold both channels of one configuration, so at most one
    configuration's grids outlive their use.  The arrays are made read-only
    because every caller with this key shares them.
    """
    m2max = _lattice_extent(geom, z_exp)
    slabs, count = [], -1  # one walk: the count for the budget, the slabs while within it
    for slab in _slabs(geom.D, m2max):
        count += int(np.sum(2 * slab[1] + 1))
        if count <= max_modes:
            slabs.append(slab)
    if count > max_modes:
        raise CapabilityError(
            f"grid for (L={geom.L}, omega_c={geom.omega_c}) needs {count} modes, "
            f"exceeding the budget of {max_modes}"
        )
    m2, counts = _radial_counts(slabs, m2max)
    k = (2.0 * math.pi / geom.L) * np.sqrt(m2.astype(np.float64))
    n = None if radial else _dense_vectors(slabs, count // 2)
    grid = ModeGrid(D=geom.D, L=geom.L, omega=k**z_exp, u2=k ** (2.0 * s_exp),
                    weight=counts.astype(np.float64), n=n)
    for array in (grid.omega, grid.u2, grid.weight, grid.n):
        if array is not None:
            array.flags.writeable = False
    return grid


def build_mode_grid(
    geom: BathGeometry, ch: BathChannel, max_modes: int = DEFAULT_MODE_BUDGET
) -> ModeGrid:
    """Dense grid: the shell table of the modes with omega(|k|) <= omega_c, and one n per +-k pair.

    Channels with equal exponents get the same instance (see ModeGrid).
    """
    return _shared_grid(geom, ch.z_exp, ch.s_exp, max_modes, False)


def build_radial_mode_grid(
    geom: BathGeometry, ch: BathChannel, max_modes: int = DEFAULT_MODE_BUDGET
) -> ModeGrid:
    """Radial grid: the dense grid's shell table without the vectors.

    Shared like the dense grid (see ModeGrid).
    """
    return _shared_grid(geom, ch.z_exp, ch.s_exp, max_modes, True)


# -- spectral sums -----------------------------------------------------------
#
# Every time-dependent sum has the form sum_k w_k (1 - e^{i omega_k T}) with
# static weights w_k.  omega is constant on a shell, so the weights are binned
# into shells once and each time point costs O(shells).


def _oscillating_sum(grid: ModeGrid, weights: np.ndarray, T: float, imag: bool = True) -> complex:
    """sum over shells of weights * (1 - e^{i omega T}), no prefactor.

    The real part is sum weights * (1 - cos omega T), the imaginary part
    -sum weights * sin omega T (skipped when imag is False).
    """
    x = grid.omega * T
    # einsum, not np.dot: a threaded BLAS dot keeps its idle threads spinning (~2x CPU)
    im = -float(np.einsum("i,i->", weights, np.sin(x))) if imag else 0.0
    re = float(np.einsum("i,i->", weights, np.subtract(1.0, np.cos(x, out=x), out=x)))
    return complex(re, im)


def gamma(grid: ModeGrid, lambda_star: float, T: float) -> float:
    """Dephasing decoherence function.

    gamma(T) = (2*pi/L)^D * lambda_star^2 * sum_k (|u_k|^2/omega_k^2) * (1 - cos(omega_k T)).

    Non-negative and bounded by twice the static sum.
    """
    if T < 0:
        raise ValueError("time must be non-negative")
    osc = _oscillating_sum(grid, grid.shell_damping, T, imag=False).real
    return grid.prefactor * lambda_star**2 * osc


def gamma_infinity(grid: ModeGrid, lambda_star: float) -> float:
    """Long-time mean of gamma: the static sum with the oscillatory term dropped."""
    return grid.prefactor * lambda_star**2 * grid.static_sum


def w_pair(grid: ModeGrid, x: Sequence[float], y: Sequence[float], T: float) -> complex:
    """Pair correlation sum between positions x and y.

    W_{x,y}(T) = (2*pi/L)^D * sum_k (|u_k|^2/omega_k^2) e^{-i k.(x-y)} (1 - e^{i omega_k T}).

    Symmetric under x <-> y; complex in general (the x = y imaginary part is
    -prefactor * sum (|u|^2/omega^2) sin(omega T)).  For x != y the sum runs
    over the +-k pairs of a dense grid, so e^{-i k.(x-y)} is cos(k.(x-y)) exactly.
    """
    if T < 0:
        raise ValueError("time must be non-negative")
    d = np.atleast_1d(np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64))
    if d.shape != (grid.D,):
        raise DimensionError(f"positions must have dimension {grid.D}")
    if np.any(d):
        weights = grid._shell_weights(np.cos(_phases(grid, d)))
    else:
        weights = grid.shell_damping
    return grid.prefactor * _oscillating_sum(grid, weights, T)


def _separations(pos: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct separations of the position pairs i < j, d and -d folded.

    Returns (seps, mult, index): seps[0] = 0, then each new separation as
    its first pair's difference; mult[s] counts the pairs i < j at +-seps[s]
    (mult[0] the coincident ones); index[i, j] = index[j, i] is the pair's
    separation, 0 on the diagonal.  Differences that agree to 1e-12 of the
    largest coordinate are one separation, so rounding does not split them.
    """
    n, D = pos.shape
    i, j = np.triu_indices(n, 1)  # the pairs i < j, row by row
    diff = pos[i] - pos[j]
    quanta = np.rint(diff / (1e-12 * max(1.0, float(np.abs(pos).max()))))
    keys, seps = {(0.0,) * D: 0}, [np.zeros(D)]
    index = np.zeros((n, n), dtype=np.intp)
    for a, b, d, q in zip(i, j, diff, quanta):
        index[a, b] = index[b, a] = keys.setdefault(max(tuple(q), tuple(-q)), len(keys))
        if len(keys) > len(seps):
            seps.append(d)
    return np.array(seps), np.bincount(index[i, j], minlength=len(seps)), index


def _phases(grid: ModeGrid, d: np.ndarray) -> np.ndarray:
    """k.d per +-k pair, d != 0: a multiply-add per nonzero d_j over column j of n."""
    n, scale = grid._dense_n(), (2.0 * math.pi / grid.L) * d
    first, *rest = np.flatnonzero(d)
    phase = n[:, first] * scale[first]
    for j in rest:
        phase += n[:, j] * scale[j]
    return phase


def _structure_factor(grid: ModeGrid, pos: np.ndarray) -> np.ndarray:
    """|sum_x e^{i k.x}|^2 per +-k pair of a dense grid, in separation form.

    The square is N + 2 sum_d m_d cos(k.d) over the distinct separations d
    of the pairs x < y (see _separations), which is real and exact for any
    positions; coincident pairs add the constant 2 m_0.  It is even in k,
    so one value stands for both modes of a pair.
    """
    seps, mult, _ = _separations(pos)
    total = np.full(len(grid._dense_n()), len(pos) + 2.0 * mult[0])
    for d, m in zip(seps[1:], mult[1:]):
        phase = _phases(grid, d)
        total += np.multiply(np.cos(phase, out=phase), 2.0 * m, out=phase)
    return total


def w_sum(grid: ModeGrid, positions: np.ndarray, T: float) -> complex:
    """Double sum of w_pair over all ordered position pairs, diagonal included.

    Evaluated through the register structure factor: the pair double sum
    collapses to sum_k (|u|^2/omega^2) |sum_x e^{i k.x}|^2 (1 - e^{i omega T}),
    algebraically identical to summing w_pair over all pairs.
    """
    if T < 0:
        raise ValueError("time must be non-negative")
    pos = np.asarray(positions, dtype=np.float64)
    if pos.ndim == 1:
        pos = pos[:, None]
    if pos.shape[1] != grid.D:
        raise DimensionError(f"positions must have dimension {grid.D}")
    weights = grid.memo(  # T-independent, so a time series over one register reuses it
        "register", pos.tobytes(), lambda: grid._shell_weights(_structure_factor(grid, pos))
    )
    return grid.prefactor * _oscillating_sum(grid, weights, T)


# -- qubit geometry ----------------------------------------------------------


def lattice_sites(count: int, dims: int) -> np.ndarray:
    """First `count` sites of a unit-spacing dims-dimensional lattice, centered.

    Sites are taken in lexicographic order from a cube just large enough to
    hold them, then shifted to zero centroid.  dims = 0 collapses everything
    to a single point.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if dims == 0:
        return np.zeros((count, 1))
    side = 1
    while side**dims < count:
        side += 1
    sites = np.array(
        list(itertools.islice(itertools.product(range(side), repeat=dims), count)),
        dtype=np.float64,
    )
    return sites - sites.mean(axis=0)


@dataclass(eq=False)
class QubitLayout:
    """Positions of logical qubits and of the physical sites inside one.

    Offsets and positions are stored with D_x columns; pad to the bath
    dimension with :meth:`padded_logical_positions` / :meth:`padded_offsets`.
    """

    logical_positions: np.ndarray  # (n_logical, max(D_x, 1))
    physical_offsets: np.ndarray  # (n_physical, max(D_x, 1))
    xi: float
    Xi: float
    D_x: int

    def __post_init__(self) -> None:
        self.logical_positions = np.atleast_2d(np.asarray(self.logical_positions, dtype=np.float64))
        self.physical_offsets = np.atleast_2d(np.asarray(self.physical_offsets, dtype=np.float64))
        if self.D_x < 0:
            raise ValueError("array dimension D_x must be non-negative")
        if math.isfinite(self.xi) and math.isfinite(self.Xi) and 10.0 * self.xi > self.Xi:
            warnings.warn(
                f"intra-logical spacing xi={self.xi} is not small against "
                f"inter-logical spacing Xi={self.Xi}; corrections dropped by the "
                "coarse graining may be sizable",
                stacklevel=2,
            )

    @property
    def n_logical(self) -> int:
        return self.logical_positions.shape[0]

    def _pad(self, arr: np.ndarray, D: int) -> np.ndarray:
        if arr.shape[1] > D:
            raise DimensionError(
                f"layout dimension {arr.shape[1]} exceeds bath dimension {D}"
            )
        if arr.shape[1] == D:
            return arr
        out = np.zeros((arr.shape[0], D))
        out[:, : arr.shape[1]] = arr
        return out

    def padded_logical_positions(self, D: int) -> np.ndarray:
        return self._pad(self.logical_positions, D)

    def padded_offsets(self, D: int) -> np.ndarray:
        return self._pad(self.physical_offsets, D)


def regular_layout(
    n_logical: int, Xi: float, D_x: int, xi: float, n_physical: int = 5
) -> QubitLayout:
    """Default geometry: regular lattices at both scales.

    Logical qubits fill a D_x-dimensional lattice with spacing Xi; the
    physical sites of each logical qubit fill a centered D_x-dimensional
    lattice with spacing xi.
    """
    return QubitLayout(
        logical_positions=lattice_sites(n_logical, D_x) * Xi,
        physical_offsets=lattice_sites(n_physical, D_x) * xi,
        xi=xi,
        Xi=Xi,
        D_x=D_x,
    )
