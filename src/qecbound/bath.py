"""Discrete bosonic-bath mode grids and the spectral sums built on them.

Units are dimensionless throughout: the reference frequency, reference
momentum and coupling-normalization momentum are all 1, so times are
measured in inverse reference frequencies and lengths in inverse reference
momenta.  A channel has dispersion omega(k) = |k|**z_exp and coupling weight
|u_k|**2 = |k|**(2*s_exp); modes live on the momentum lattice k = (2*pi/L)*n
for nonzero integer vectors n, cut off at omega <= omega_c.

Dispersion and coupling weight depend only on |k|, so the modes group into
shells, one per distinct |n|**2, and every sum here is even in k.  A grid is
therefore a shell table: omega, |u|**2 and the mode count of each shell.  On
D = 1 shell j is the one +-k pair n = +-(j + 1), and the table serves every
sum.  For D >= 2 a dense grid adds one integer vector per pair, which the
position sums need for cos(k.d); a radial grid stores the table alone and
supports only isotropic sums, but stays small even for 3-dimensional baths
with tens of millions of modes.  Every time-dependent sum bins its static
weights into shells once and then costs one cos (and one sin for an
imaginary part) per shell and time point; on D = 1 with z_exp = 1 the shell
frequencies are the harmonics j * 2*pi/L, and O(sqrt(shells)) calls suffice.
Every position sum makes one cos pass per distinct separation d, summing
cos(k.d) per shell (_shell_cos), except the structure factor of w_sum on a
D >= 2 product layout (every combination of per-axis coordinates, as a
regular array of side**D_x qubits is): a product of per-axis factors, each
tabulated over the integer values of n_a and gathered per pair.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Hashable, Iterable, Iterator, Sequence

import numpy as np

from .config import BathChannel, BathGeometry
from .errors import CapabilityError, DegenerateInputError, DimensionError

DEFAULT_MODE_BUDGET = 10_000_000
_MEMO_ENTRIES = 8
_NOT_A_PAIR_TABLE = ("grid is not a +-k pair table: every stored n must be lexicographically "
                     "negative, with weight = 2 * pairs per shell (2 per shell on D = 1)")


@dataclass(eq=False)
class ModeGrid:
    """Momentum lattice of one channel spectrum: a shell table, and pair vectors if D >= 2 dense.

    omega, u2 and weight are per shell, one entry per distinct |n|^2 in
    increasing order; weight is the number of modes in the shell.  Every sum
    is even in k, so a +-k pair stands for both of its modes.  On D = 1 shell
    j is the pair n = +-(j + 1).  A D >= 2 dense grid also stores n, one
    integer vector per pair (k = (2*pi/L)*n): the lexicographically negative
    one, in lexicographic order.  is_radial means n is None: every D = 1 grid,
    which serves every sum, and a D >= 2 radial grid, which serves only the
    isotropic ones.  Position sums check a hand-built grid: each D = 1 weight
    must be 2; on D >= 2 shell_index checks once that each stored n is
    lexicographically negative and that twice the pair count of each shell is
    its weight.  A grid failing this raises ArithmeticError on every position sum.

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

    @cached_property
    def shell_index(self) -> np.ndarray:
        """Shell of each +-k pair of a D >= 2 dense grid; raises on every access unless valid.

        Shells number the distinct |n|^2 in increasing order, looked up in
        a table over |n|^2; no sort is needed.
        """
        n = self.n
        if n is None:
            raise CapabilityError("radial grid does not store mode vectors; build a dense "
                                  "grid for position-dependent sums")
        key = np.einsum("ij,ij->i", n, n)
        present = np.zeros(int(key.max(initial=0)) + 1, dtype=bool)
        present[key] = True
        index = np.cumsum(present, dtype=np.int32)[key]
        index -= 1
        leading = n[np.arange(len(n)), np.argmax(n != 0, axis=1)]  # first nonzero component
        if np.any(leading >= 0) or not np.array_equal(2 * np.bincount(index), self.weight):
            raise ArithmeticError(_NOT_A_PAIR_TABLE)
        return index

    @property
    def shell_damping(self) -> np.ndarray:
        """weight * |u|^2 / omega^2 per shell."""
        return self._damping_table[0]

    @cached_property
    def fundamental(self) -> float | None:
        """omega_1 if shell j has omega bitwise j * omega_1 (any D = 1, z = 1 grid), else None."""
        harmonics = self.omega[0] * np.arange(1, len(self.omega) + 1)
        return float(self.omega[0]) if np.array_equal(self.omega, harmonics) else None

    @cached_property
    def _damping_table(self) -> tuple:
        return _shell_table(self, self.u2 / self.omega**2 * self.weight)

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

    Channels with equal exponents get the same instance (see ModeGrid); on
    D = 1 it is the radial grid, which serves every sum there.
    """
    return _shared_grid(geom, ch.z_exp, ch.s_exp, max_modes, geom.D == 1)


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
# into shells once and each time point costs a cos and a sin per shell, or
# O(sqrt(shells)) of them where omega_j = j * omega_1 (ModeGrid.fundamental).


def _shell_table(grid: ModeGrid, weights: np.ndarray) -> tuple:
    """(weights, None, None), or on a harmonic grid (weights, block, column sums of block).

    Shell j = q*R + r of S sits at block[q, r], R = isqrt(S) + 1 >= sqrt(S + 1),
    and block is 0 elsewhere; the weights returned are a view of block.
    """
    if grid.fundamental is None:
        return weights, None, None
    R = math.isqrt(len(weights)) + 1
    flat = np.concatenate(([0.0], weights, np.zeros(-(len(weights) + 1) % R)))
    block = flat.reshape(-1, R)
    return flat[1 : len(weights) + 1], block, block.sum(axis=0)


def _oscillating_sum(grid: ModeGrid, table: tuple, T: float, imag: bool = True) -> complex:
    """sum over shells of weights * (1 - e^{i omega T}), no prefactor; table from _shell_table.

    The real part is sum weights * (1 - cos omega T), formed as the versine
    2 sin^2(omega T / 2), which keeps its relative accuracy where omega T is
    small; the imaginary part is -sum weights * sin omega T (skipped when
    imag is False).  On a harmonic grid
    shell j = q*R + r has phase a + b (a = omega_{q*R} T, b = omega_r T), so one
    contraction of block with (cos b, sin b) gives 1 - cos(a + b) = vers b +
    cos b vers a + sin b sin a, vers x = 2 sin^2(x/2), and sin(a + b) = cos b sin a + sin b cos a.
    """
    weights, block, column_sums = table
    # einsum, not np.dot or @: a threaded BLAS keeps its idle threads spinning (~2x CPU)
    if block is None:
        x = grid.omega * T
        im = -float(np.einsum("i,i->", weights, np.sin(x))) if imag else 0.0
        re = float(np.einsum("i,i->", weights, 2.0 * np.sin(0.5 * x) ** 2))
        return complex(re, im)
    R = block.shape[1]  # a, b from the stored omega of shells q*R and r, rounded as omega * T is
    a = np.concatenate(([0.0], grid.omega[R - 1 :: R])) * T
    b = np.concatenate(([0.0], grid.omega[: R - 1])) * T
    cos_sin_b = np.einsum("qr,kr->kq", block, [np.cos(b), np.sin(b)])
    sin_a = np.sin(a)
    re = np.einsum("r,r->", column_sums, 2.0 * np.sin(0.5 * b) ** 2) + np.einsum(
        "kq,kq->", [2.0 * np.sin(0.5 * a) ** 2, sin_a], cos_sin_b)
    im = -np.einsum("kq,kq->", [sin_a, np.cos(a)], cos_sin_b) if imag else 0.0
    return complex(float(re), float(im))


def gamma(grid: ModeGrid, lambda_star: float, T: float) -> float:
    """Dephasing decoherence function.

    gamma(T) = (2*pi/L)^D * lambda_star^2 * sum_k (|u_k|^2/omega_k^2) * (1 - cos(omega_k T)).

    Non-negative and bounded by twice the static sum.
    """
    if T < 0:
        raise ValueError("time must be non-negative")
    osc = _oscillating_sum(grid, grid._damping_table, T, imag=False).real
    return grid.prefactor * lambda_star**2 * osc


def gamma_infinity(grid: ModeGrid, lambda_star: float) -> float:
    """Long-time mean of gamma: the static sum with the oscillatory term dropped."""
    return grid.prefactor * lambda_star**2 * grid.static_sum


def w_pair(grid: ModeGrid, x: Sequence[float], y: Sequence[float], T: float) -> complex:
    """Pair correlation sum between positions x and y.

    W_{x,y}(T) = (2*pi/L)^D * sum_k (|u_k|^2/omega_k^2) e^{-i k.(x-y)} (1 - e^{i omega_k T}).

    Symmetric under x <-> y; complex in general (the x = y imaginary part is
    -prefactor * sum (|u|^2/omega^2) sin(omega T)).  For x != y the sum runs
    over the +-k pairs (see _shell_cos), so e^{-i k.(x-y)} is cos(k.(x-y)) exactly.
    """
    if T < 0:
        raise ValueError("time must be non-negative")
    d = np.atleast_1d(np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64))
    if d.shape != (grid.D,):
        raise DimensionError(f"positions must have dimension {grid.D}")
    if np.any(d):
        table = _shell_table(grid, 2.0 * grid.u2 / grid.omega**2 * _shell_cos(grid, d))
    else:
        table = grid._damping_table
    return grid.prefactor * _oscillating_sum(grid, table, T)


def _quanta(values: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """values in units of 1e-12 of pos's largest coordinate, rounded: equal quanta are one value."""
    return np.rint(values / (1e-12 * max(1.0, float(np.abs(pos).max()))))


def _separations(pos: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct separations of the position pairs i < j, d and -d folded.

    Returns (seps, mult, index): seps[0] = 0, then each new separation as
    its first pair's difference; mult[s] counts the pairs i < j at +-seps[s]
    (mult[0] the coincident ones); index[i, j] = index[j, i] is the pair's
    separation, 0 on the diagonal.  Differences that agree to 1e-12 of the
    largest coordinate are one separation, so rounding does not split them.
    The tables of the 8 most recent position sets are kept, read-only: a
    sweep that rebuilds the grid keeps its offsets.
    """
    pos = np.ascontiguousarray(pos, dtype=np.float64)
    return _separation_table(pos.tobytes(), pos.shape)


@functools.lru_cache(maxsize=_MEMO_ENTRIES)
def _separation_table(data: bytes, shape: tuple[int, ...]) -> tuple:
    pos = np.frombuffer(data).reshape(shape)
    n, D = shape
    i, j = np.triu_indices(n, 1)  # the pairs i < j, row by row
    diff = pos[i] - pos[j]
    keys, seps = {(0.0,) * D: 0}, [np.zeros(D)]
    index = np.zeros((n, n), dtype=np.intp)
    for a, b, d, q in zip(i, j, diff, _quanta(diff, pos)):
        index[a, b] = index[b, a] = keys.setdefault(max(tuple(q), tuple(-q)), len(keys))
        if len(keys) > len(seps):
            seps.append(d)
    table = np.array(seps), np.bincount(index[i, j], minlength=len(seps)), index
    for array in table:
        array.flags.writeable = False
    return table


def _shell_cos(grid: ModeGrid, d: np.ndarray) -> np.ndarray:
    """Per shell, cos(k.d) summed over the shell's +-k pairs; d = 0 gives the pair counts.

    On D = 1 shell j is the pair n = +-(j + 1), so k is read from the shell
    number; on D >= 2 the stored pairs are binned with shell_index.  Raises
    ArithmeticError unless the grid is a pair table (see ModeGrid), and
    CapabilityError on a D >= 2 radial grid.
    """
    if grid.D > 1:
        index = grid.shell_index  # checked before any pair-sized array is formed
    elif np.any(grid.weight != 2.0):
        raise ArithmeticError(_NOT_A_PAIR_TABLE)
    if not np.any(d):
        return 0.5 * grid.weight
    scale = (2.0 * math.pi / grid.L) * d
    if grid.D == 1:
        phase = np.arange(1.0, len(grid.weight) + 1.0)
        phase *= scale[0]
        return np.cos(phase, out=phase)
    first, *rest = np.flatnonzero(d)  # k.d from the integer columns: a multiply-add per nonzero d_j
    phase = grid.n[:, first] * scale[first]
    for j in rest:
        phase += grid.n[:, j] * scale[j]
    return np.bincount(index, weights=np.cos(phase, out=phase), minlength=len(grid.weight))


def _product_axes(pos: np.ndarray) -> list[np.ndarray] | None:
    """Each axis's distinct coordinates if the positions are exactly their product grid, else None.

    That is the case when the positions are distinct and N is the product
    of the per-axis counts.  Coordinates that agree to 1e-12 of the largest
    one are equal, as in _separations; each axis keeps them in order of
    first appearance.
    """
    quanta = _quanta(pos, pos)
    axes = []
    for q, column in zip(quanta.T, pos.T):
        first = np.unique(q, return_index=True)[1]
        axes.append(column[np.sort(first)])
    distinct = len({tuple(row) for row in quanta.tolist()}) == len(pos)
    return axes if distinct and math.prod(map(len, axes)) == len(pos) else None


def _structure_factor(grid: ModeGrid, pos: np.ndarray) -> np.ndarray:
    """Per shell, |sum_x e^{i k.x}|^2 summed over the shell's +-k pairs.

    The square is N + 2 sum_d m_d cos(k.d) over the distinct separations d
    of the pairs x < y (see _separations), which is real and exact for any
    positions; coincident pairs add 2 m_0.  That is one _shell_cos per
    distinct separation.  On D >= 2 a product layout of more than one
    position (see _product_axes) factorizes over the axes instead: S(k) =
    prod_a |sum_c e^{i k_a c}|^2 over axis a's coordinates c, each factor
    tabulated once per integer between the least and the largest n_a of the
    grid (0 included), gathered per pair and binned into shells; an axis
    with one coordinate (a padded one included) contributes 1.
    """
    axes = _product_axes(pos) if grid.D > 1 and len(pos) > 1 else None
    if axes is None:
        seps, mult, _ = _separations(pos)
        total = (len(pos) + 2.0 * mult[0]) * _shell_cos(grid, seps[0])
        for d, m in zip(seps[1:], mult[1:]):
            cos = _shell_cos(grid, d)
            total += np.multiply(cos, 2.0 * m, out=cos)
        return total
    index, total = grid.shell_index, 1.0  # the index first, before any pair-sized factor
    for column, coords in zip(grid.n.T, axes):
        if len(coords) > 1:
            lo = int(column.min(initial=0))
            k = (2.0 * math.pi / grid.L) * np.arange(lo, int(column.max(initial=0)) + 1)
            total = total * (np.abs(np.exp(1j * np.outer(k, coords)).sum(axis=1)) ** 2)[column - lo]
    return np.bincount(index, weights=total, minlength=len(grid.weight))


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
    table = grid.memo(  # T-independent, so a time series over one register reuses it
        "register", pos.tobytes(),
        lambda: _shell_table(grid, 2.0 * grid.u2 / grid.omega**2 * _structure_factor(grid, pos)),
    )
    return grid.prefactor * _oscillating_sum(grid, table, T)


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


def _caller_stacklevel() -> int:
    """The warnings stacklevel, seen from the calling function, of the first frame outside qecbound.

    Frames of the package's modules are skipped, and so is a dataclass's
    generated __init__, which runs in its module's globals; a warning is
    then reported at the user's line, however deep the call.
    """
    package = __name__.partition(".")[0]
    frame, level = sys._getframe(2), 2
    while frame is not None and frame.f_globals.get("__name__", "").partition(".")[0] == package:
        frame, level = frame.f_back, level + 1
    return level


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
                stacklevel=_caller_stacklevel(),
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
