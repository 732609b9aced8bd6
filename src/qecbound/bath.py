"""Discrete bosonic-bath mode grids and the spectral sums built on them.

Units are dimensionless throughout: the reference frequency, reference
momentum and coupling-normalization momentum are all 1, so times are
measured in inverse reference frequencies and lengths in inverse reference
momenta.  A channel has dispersion omega(k) = |k|**z_exp and coupling weight
|u_k|**2 = |k|**(2*s_exp); modes live on the momentum lattice k = (2*pi/L)*n
for nonzero integer vectors n, cut off at omega <= omega_c.

Dispersion and coupling weight depend only on |k|, so the modes group into
shells, one per distinct |n|**2, and every sum here is even in k.  A grid is
therefore a shell table on every D, and stores no mode vector.  Every
time-dependent sum reads one Spectrum, its static weights binned into shells
once: a time point costs one cos (and one sin for an imaginary part) per
shell, or O(sqrt(shells)) on D = 1 with z_exp = 1, where the shell
frequencies are the harmonics j * 2*pi/L.  A position sum needs cos(k.d) per
mode, so it walks the lattice in chunks, one point per +-k pair, the same walk
on every D (_shell_sums, which doubles what it sums), and bins each point into
its shell, or contracts it with a per-shell weight where the sum is one scalar
per d (the pair sums); ModeGrid checked the shell table once.
All d of a position set share one walk, and so do the axis factors of the
structure factor of a D >= 2 product layout.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Iterator, Sequence

import numpy as np

from .config import _SCALARS, BathChannel, BathGeometry, _checked, _integer, _number
from .errors import CapabilityError, ConfigError, DegenerateInputError, DimensionError

DEFAULT_MODE_BUDGET = 10_000_000
_NOT_A_PAIR_TABLE = ("grid is not a +-k pair table: m2 must be every |n|^2 of the ball, in "
                     "increasing order, and each weight the lattice's mode count at its m2")
_CHUNK = 1 << 14  # lattice points per step of a walk: bounds every temporary of a position sum
_VALUES_CAP = 4096  # scalars a Spectrum keeps (Spectrum.at): a search makes about 40


@dataclass(frozen=True, eq=False)
class Spectrum:
    """The nodes of one time sum, sum_j weights_j * (1 - e^{i omega_j T}).

    Every time sum has this form.  weights hold every static factor, the lattice
    prefactor (2*pi/L)^D included, so a time sum reads nothing else; on a grid a node
    is a shell, its weights binned once (ModeGrid.spectrum).  A time point costs a cos
    and a sin per node, or O(sqrt(S)) of them on S harmonic nodes, omega bitwise
    j * omega_1 (j = 1..S): then block is (B, its column sums), B[q, r] holding node
    j = q*R + r (0 at j = 0 and past S), R = isqrt(S) + 1 >= sqrt(S + 1), and weights
    a view of B.  A value depends on (T, imag) alone: at keeps each in a table of scalars,
    emptied at _VALUES_CAP of them, which every search, series and thread on it shares.
    """

    omega: np.ndarray
    weights: np.ndarray
    block: tuple[np.ndarray, np.ndarray] | None = None
    _values: dict[tuple[float, bool], complex] = field(default_factory=dict, init=False, repr=False)

    @functools.cached_property
    def static(self) -> float:
        """sum of the weights: the time sum's long-time mean."""
        return float(np.sum(self.weights))

    def at(self, T: float, imag: bool = True) -> complex:
        """sum over nodes of weights * (1 - e^{i omega T}) (_evaluate), once per (T, imag)."""
        value = self._values.get((T, imag))
        if value is None:
            if len(self._values) >= _VALUES_CAP:
                self._values.clear()
            value = self._values[T, imag] = self._evaluate(T, imag)
        return value

    def _evaluate(self, T: float, imag: bool) -> complex:
        """The sum at stores, computed.  The real part is sum weights * (1 - cos omega T),
        formed as the versine vers x = 2 sin^2(x/2), which keeps its relative accuracy where
        omega T is small; the imaginary part is -sum weights * sin omega T (skipped when imag is
        False).  On harmonic nodes, node j = q*R + r has phase a + b (a = omega_{q*R} T, b =
        omega_r T), so one contraction of B with (cos b, sin b) gives 1 - cos(a + b) =
        vers b + cos b vers a + sin b sin a and sin(a + b) = cos b sin a + sin b cos a.
        """
        # einsum, not np.dot or @: qecbound calls no BLAS routine (see the package docstring)
        if self.block is None:
            x = self.omega * T
            im = -float(np.einsum("i,i->", self.weights, np.sin(x))) if imag else 0.0
            re = float(np.einsum("i,i->", self.weights, 2.0 * np.sin(0.5 * x) ** 2))
            return complex(re, im)
        block, column_sums = self.block
        R = block.shape[1]  # a, b from the stored omega of nodes q*R and r, rounded as omega * T is
        a = np.concatenate(([0.0], self.omega[R - 1 :: R])) * T
        b = np.concatenate(([0.0], self.omega[: R - 1])) * T
        cos_sin_b = np.einsum("qr,kr->kq", block, [np.cos(b), np.sin(b)])
        sin_a = np.sin(a)
        re = np.einsum("r,r->", column_sums, 2.0 * np.sin(0.5 * b) ** 2) + np.einsum(
            "kq,kq->", [2.0 * np.sin(0.5 * a) ** 2, sin_a], cos_sin_b)
        im = -np.einsum("kq,kq->", [sin_a, np.cos(a)], cos_sin_b) if imag else 0.0
        return complex(float(re), float(im))


@dataclass(eq=False)
class ModeGrid:
    """Momentum lattice of one channel spectrum, as its shell table.

    m2, omega, u2 and weight are per shell, one entry per distinct |n|^2 in
    increasing order: m2 is an integer array holding every |n|^2 of the ball
    |n|^2 <= max(m2) (k = (2*pi/L)*n), and weight the lattice's mode count at
    each m2.  Construction checks this pair table and the box (L, D), once;
    every position sum then walks the half lattice trusting it (see _shell_sums).

    A grid reads only the geometry, the exponents (z_exp, s_exp) and the mode
    budget, never the channel axis or coupling.  build_mode_grid shares one
    read-only instance per such key and keeps the two latest alive (both
    channels of one configuration).  What derives from the grid alone is
    computed once per instance: the dephasing spectrum (a cached property),
    and through :meth:`memo` the register spectrum of the latest position set
    (w_sum) and the pair sums of the latest offset set (_pair_sums); each
    spectrum keeps its own values (Spectrum.at).
    """

    D: int
    L: float
    omega: np.ndarray
    u2: np.ndarray
    weight: np.ndarray
    m2: np.ndarray
    _memo: dict[str, tuple] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        """Refuses a grid no sum can use: an L not a positive finite number or a D not an integer
        >= 1 (ConfigError naming it), arrays not 1-D of one length, no shells, an omega not
        positive and finite, a u2 not non-negative and finite, or no +-k pair table."""
        self.L = _checked("mode grid L", _SCALARS["bath.L"], self.L)
        self.D = _checked("mode grid D", ("", None, _integer, lambda v: v >= 1,
                                          "must be at least 1"), self.D)
        arrays = (self.m2, self.omega, self.u2, self.weight)
        if any(np.ndim(a) != 1 for a in arrays) or len({len(a) for a in arrays}) != 1:
            raise DimensionError("mode grid m2, omega, u2 and weight must be 1-D, of one length")
        if len(self.omega) == 0:
            raise DegenerateInputError("mode grid is empty")
        if not (np.isfinite(self.omega).all() and (self.omega > 0).all()):
            raise ValueError("mode grid omega must be positive and finite")
        if not (np.isfinite(self.u2).all() and (self.u2 >= 0).all()):
            raise ValueError("mode grid u2 must be non-negative and finite")
        if not _is_pair_table(self.D, self.m2, self.weight):
            raise ArithmeticError(_NOT_A_PAIR_TABLE)

    def memo(self, kind: str, key: Hashable, compute: Callable[[], Any]) -> Any:
        """compute(), memoized on this grid under (kind, key).

        Each kind keeps only its latest (key, value): one dict get reads it and
        one dict store replaces it, so no thread sees a key with another key's
        value.  Two threads may both compute a missing entry; both get an equal value.
        """
        latest = self._memo.get(kind)
        if latest is not None and latest[0] == key:
            return latest[1]
        value = compute()
        self._memo[kind] = (key, value)
        return value

    @property
    def prefactor(self) -> float:
        return (2.0 * math.pi / self.L) ** self.D

    @property
    def stored_count(self) -> int:
        """Number of stored records: the shells."""
        return len(self.omega)

    @property
    def mode_count(self) -> int:
        """Number of lattice modes represented (multiplicities included)."""
        return int(round(float(np.sum(self.weight))))

    @functools.cached_property
    def fundamental(self) -> float | None:
        """omega_1 if shell j has omega bitwise j * omega_1 (any D = 1, z = 1 grid), else None."""
        w1 = self.omega[0]  # compared in slices: no temporary of length S
        harmonic = (np.array_equal(self.omega[s], w1 * np.arange(s.start + 1, s.stop + 1))
                    for s in _slices(len(self.omega)))
        return float(w1) if all(harmonic) else None

    @functools.cached_property
    def dephasing(self) -> Spectrum:
        """The spectrum of gamma / lambda*^2: weights prefactor * weight * |u|^2 / omega^2."""
        return self.spectrum(self.weight)

    def spectrum(self, factor: np.ndarray) -> Spectrum:
        """The spectrum of weights prefactor * u2 / omega**2 * factor, factor per shell summed
        over its modes, formed in _slices in the one buffer kept: on a harmonic grid, the block."""
        S, R = len(self.omega), math.isqrt(len(self.omega)) + 1
        flat = np.zeros(S + 1 + -(S + 1) % R) if self.fundamental is not None else np.empty(S + 1)
        weights = flat[1 : S + 1]
        for s in _slices(S):
            np.multiply(self.prefactor * self.u2[s] / self.omega[s] ** 2, factor[s], out=weights[s])
        if self.fundamental is None:
            return Spectrum(self.omega, weights)
        block = flat.reshape(-1, R)
        return Spectrum(self.omega, weights, (block, block.sum(axis=0)))


def _isqrt_exact(values: np.ndarray) -> np.ndarray:
    """Elementwise integer sqrt of non-negative int64 values, exact."""
    r = np.sqrt(values).astype(np.int64)
    r += (r + 1) * (r + 1) <= values
    r -= r * r > values
    return r


def _slices(n: int) -> list[slice]:
    """range(n) in slices of _CHUNK: a pass over shells that keeps every temporary small."""
    return [slice(a, min(a + _CHUNK, n)) for a in range(0, n, _CHUNK)]


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


def _runs(lead: np.ndarray, first: np.ndarray, lens: np.ndarray) -> Iterator[tuple]:
    """(lead rows, points per row, n_D of every point) per chunk of at most _CHUNK points.

    Run j holds lens[j] points, lead[j] then n_D = first[j], first[j] + 1, ...
    """
    starts = np.concatenate(([0], np.cumsum(lens)))
    for a in range(0, int(starts[-1]), _CHUNK):
        b = min(a + _CHUNK, int(starts[-1]))
        r0, r1 = int(np.searchsorted(starts, a, "right")) - 1, int(np.searchsorted(starts, b))
        count = np.minimum(starts[r0 + 1 : r1 + 1], b) - np.maximum(starts[r0:r1], a)
        yield lead[r0:r1], count, np.arange(a, b) + np.repeat(first[r0:r1] - starts[r0:r1], count)


def _slabs(D: int, m2max: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The ball |n|^2 <= m2max, origin included, as runs along the last axis.

    Yields (lead, half) per slab: row j of lead holds the leading D - 1
    coordinates of one run, n_D = -half[j] ... half[j].  The runs are the
    points of the (D - 1)-ball in chunks (_runs), in lexicographic order.
    """
    if D == 1:
        yield np.zeros((1, 0), dtype=np.int64), np.array([math.isqrt(m2max)], dtype=np.int64)
        return
    for lead, half in _slabs(D - 1, m2max):
        for rows, count, last in _runs(lead, -half, 2 * half + 1):
            points = np.column_stack((np.repeat(rows, count, axis=0), last))
            yield points, _isqrt_exact(m2max - np.einsum("ij,ij->i", points, points))


def _half_ball(D: int, m2max: int) -> Iterator[tuple]:
    """The lexicographically negative half of the ball |n|^2 <= m2max, in chunks (_runs).

    That is one point per +-k pair: the runs before the origin's, then its n_D < 0.
    """
    lead, half = map(np.concatenate, zip(*_slabs(D, m2max)))
    mid = len(half) // 2  # the run through the origin
    lens = 2 * half[: mid + 1] + 1
    lens[mid] = half[mid]
    return _runs(lead[: mid + 1], -half[: mid + 1], lens)


@functools.lru_cache(maxsize=2)
def _radial_counts(D: int, m2max: int) -> tuple[np.ndarray, np.ndarray]:
    """(values of |n|^2, multiplicities as floats) over the nonzero integer vectors of the ball.

    Each chunk of the half ball adds its points to one count table over
    |n|^2 <= m2max, but for D = 1: shell |n| holds +n and -n.  The two latest
    are kept: a built grid holds them, and its check reads them, not a new walk.
    """
    if D == 1:
        r = np.arange(1, math.isqrt(m2max) + 1, dtype=np.int64)
        return r * r, np.full(len(r), 2.0)
    counts = np.zeros(m2max + 1, dtype=np.int64)
    for lead, count, last in _half_ball(D, m2max):  # add.at costs the chunk, not the table
        np.add.at(counts, np.repeat(np.einsum("ij,ij->i", lead, lead), count) + last * last, 1)
    idx = np.flatnonzero(counts)
    return idx, 2.0 * counts[idx]


def _is_pair_table(D: int, m2: np.ndarray, weight: np.ndarray) -> bool:
    """Whether (m2, weight) is ModeGrid's table, _radial_counts of its ball, read only for a table
    long enough and a mode count that two cubes allow."""
    if not np.issubdtype(m2.dtype, np.integer):
        return False
    m2max = int(m2.max())
    # each square j^2 <= m2max is an |n|^2: _radial_counts makes no table longer than this one
    if D < 1 or m2max < 1 or len(m2) < math.isqrt(m2max):
        return False
    # the ball holds the cube of half-side isqrt(m2max // D) and lies in that of isqrt(m2max);
    # a mode count between the two bounds the walk at D^(D/2) times the count
    inner, outer = ((2 * math.isqrt(m2max // c) + 1) ** D - 1 for c in (D, 1))
    return (inner <= float(np.sum(weight)) <= outer
            and all(map(np.array_equal, (m2, weight), _radial_counts(D, m2max))))


@functools.lru_cache(maxsize=2)
def _shared_grid(geom: BathGeometry, z_exp: float, s_exp: float, max_modes: int) -> ModeGrid:
    """The grid of one spectrum, keyed by exactly what it reads.

    Two entries hold both channels of one configuration, so at most one configuration's grids
    outlive their use.  The arrays are read-only, as every caller with this key shares them.
    """
    m2max = _lattice_extent(geom, z_exp)
    count = 2 * math.isqrt(m2max)  # the +-n of one axis: all modes on D = 1, a floor on any D
    if count <= max_modes:  # then walk the ball, stopping once the count passes the budget
        count = -1
        for _, half in _slabs(geom.D, m2max):
            count += int(np.sum(2 * half + 1))
            if count > max_modes:
                break
    if count > max_modes:
        raise CapabilityError(
            f"grid for (L={geom.L}, omega_c={geom.omega_c}) needs at least {count} modes, "
            f"exceeding the budget of {max_modes}"
        )
    m2, weight = _radial_counts(geom.D, m2max)
    k = (2.0 * math.pi / geom.L) * np.sqrt(m2.astype(np.float64))
    grid = ModeGrid(D=geom.D, L=geom.L, omega=k**z_exp, u2=k ** (2.0 * s_exp), weight=weight, m2=m2)
    for array in (grid.omega, grid.u2, grid.weight, grid.m2):
        array.flags.writeable = False
    return grid


def build_mode_grid(
    geom: BathGeometry, ch: BathChannel, max_modes: int = DEFAULT_MODE_BUDGET
) -> ModeGrid:
    """The shell table of the modes with omega(|k|) <= omega_c; shared (see ModeGrid).

    max_modes bounds the time of a position sum, which walks the modes in chunks.
    Every array of a grid or of a sum is per shell, and on D = 1 a shell is one
    +-k pair, so there max_modes bounds the memory too.
    """
    return _shared_grid(geom, ch.z_exp, ch.s_exp, max_modes)


def build_radial_mode_grid(
    geom: BathGeometry, ch: BathChannel, max_modes: int = DEFAULT_MODE_BUDGET
) -> ModeGrid:
    """The grid of build_mode_grid, which is a shell table on every D."""
    return build_mode_grid(geom, ch, max_modes)


def _check_time(T: float) -> None:  # first thing in every time sum
    if not 0.0 <= T < math.inf:  # false for nan as well
        raise ValueError(f"time T must be finite and non-negative, got {T}")


def gamma(grid: ModeGrid, lambda_star: float, T: float) -> float:
    """Dephasing decoherence function.

    gamma(T) = (2*pi/L)^D * lambda_star^2 * sum_k (|u_k|^2/omega_k^2) * (1 - cos(omega_k T)).

    Non-negative and bounded by twice the static sum.  T must be finite and
    non-negative (ValueError), then lambda_star a finite number (ConfigError).
    """
    _check_time(T)
    return _number(lambda_star, "lambda*") ** 2 * grid.dephasing.at(T, imag=False).real


def gamma_infinity(grid: ModeGrid, lambda_star: float) -> float:
    """Long-time mean of gamma: the static sum with the oscillatory term dropped.  lambda_star
    must be a finite number (ConfigError)."""
    return _number(lambda_star, "lambda*") ** 2 * grid.dephasing.static


def w_pair(grid: ModeGrid, x: Sequence[float], y: Sequence[float], T: float) -> complex:
    """Pair correlation sum between positions x and y.

    W_{x,y}(T) = (2*pi/L)^D * sum_k (|u_k|^2/omega_k^2) e^{-i k.(x-y)} (1 - e^{i omega_k T}).

    Symmetric under x <-> y; complex in general (the x = y imaginary part is
    -(2*pi/L)^D * sum (|u|^2/omega^2) sin(omega T)).  x = y reads grid.dephasing;
    for x != y each call forms the pair's spectrum from cos(k.(x-y)) summed over
    every mode (_shell_cos), the sum of e^{-i k.(x-y)} exactly, as it is even in k.
    T must be finite and non-negative, then x and y finite (ValueError, before any work).
    """
    _check_time(T)
    x, y = (_positions(grid, [np.atleast_1d(v)])[0] for v in (x, y))
    d = x - y
    spectrum = grid.spectrum(_shell_cos(grid, [d])[0]) if d.any() else grid.dephasing
    return spectrum.at(T)


def _positions(grid: ModeGrid, positions: Any) -> np.ndarray:
    """positions as (N, D) floats, (N,) as (N, 1), or DimensionError; N > 0 finite or ValueError."""
    pos = np.asarray(positions, dtype=np.float64)
    pos = pos[:, None] if pos.ndim == 1 else pos
    if pos.ndim != 2 or pos.shape[1] != grid.D:
        raise DimensionError(f"positions must have dimension {grid.D}")
    if len(pos) == 0:
        raise ValueError("positions must hold at least one position")
    if not np.isfinite(pos).all():
        raise ValueError("positions must be finite")
    return pos


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


@functools.lru_cache(maxsize=8)
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


def _shell_sums(grid: ModeGrid, rows: Callable[..., Iterable], count: int,
                weight: np.ndarray | None = None) -> np.ndarray:
    """(count, shells): count quantities even in k, each summed over all of every shell's modes.

    The one kernel of the position sums, on every D: one walk of the half lattice (_half_ball),
    one point per +-k pair, in which rows(lead, lens, last) gives a chunk's count rows; doubling
    the sums at the end, exactly, counts both points of each pair.  Given a per-shell weight it
    returns (count,) and holds no shell-sized row: a chunk gathers the weight once and sums each
    row against it pairwise (np.sum).  In ModeGrid's checked table, point n = -(i + 1) is shell
    i on D = 1; on D >= 2 a lookup from |n|^2 finds the shell.  Count 0 takes no walk.
    """
    S, contract = len(grid.m2), weight is not None
    sums = np.zeros(count) if contract else np.zeros((count, S))
    if count == 0:
        return sums
    table = None
    if grid.D > 1:  # |n|^2 -> shell, for every point
        table = np.empty(int(grid.m2[-1]) + 1, dtype=np.intp)
        table[grid.m2] = np.arange(S)
    for lead, lens, last in _half_ball(grid.D, int(grid.m2[-1])):
        shell = (-1 - last if table is None
                 else table[np.repeat(np.einsum("ij,ij->i", lead, lead), lens) + last * last])
        if contract:
            w = weight[shell]
            sums += [np.sum(w * values) for values in rows(lead, lens, last)]
            continue
        first = int(shell.min())  # binned over the shells the chunk reaches
        shell -= first
        reached = slice(first, first + int(shell.max()) + 1)
        for total, values in zip(sums[:, reached], rows(lead, lens, last)):
            total += np.bincount(shell, weights=values)
    sums *= 2.0  # the +-k fold undone: each point stands for its pair
    return sums


def _phases(scale: np.ndarray, lead: np.ndarray, lens: np.ndarray, last: np.ndarray) -> Iterator:
    """k.d per point of a chunk, per row (2*pi/L) d of scale; the lead part once per run."""
    last = last.astype(np.float64)  # cast once, not in every row's multiply
    for s in scale:
        phase = last * s[-1]
        if lead.shape[1] and s[:-1].any():
            phase += np.repeat(sum(lead[:, j] * s[j] for j in np.flatnonzero(s[:-1])), lens)
        yield phase


def _shell_cos(grid: ModeGrid, seps: Sequence, weight: np.ndarray | None = None) -> np.ndarray:
    """(separations, shells): per separation d, cos(k.d) summed over all of each shell's modes.

    One walk (_shell_sums) serves every d; given a per-shell weight, each d's row is
    contracted with it (separations,).
    """
    scale = (2.0 * math.pi / grid.L) * np.asarray(seps, dtype=np.float64).reshape(-1, grid.D)
    return _shell_sums(grid, lambda *chunk: (np.cos(p, out=p) for p in _phases(scale, *chunk)),
                       len(scale), weight)


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
    """Per shell, |sum_x e^{i k.x}|^2 summed over all of the shell's modes.

    The square is N + 2 sum_d m_d cos(k.d) over the distinct separations d
    of the pairs x < y (see _separations), which is real and exact for any
    positions; coincident pairs add 2 m_0.  It is formed per point and
    binned once, in one walk (_shell_sums), or with no d besides 0 it is
    (N + 2 m_0) * weight, with no walk.  On D >= 2 a product layout of
    more than one position (see _product_axes) factorizes over the axes
    instead: S(k) = prod_a |sum_c e^{i k_a c}|^2 over axis a's coordinates
    c, each factor tabulated once per integer n_a and gathered in the walk;
    a one-coordinate axis gives 1.
    """
    axes = _product_axes(pos) if grid.D > 1 and len(pos) > 1 else None
    if axes is None:
        seps, mult, _ = _separations(pos)
        if len(seps) == 1:
            return (len(pos) + 2.0 * mult[0]) * grid.weight
        scale = (2.0 * math.pi / grid.L) * seps[1:]

        def square(lead: np.ndarray, lens: np.ndarray, last: np.ndarray) -> Iterator[np.ndarray]:
            total = np.full(len(last), len(pos) + 2.0 * mult[0])
            for phase, m in zip(_phases(scale, lead, lens, last), mult[1:]):
                total += np.multiply(np.cos(phase, out=phase), 2.0 * m, out=phase)
            yield total

        return _shell_sums(grid, square, 1)[0]
    m = math.isqrt(int(grid.m2.max(initial=0)))
    k = (2.0 * math.pi / grid.L) * np.arange(-m, m + 1)
    tables = [np.abs(np.exp(1j * np.outer(k, c)).sum(axis=1)) ** 2 if len(c) > 1
              else np.ones(len(k)) for c in axes]

    def factor(lead: np.ndarray, lens: np.ndarray, last: np.ndarray) -> Iterator[np.ndarray]:
        per_run = np.ones(len(lead))
        for column, table in zip(lead.T, tables):
            per_run = per_run * table[column + m]
        yield np.repeat(per_run, lens) * tables[-1][last + m]

    return _shell_sums(grid, factor, 1)[0]


def w_sum(grid: ModeGrid, positions: np.ndarray, T: float) -> complex:
    """Double sum of w_pair over all ordered position pairs, diagonal included.

    Evaluated through the register structure factor: the pair double sum
    collapses to sum_k (|u|^2/omega^2) |sum_x e^{i k.x}|^2 (1 - e^{i omega T}),
    algebraically identical to summing w_pair over all pairs.  positions is
    (N, D), or (N,) on D = 1, of finite coordinates; T must be finite and
    non-negative.  Both are checked (ValueError) before any work on the positions.
    """
    _check_time(T)
    pos = _positions(grid, positions)
    spectrum = grid.memo(  # T-independent, so a time series over one register reuses it
        "register", pos.tobytes(), lambda: grid.spectrum(_structure_factor(grid, pos)))
    return spectrum.at(T)


def _pair_sums(grid: ModeGrid, positions: np.ndarray) -> np.ndarray:
    """sum_{k != 0} |u_k|^2 cos(k.(x_i - x_j)) for every pair of the (N, D) positions, memoized
    on the grid: one walk contracts each distinct separation with u2 (_shell_cos), and
    separation 0, the on-site sum, is u2 . weight with no walk."""
    def sums() -> np.ndarray:
        seps, _, index = _separations(positions)
        on_site = np.einsum("i,i->", grid.u2, grid.weight)
        return np.array([on_site, *_shell_cos(grid, seps[1:], grid.u2)])[index]

    return grid.memo("pair_sums", positions.tobytes(), sums)


# -- qubit geometry ----------------------------------------------------------


@functools.lru_cache(maxsize=8, typed=True)  # typed: True or 1.0 never reads the entry of 1
def lattice_sites(count: int, dims: int) -> np.ndarray:
    """First `count` sites of a unit-spacing dims-dimensional lattice, centered.

    Sites are taken in lexicographic order from a cube just large enough to
    hold them, then shifted to zero centroid; dims = 0 collapses everything to
    one point.  count is an integer >= 1, dims one >= 0, neither a bool (else a ValueError
    naming it).  The 8 most recent tables are kept, read-only: a sweep rebuilds its layout.
    """
    count = _checked("count", ("", None, _integer, lambda v: v >= 1, "must be positive"), count)
    dims = _checked("dims", _SCALARS["layout.D_x"], dims)  # an integer >= 0
    if dims == 0:
        sites = np.zeros((count, 1))
    else:
        side = 1
        while side**dims < count:
            side += 1
        sites = np.array(
            list(itertools.islice(itertools.product(range(side), repeat=dims), count)),
            dtype=np.float64,
        )
        sites -= sites.mean(axis=0)
    sites.flags.writeable = False
    return sites


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
        """Checks every field (ConfigError naming it): finite spacings, D_x >= 0, and positions
        and offsets of finite coordinates, at least one of each."""
        self.xi, self.Xi = _number(self.xi, "layout.xi"), _number(self.Xi, "layout.Xi")
        self.D_x = _checked("layout.D_x", _SCALARS["layout.D_x"], self.D_x)
        for name in ("logical_positions", "physical_offsets"):
            array = np.atleast_2d(np.asarray(getattr(self, name), dtype=np.float64))
            if array.size == 0:  # [] reads as shape (1, 0): one position, with no coordinate
                raise ConfigError(f"layout {name} must hold at least one position")
            if not np.isfinite(array).all():
                raise ConfigError(f"layout {name} must be finite numbers")
            setattr(self, name, array)
        if 10.0 * self.xi > self.Xi:
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
    n_logical = _checked("layout.N", _SCALARS["layout.N"], n_logical)
    D_x = _checked("layout.D_x", _SCALARS["layout.D_x"], D_x)
    with np.errstate(invalid="ignore"):  # 0 * inf: QubitLayout names the spacing
        return QubitLayout(
            logical_positions=lattice_sites(n_logical, D_x) * Xi,
            physical_offsets=lattice_sites(n_physical, D_x) * xi,
            xi=xi,
            Xi=Xi,
            D_x=D_x,
        )
