"""Output checks: golden CSVs for the CLI workloads, a direct-sum oracle for
the numeric M_max searches.

CLI outputs are compared with the reference files stored for the same input
variant.  ``#`` comment lines and text fields must match exactly; numbers
must agree to RTOL relative, the golden tolerance refactors of the spectral
sums are held to.

Each M returned by the numeric searches is checked against the benchmark's
own sums over the momentum lattice: D(M*Delta) <= D_crit < D((M+1)*Delta).
This shows M is *a* crossing of the criterion.  It does not prove it is the
*first* one: on a finite lattice the distance is not monotone in M, and
only a scan of every M below it would show that.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

RTOL = 1e-10


def _close(a: str, b: str) -> bool:
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    if math.isnan(x) or math.isnan(y) or math.isinf(x) or math.isinf(y):
        return False
    return abs(x - y) <= RTOL * max(abs(x), abs(y))


def compare_file(actual: Path, reference: Path) -> str | None:
    """None when the files agree, else a one-line description of the first mismatch."""
    if not actual.is_file():
        return f"{actual.name}: missing"
    got = actual.read_text().splitlines()
    want = reference.read_text().splitlines()
    if len(got) != len(want):
        return f"{actual.name}: {len(got)} lines, reference has {len(want)}"
    for lineno, (g, w) in enumerate(zip(got, want), start=1):
        if g.startswith("#") or w.startswith("#"):
            ok = g == w
        else:
            gf, wf = g.split(","), w.split(",")
            ok = len(gf) == len(wf) and all(_close(a, b) for a, b in zip(gf, wf))
        if not ok:
            return f"{actual.name}:{lineno}: {g!r} != reference {w!r}"
    return None


def compare_dir(actual: Path, reference: Path) -> str | None:
    """Check every reference file of one operation against its output."""
    files = sorted(p for p in reference.iterdir() if p.is_file())
    if not files:
        return f"no reference files in {reference}"
    for ref in files:
        problem = compare_file(actual / ref.name, ref)
        if problem:
            return problem
    return None


class SearchOracle:
    """Direct lattice sums for the library workload's D=1, z=1 channels."""

    def __init__(self, config: dict) -> None:
        bath, layout = config["bath"], config["layout"]
        if bath["D"] != 1 or layout["D_x"] != 1:
            raise ValueError("the search oracle handles D=1 baths and D_x=1 registers only")
        # the workload leaves qec and criteria at their documented defaults
        self.delta = 1.0
        self.d_crit = 0.01
        self.sigma = 0.5
        L = bath["L"]
        dk = 2.0 * math.pi / L
        n_max = math.floor(1.0 / dk * (1.0 + 1e-12))  # omega_c = 1/Delta = 1
        k = dk * np.arange(1, n_max + 1, dtype=np.float64)  # +k and -k give equal terms
        self.prefactor = dk
        self.omega = k
        self.weights = {}
        self.register = {}
        n = layout["N"]
        spacing = layout["Xi"]
        # |sum_x e^{ikx}|^2 over n equally spaced sites = n + 2 sum_d (n-d) cos(k d Xi)
        structure = np.full_like(k, float(n))
        for d in range(1, n):
            structure += 2.0 * (n - d) * np.cos(k * d * spacing)
        for ch in bath["channels"]:
            if ch["z_exp"] != 1.0:
                raise ValueError("the search oracle handles z_exp=1 channels only")
            w = 2.0 * k ** (2.0 * ch["s_exp"]) / (k * k)  # both signs of k
            self.weights[ch["axis"]] = w
            self.register[ch["axis"]] = w * structure

    def single_distance(self, lam: float, M: int) -> float:
        osc = 1.0 - np.cos(self.omega * (M * self.delta))
        g = self.prefactor * lam**2 * float(np.dot(self.weights["z"], osc))
        return self.sigma * -math.expm1(-4.0 * g)

    def hs_distance(self, lambdas: dict[str, float], M: int) -> float:
        t = M * self.delta
        cos, sin = np.cos(self.omega * t), np.sin(self.omega * t)
        acc = 0.0
        for axis, lam in lambdas.items():
            w = self.register[axis]
            re = self.prefactor * float(np.dot(w, 1.0 - cos))
            im = self.prefactor * float(np.dot(w, sin))
            acc += lam**2 * (re * re + im * im)
        return math.sqrt(acc)

    def _bracket(self, name: str, distance, M) -> str | None:
        if not isinstance(M, int) or M < 0:
            return f"{name}: M={M!r} is not a finite step count"
        below = distance(M) if M > 0 else 0.0
        above = distance(M + 1)
        if below > self.d_crit * (1 + RTOL) or above <= self.d_crit * (1 - RTOL):
            return (f"{name}: M={M} gives D(M)={below:.12g}, D(M+1)={above:.12g}, "
                    f"criterion {self.d_crit}")
        return None

    def check(self, op: dict, result: dict) -> str | None:
        """None when one operation's results are consistent, else the reason."""
        if "error" in result:
            return result["error"].strip().splitlines()[-1]
        lam = op["lambda_single"]
        m_single = result["m_single"]
        problem = self._bracket("mmax_single", lambda M: self.single_distance(lam, M), m_single)
        if problem:
            return problem
        # SubOhmic one-point calibration at the numeric bound (zeta=1/2, z=1)
        if m_single > 0:
            expected = (m_single * self.delta) ** 0.5 * lam**2 / self.d_crit
            if abs(result["c_cal"] - expected) > RTOL * abs(expected):
                return f"calibrate_c_cal: {result['c_cal']!r} != {expected!r} for M={m_single}"
        lambdas = {"z": op["lambda_z"], "x": op["lambda_x"]}
        return self._bracket("mmax_multi_numeric",
                             lambda M: self.hs_distance(lambdas, M), result["m_multi"])
