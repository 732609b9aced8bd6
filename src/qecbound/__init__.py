"""Syndrome-conditioned error analysis of the 5-qubit code and bosonic-bath
bounds on the time available for quantum computation.

The package has two import layers.  ``errors``, ``pauli`` (Pauli algebra,
codes and the eta table), ``config`` (the validated run configuration and
the plain value types it builds) and ``cli`` import no numeric code, so the
CLI, a config load, ``eta`` and ``code-check`` start without numpy.  ``bath``,
``bounds`` and ``coupling`` need numpy; the CLI imports them inside the
handlers that compute.

Every public name below is resolved in its defining module on each access
(PEP 562), so ``import qecbound`` loads nothing else.  Nothing is cached in
this namespace: a function swapped in its module (as a tracer does) is what
``qecbound.<name>`` returns until it is swapped back.

qecbound calls no BLAS routine, and an idle OpenBLAS worker thread spins
once numpy is loaded, adding CPU time to every run that computes.  So when
qecbound is imported before numpy, this module sets OPENBLAS_NUM_THREADS=1
for the numpy it will load, unless the variable is already set.  To keep
your own BLAS threads, set the variable or import numpy first.
"""

import importlib
import os
import sys

__version__ = "0.1.0"

if "numpy" not in sys.modules:  # runs before every submodule, ``python -m qecbound`` included
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# public name -> the module that defines it; numpy-free modules first
_EXPORTS = {name: module for module, names in (
    ("errors", ("CapabilityError", "ConfigError", "CriterionUnreachableError",
                "DegenerateInputError", "DimensionError", "QecBoundError",
                "UnsupportedOrderError")),
    ("pauli", ("ErrorClass", "EtaEntry", "EtaTable", "PauliString", "StabilizerCode",
               "Syndrome", "classify", "commutes", "enumerate_eta", "five_qubit_code",
               "multiply", "paulis_of_weight", "syndrome", "verify_distance")),
    ("config", ("BathChannel", "BathGeometry", "BoundInput", "RunConfig", "default_config",
                "from_dict", "load_config")),
    ("bath", ("ModeGrid", "QubitLayout", "build_mode_grid", "build_radial_mode_grid", "gamma",
              "gamma_infinity", "lattice_sites", "regular_layout", "w_pair", "w_sum")),
    ("bounds", ("Regime", "RegimeReport", "SumKind", "calibrate_c_cal", "d_sat",
                "fit_loglog_slope", "gamma_asymptotic", "hs_distance", "mmax_multi",
                "mmax_multi_numeric", "mmax_single", "trace_distance_single",
                "w_sum_asymptotic", "zeta_and_regime")),
    ("coupling", ("AMatrix", "EffectiveCoupling", "a_matrix", "lambda_star")),
) for name in names}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
