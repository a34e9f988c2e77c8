"""Exact and certified sums behind fibred three-manifold invariants.

The package is organised around one chain of reductions: compact group
data (root systems, Weyl groups, characters) feeds equivariant genus
functions and coadjoint orbit transforms, those feed certified modular
matrices, and the modular matrices feed fusion dimensions, fibred
partition sums, flat-space heat kernel limits and the exact
quasi-polynomial structure of dimension tables.

Importing the package loads none of its modules: each name in __all__, a
module or a public name of one, is resolved on first access
(`seifertsum.verlinde_table` or `from seifertsum import verlinde_table`
loads `verlinde` and what it imports, and nothing else).
"""

import importlib

_EXPORTS = {  # module: the public names it defines
    "crosscheck": ("CheckResult", "SuiteReport", "run_crosschecks"),
    "errors": ("BudgetExceededError", "CertificationError", "DegenerateOrbitError",
               "IntegralityError", "PreconditionError", "QuasiPolynomialFitError",
               "UnsupportedAlgebraError", "WallProximityError", "WeylGroupTooLargeError"),
    "genera": ("a_hat_function", "j_function", "j_inverse_sqrt", "partial_euler_product",
               "todd_function", "wall_distance"),
    "lie": ("CartanElement", "RootSystem", "Weight", "WeylElement", "build_root_system",
            "casimir", "weyl_character", "weyl_dimension", "weyl_group"),
    "modular": ("ModularData", "central_charge", "integrable_weights", "s_matrix"),
    "orbits": ("CoadjointOrbit", "dh_weyl_sum", "kirillov_check", "orbit_fourier",
               "orbit_from_highest_weight", "quantum_character_point",
               "su2_orbit_quadrature", "wilson_weight"),
    "quasipoly": ("PairingReport", "QuasiPolynomial", "fit_quasi_polynomial",
                  "pairing_report"),
    "seifert": ("ScanCell", "seifert_scan"),
    "verlinde": ("VerlindeTable", "verlinde_dimension", "verlinde_table"),
    "ym2": ("EpsilonProfile", "YM2Result", "ym2_epsilon_profile", "ym2_partition"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, *_OWNER])


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module("." + name, __name__)
    if name in _OWNER:
        value = getattr(importlib.import_module("." + _OWNER[name], __name__), name)
        globals()[name] = value
        return value
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted({*globals(), *__all__})
