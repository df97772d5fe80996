"""Primes of the form q = p + n^2 + n.

A numpy-backed toolkit for exploring which primes q admit a
representation q = p + n*(n+1) with p prime (or twin prime), the exact
exponential-sum identities behind the associated singular series, and
desk-scale numerical probes of the averaged prime-counting variance.

The public names below are imported from their submodule on first use
(PEP 562), so ``import twinrep`` alone loads no submodule, and a CLI
process compiles only the modules its command runs.
"""

import importlib

__version__ = "0.1.0"

# each public name and the submodule that defines it: the package's one list
# of public names, which no library module repeats in an __all__ of its own
_EXPORTS = {
    name: module
    for module, names in {
        "arithmetic": (
            "euler_phi",
            "is_prime_64",
            "is_squarefree",
            "jacobi",
            "jacobi_many",
            "mobius",
            "ramanujan_sum",
            "von_mangoldt",
        ),
        "asymptotic": (
            "KahanSum",
            "VarianceReport",
            "VarianceTerms",
            "exception_count",
            "psi",
            "variance_sum",
            "variance_sweep",
            "von_mangoldt_table",
        ),
        "expsum": (
            "check_multiplicativity",
            "sigma_bruteforce",
            "sigma_closed",
            "sigma_complex_check",
        ),
        "represent": (
            "MAX_Q",
            "Mode",
            "Representation",
            "VerificationReport",
            "find_any_prime_representation",
            "find_min_n_twin_representation",
            "find_min_twin_representation",
            "n_max",
            "verify_range",
        ),
        "sieve": (
            "CoverageError",
            "PrimeTable",
            "ResourceLimitError",
            "build_prime_table",
            "load_prime_table",
            "prime_count",
            "save_prime_table",
            "sieve_segment",
            "squarefree_kappa_census",
            "twin_segment",
        ),
        "singular": (
            "SingularValue",
            "dirichlet_series_partial",
            "singular_series",
            "singular_series_many",
            "tail_partial",
        ),
    }.items()
    for name in names
}
_SUBMODULES = frozenset(_EXPORTS.values())

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
