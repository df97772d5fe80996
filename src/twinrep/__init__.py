"""Primes of the form q = p + n^2 + n.

A numpy-backed toolkit for exploring which primes q admit a
representation q = p + n*(n+1) with p prime (or twin prime), the exact
exponential-sum identities behind the associated singular series, and
desk-scale numerical probes of the averaged prime-counting variance.
"""

from .arithmetic import (
    euler_phi,
    is_prime_64,
    is_squarefree,
    jacobi,
    jacobi_many,
    mobius,
    ramanujan_sum,
    von_mangoldt,
)
from .asymptotic import (
    KahanSum,
    VarianceReport,
    VarianceTerm,
    exception_count,
    psi,
    variance_sum,
    variance_sweep,
    von_mangoldt_table,
)
from .expsum import (
    SigmaEvaluation,
    check_multiplicativity,
    evaluate_sigma,
    evaluate_sigma_row,
    sigma_bruteforce,
    sigma_closed,
    sigma_complex_check,
)
from .represent import (
    GrowthRow,
    Mode,
    Representation,
    VerificationReport,
    find_any_prime_representation,
    find_min_n_twin_representation,
    find_min_twin_representation,
    n_max,
    verify_range,
)
from .sieve import (
    CoverageError,
    PrimeTable,
    ResourceLimitError,
    build_prime_table,
    load_prime_table,
    prime_count,
    save_prime_table,
    sieve_segment,
    squarefree_kappa_census,
    twin_segment,
)
from .singular import (
    SingularValue,
    dirichlet_series_partial,
    singular_series,
    singular_series_many,
    tail_partial,
)

__version__ = "0.1.0"
