"""Dedekind-sum spectra, prime-race bias constants, sawtooth correlation
integrals, their moments and limiting distributions, and the totient
summatory error term, each computed by independent routes where one exists.
"""

__version__ = "0.1.0"

from .bias import Pattern, CkVector, c1_pattern, c2_pair, c2_pattern, ck_all, ck_point
from .characters import (
    CharacterTable,
    PrimeContext,
    build_context,
    build_table,
    is_prime,
)
from .correlations import (
    b_exact,
    b_lattice_estimate,
    discrete_correlation,
    reduce_correlation,
)
from .dedekind import (
    Spectrum,
    dedekind_sum_pair,
    dedekind_values,
    spectrum_all,
    spectrum_point_characters,
    spectrum_truncated,
)
from .distribution import (
    EmpiricalDistribution,
    almost_period_stat,
    ecdf_scaled,
    empirical_moments,
    from_ck_vector,
    from_spectrum,
    make_distribution,
    symmetry_statistic,
    tail_frequency,
)
from .errors import ResourceLimitError, SawspecError
from .foundations import (
    build_sieves,
    constant_C,
    prime_array,
    psi_array,
)
from .moments import (
    MomentEstimate,
    continuous_model_moment_exact,
    moment_tuple_sum_exact,
    sawtooth_model,
    theoretical_moment,
)
from .phi_error import (
    PhiAccumulator,
    build_phi_accumulator,
    r_values,
    rtilde_blocks,
    rtilde_moment_exact,
    rtilde_moments_exact,
    rtilde_samples,
)
from .primes import (
    PatternCensus,
    conjecture_report,
    log_integral,
    pattern_census,
)
