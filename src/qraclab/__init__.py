"""qraclab: random access codes, the measurements that decode them, and the
classical protocols they compress into.

The public surface re-exported here covers the usual workflow: build a code
(`build_standard_2to1`, `build_random_qrac`, or the product of built codes,
`build_product`), measure it (`build_pgm`, `expected_hamming_exact`)
against each bit's optimal two-outcome measurement (`helstrom_success`),
certify the worst case (`solve_worstcase`), and convert it to a classical
code (`build_rac`, `validate_rac`).  Submodules stay importable directly
for the long tail (bits, corpus, cli).

Every public function, class, method, property and result field in the
package is read by a command, a demo or the benchmark, and every defaulted
parameter is passed by one, except for the references that the tests
compare against: `evaluate_worstcase`, which re-evaluates a certificate
from its dense `Povm`, labelled 0..k-1, with sums of its own;
`max_relative_entropy`, which checks a capacity's reference distribution;
and `ExactOutput.dist`, the one field that the tests alone read, which
they compare with the law of the sampled protocol outputs.
Each evaluator takes the one measurement form its callers pass.
Tolerances, the support cutoff and the solver's gap share are module
constants.  ``tests/test_surface.py`` keeps it that way.
"""

from .compression import (
    CompressionScheme,
    build_scheme,
    estimate_acceptance_rate,
    exact_output_distribution,
    run_protocol,
)
from .conversion import (
    RacCodebook,
    build_rac,
    effective_channel,
    rac_decode,
    rac_encode,
    sample_newman_set,
    validate_rac,
    verify_no_bad_event,
)
from .decoding import HammingReport, expected_hamming_exact, identification_bound_check
from .info import (
    ClassicalChannel,
    binary_entropy,
    distance_conditioning_check,
    hamming_budget,
    max_channel_capacity,
    max_channel_capacity_lp,
    max_relative_entropy,
    qubit_lower_bound,
)
from .linalg import DensityMatrix, Povm
from .minimax import GameSolution, evaluate_worstcase, solve_worstcase
from .pgm import (
    PgmBundle,
    build_pgm,
    helstrom_success,
    per_bit_success,
    pgm_lower_bound,
    success_prob_full,
)
from .qrac import (
    P_STANDARD,
    Ensemble,
    Qrac,
    build_identity_encoding,
    build_product,
    build_random_qrac,
    build_standard_2to1,
    build_tensor_power,
    validate_qrac,
)
from .rng import stream

__version__ = "0.1.0"

__all__ = [
    "ClassicalChannel",
    "CompressionScheme",
    "DensityMatrix",
    "Ensemble",
    "GameSolution",
    "HammingReport",
    "P_STANDARD",
    "PgmBundle",
    "Povm",
    "Qrac",
    "RacCodebook",
    "binary_entropy",
    "build_identity_encoding",
    "build_pgm",
    "build_product",
    "build_rac",
    "build_random_qrac",
    "build_scheme",
    "build_standard_2to1",
    "build_tensor_power",
    "distance_conditioning_check",
    "effective_channel",
    "estimate_acceptance_rate",
    "evaluate_worstcase",
    "exact_output_distribution",
    "expected_hamming_exact",
    "hamming_budget",
    "helstrom_success",
    "identification_bound_check",
    "max_channel_capacity",
    "max_channel_capacity_lp",
    "max_relative_entropy",
    "per_bit_success",
    "pgm_lower_bound",
    "qubit_lower_bound",
    "rac_decode",
    "rac_encode",
    "run_protocol",
    "sample_newman_set",
    "solve_worstcase",
    "stream",
    "success_prob_full",
    "validate_qrac",
    "validate_rac",
    "verify_no_bad_event",
]
