"""qraclab: random access codes, the measurements that decode them, and the
classical protocols they compress into.

The public surface re-exported here covers the usual workflow: build a code
(`build_standard_2to1`, `build_random_qrac`), measure it (`build_pgm`,
`expected_hamming_exact`), certify the worst case (`solve_worstcase`), and
convert it to a classical code (`build_rac`, `validate_rac`).  Submodules
stay importable directly for the long tail (bits, corpus, serialize, cli).
"""

from .compression import (
    CompressionScheme,
    build_scheme,
    estimate_acceptance_rate,
    exact_output_distribution,
    run_protocol,
    run_protocol_batch,
)
from .conversion import (
    RacCodebook,
    SharedShift,
    build_rac,
    effective_channel,
    per_bit_success_symmetrized,
    rac_decode,
    rac_encode,
    sample_newman_set,
    validate_rac,
    verify_no_bad_event,
)
from .decoding import (
    HammingReport,
    expected_hamming_exact,
    identification_bound_check,
    markov_tail,
    sample_decode,
)
from .info import (
    ClassicalChannel,
    CqState,
    binary_entropy,
    distance_conditioning_check,
    max_channel_capacity,
    max_channel_capacity_lp,
    max_relative_entropy,
    qubit_lower_bound,
    shannon_entropy,
    von_neumann_entropy,
)
from .linalg import (
    DensityMatrix,
    Povm,
    partial_trace,
    tensor,
    trace_distance,
    trace_norm,
)
from .minimax import GameSolution, evaluate_worstcase, solve_worstcase
from .pgm import (
    PgmBundle,
    build_pgm,
    check_pgm_lower_bound,
    helstrom_measurement,
    helstrom_pmax,
    per_bit_success,
    success_prob_full,
)
from .qrac import (
    P_STANDARD,
    Ensemble,
    Qrac,
    build_identity_encoding,
    build_random_qrac,
    build_standard_2to1,
    build_tensor_power,
    hamming_budget,
    validate_qrac,
)
from .rng import stream

__version__ = "0.1.0"

__all__ = [
    "ClassicalChannel",
    "CompressionScheme",
    "CqState",
    "DensityMatrix",
    "Ensemble",
    "GameSolution",
    "HammingReport",
    "P_STANDARD",
    "PgmBundle",
    "Povm",
    "Qrac",
    "RacCodebook",
    "SharedShift",
    "binary_entropy",
    "build_identity_encoding",
    "build_pgm",
    "build_rac",
    "build_random_qrac",
    "build_scheme",
    "build_standard_2to1",
    "build_tensor_power",
    "check_pgm_lower_bound",
    "distance_conditioning_check",
    "effective_channel",
    "estimate_acceptance_rate",
    "evaluate_worstcase",
    "exact_output_distribution",
    "expected_hamming_exact",
    "hamming_budget",
    "helstrom_measurement",
    "helstrom_pmax",
    "identification_bound_check",
    "markov_tail",
    "max_channel_capacity",
    "max_channel_capacity_lp",
    "max_relative_entropy",
    "partial_trace",
    "per_bit_success",
    "per_bit_success_symmetrized",
    "qubit_lower_bound",
    "rac_decode",
    "rac_encode",
    "run_protocol",
    "run_protocol_batch",
    "sample_decode",
    "sample_newman_set",
    "shannon_entropy",
    "solve_worstcase",
    "stream",
    "success_prob_full",
    "tensor",
    "trace_distance",
    "trace_norm",
    "validate_qrac",
    "validate_rac",
    "verify_no_bad_event",
    "von_neumann_entropy",
]
