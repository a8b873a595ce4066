"""Send a channel's output in about c_max bits via rejection sampling.

Alice and Bob share a long list of samples from the channel's best output
mixture.  Alice scans her x-specific acceptance test down the list and
sends only the index of the first hit; Bob looks the sample up.  The index
fits in roughly the channel's max-capacity worth of bits.
"""

import numpy as np

from qraclab import (
    build_scheme,
    build_standard_2to1,
    effective_channel,
    exact_output_distribution,
    max_channel_capacity,
    run_protocol,
)
from qraclab.compression import index_bits_cap

ETA = 0.1
SHARED_SEED = 2024


def main():
    q = build_standard_2to1()
    channel = effective_channel(q)
    print("readout channel of the standard (2,1) code (identity shift)")
    print(np.array_str(channel.table, precision=4, suppress_small=True))

    cap = max_channel_capacity(channel)
    print(f"\nmax capacity c_max = {cap.value:.4f} bits")

    scheme = build_scheme(channel, ETA)
    print(f"eta = {ETA}: keep {scheme.n_cap} shared samples,")
    print(f"index costs {scheme.index_bits} bits (cap {index_bits_cap(scheme.c_max, ETA)})")

    for x in range(channel.in_size):
        exact = exact_output_distribution(scheme, x)
        print(f"  x={x:02b}: fail prob {exact.fail_prob:.2e}, "
              f"tv error {exact.tv_error:.2e} <= {ETA}")

    print("\nfive runs for x=01:")
    for rep in range(5):
        run = run_protocol(scheme, 1, SHARED_SEED, replicate=rep)
        print(f"  sent index {run.sent_index:3d} "
              f"({run.message_bits} bits) -> y={run.output_y:02b}")


if __name__ == "__main__":
    main()
