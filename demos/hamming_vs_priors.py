"""How skewed can the prior get before the Hamming guarantee bites?

The expected-distance budget 2p(1-p)n holds for every prior, not just the
uniform one.  This sweeps Dirichlet priors of decreasing symmetry over a
random (4,2) code and prints how much of the budget each one uses.
"""

import argparse

import numpy as np

from qraclab import Ensemble, build_pgm, build_random_qrac, expected_hamming_exact
from qraclab.rng import stream


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=3)
    ap.add_argument("--m", type=int, default=2)
    ap.add_argument("--seed", type=int, default=29, help="29 gives p > 0.55 at (3,2)")
    ap.add_argument("--rows", type=int, default=12)
    args = ap.parse_args()

    q = build_random_qrac(args.n, args.m, seed=args.seed)
    print(f"random ({args.n},{args.m}) code, worst-case p = {q.claimed_p:.4f}")
    if q.claimed_p <= 0.5:
        print("  (warning: p <= 1/2, the budget below is vacuous)")
    print(f"{'alpha':>8}  {'E[d_H]':>10}  {'budget':>10}  {'used':>6}")

    rng = stream(args.seed, 99)
    for k in range(args.rows):
        alpha = 10.0 * 0.5**k
        prior = rng.dirichlet(np.full(2**q.n, alpha))
        ens = Ensemble(prior, q.encoder)
        rep = expected_hamming_exact(q, ens, build_pgm(ens))
        frac = rep.expected_dh / rep.bound
        print(f"{alpha:8.4f}  {rep.expected_dh:10.6f}  {rep.bound:10.6f}  {frac:5.1%}")

    print("\nskewed priors only make the decoder's life easier: the budget")
    print("is spent fastest when every string is equally likely")


if __name__ == "__main__":
    main()
