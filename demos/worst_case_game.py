"""Certify the worst-case string, not just the average one.

The multiplicative-weights loop plays adversary against the square-root
measurement: it reweights toward the strings the current measurement
decodes worst, and the running average of the measurements it provokes
ends up good against every string at once.
"""

import numpy as np

from qraclab import (
    build_random_qrac,
    build_standard_2to1,
    build_tensor_power,
    hamming_budget,
    solve_worstcase,
)


def report(label, q, eps=0.02):
    sol = solve_worstcase(q, eps=eps)
    bound = hamming_budget(q.claimed_p, q.n)
    print(f"{label}: n={q.n} m={q.m}")
    print(f"  certificate  max_x E[d_H] = {sol.worst_x_value:.6f}")
    print(f"  target       2p(1-p)n+eps*n = {bound + eps * q.n:.6f}")
    print(f"  duality gap  {sol.gap:.6f} ({sol.gap / q.n:.4f} per bit)")
    print(f"  iterations   {sol.iterations}, converged={sol.converged}")
    counts = np.bincount(sol.prior_trace, minlength=2**q.n)
    top = np.argsort(counts)[::-1][:3]
    picks = ", ".join(f"x={x:0{q.n}b} ({counts[x]})" for x in top if counts[x])
    print(f"  adversary favored {picks}")
    print()


def main():
    base = build_standard_2to1()
    report("standard code", base)
    report("tensor square", build_tensor_power(base, 2))
    report("tensor cube", build_tensor_power(base, 3))
    # symmetric codes certify in one step; a lopsided random code makes the
    # adversary actually chase the weak strings for a while
    report("random (3,2) code", build_random_qrac(3, 2, seed=29))
    print("every iterate obeys the average-case budget, so the adversary")
    print("never finds a string that breaks 2p(1-p)n by more than eps*n")


if __name__ == "__main__":
    main()
