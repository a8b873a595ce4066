"""One-way message compression of a classical channel by rejection sampling.

Alice and Bob share an iid stream drawn from the reference distribution Z
(the normalized column maxima of the channel table).  Alice accepts the
first sample z_i with probability E(x)(z_i) / (2^{a(x)} Z(z_i)), which makes
each attempt succeed with probability exactly 2^{-a(x)} and the accepted
sample distributed exactly as E(x).  She transmits the accepting index with
a fixed-width message; index 0 is reserved as the failure flag, on which
Bob answers with a private uniform sample.

Samples are drawn in the scheme's own labels: a relabelled channel
E'(x)(y) = E(pi x)(pi y), such as a Newman shift's, runs this scheme on pi x
and maps the accepted draw back by pi^-1.  A message draws from counter
streams: a shared one, Alice's one (any private choice, then her coins) and
Bob's, forked only on the failure flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError
from .info import ClassicalChannel, max_channel_capacity
from .rng import TAG_ALICE, TAG_BATCH, TAG_BOB, TAG_SHARED, counter_stream, stream

FAIL_INDEX = 0


@dataclass(frozen=True, eq=False)
class CompressionScheme:
    """Frozen protocol parameters for one channel: the reference
    distribution ``z``, each input's ratio max_y E(x)(y) / Z(y), c_max and
    the attempt cap n_cap, which the error target fixed.  The overhead and
    the index width are derived from these."""

    channel: ClassicalChannel
    z: np.ndarray
    ratio: np.ndarray
    c_max: float
    n_cap: int

    @cached_property
    def a(self) -> np.ndarray:
        """Per-input overhead a(x) = log2 max_y E(x)(y) / Z(y), the log of
        ``ratio``, and 0 where the ratio is 0."""
        ratio = self.ratio
        a = np.log2(ratio, out=np.zeros_like(ratio), where=ratio > 0.0)
        a.flags.writeable = False
        return a

    @property
    def index_bits(self) -> int:
        """Width of the sent index, which runs over 0..n_cap."""
        return self.n_cap.bit_length()

    @cached_property
    def bins(self) -> np.ndarray:
        """Cumulative reference mass of outcomes 0..K-2: a uniform u in [0, 1)
        samples outcome ``bins.searchsorted(u, "right")``, and the last
        outcome takes whatever rounding leaves of the total."""
        bins = np.cumsum(self.z[:-1])
        bins.flags.writeable = False
        return bins

    @cached_property
    def accept(self) -> np.ndarray:
        """(in, out) table of Alice's chance of accepting draw y on input x:
        E(x)(y) / (2^{a(x)} Z(y)), and 0 where Z(y) = 0."""
        with np.errstate(divide="ignore", invalid="ignore"):
            accept = np.where(
                self.z > 0.0, self.channel.table / (self.ratio[:, None] * self.z), 0.0
            )
        accept.flags.writeable = False
        return accept


@dataclass(frozen=True)
class ProtocolRun:
    """One execution transcript."""

    sent_index: int
    output_y: int
    message_bits: int


@dataclass(frozen=True, eq=False)
class ExactOutput:
    """Closed-form law of the protocol output for one input."""

    dist: np.ndarray
    fail_prob: float
    tv_error: float


def _check_eta(eta: float) -> None:
    """DomainError unless 0 < eta < 1; NaN fails too."""
    if not 0.0 < eta < 1.0:
        raise DomainError(f"eta must lie in (0, 1), got {eta}")


def _log_inverse(eta: float) -> float:
    """ln(1/eta); DomainError where 1/eta overflows, as at a subnormal eta."""
    inverse = 1.0 / eta
    if math.isinf(inverse):
        raise DomainError(f"eta {eta} is too small: 1/eta overflows")
    return math.log(inverse)


def _fail_chance(ratio, n_cap: int):
    """Chance that n_cap attempts all reject, each accepting with chance
    1/ratio: (1 - 1/ratio)^n_cap, for one ratio or an array of them."""
    return (1.0 - 1.0 / ratio) ** n_cap


def index_bits_cap(c_max: float, eta: float) -> int:
    """Most index bits a scheme of capacity ``c_max`` and error ``eta`` may
    use: ceil(c_max) + ceil(log2 ln(1/eta)) + 2."""
    _check_eta(eta)
    return math.ceil(c_max) + math.ceil(math.log2(_log_inverse(eta))) + 2


def build_scheme(channel: ClassicalChannel, eta: float) -> CompressionScheme:
    """Fix the reference distribution, per-input overhead a(x), and the
    attempt cap n_cap = ceil(2^{c_max} ln(1/eta))."""
    _check_eta(eta)
    table = channel.table
    cap = max_channel_capacity(channel)
    z = cap.sigma
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(z > 0.0, table / z, 0.0)
    ratio = ratios.max(axis=1)
    ratio.flags.writeable = False
    # 2^{c_max} held in linear scale to keep n_cap arithmetic exact
    n_cap = math.ceil(cap.column_max_sum * _log_inverse(eta))
    n_cap = max(n_cap, 1)
    return CompressionScheme(
        channel=channel,
        z=z,
        ratio=ratio,
        c_max=cap.value,
        n_cap=n_cap,
    )


def _transcript(
    scheme: CompressionScheme, x: int, shared: np.random.Generator, alice: np.random.Generator
) -> tuple[int, int | None]:
    """Alice's side of one run on input x: n_cap shared draws, then her
    n_cap acceptance coins.  Returns (sent index, accepted draw), or
    (FAIL_INDEX, None) when no attempt accepts."""
    draws = scheme.bins.searchsorted(shared.random(scheme.n_cap), "right")
    hits = alice.random(scheme.n_cap) < scheme.accept[x][draws]
    first = hits.argmax()
    if hits[first]:
        return int(first) + 1, int(draws[first])
    return FAIL_INDEX, None


def run_protocol(
    scheme: CompressionScheme, x: int, shared_seed: int, replicate: int = 0
) -> ProtocolRun:
    """Execute one protocol instance on the streams of (x, replicate)."""
    if not 0 <= x < scheme.channel.in_size:
        raise DomainError(f"input {x} outside alphabet of size {scheme.channel.in_size}")
    shared = counter_stream(shared_seed, TAG_SHARED, x, replicate)
    alice = counter_stream(shared_seed, TAG_ALICE, x, replicate)
    sent, output = _transcript(scheme, x, shared, alice)
    if output is None:
        # Bob's stream is forked only when he needs it
        bob = counter_stream(shared_seed, TAG_BOB, x, replicate)
        output = int(bob.integers(scheme.channel.out_size))
    return ProtocolRun(sent_index=sent, output_y=output, message_bits=scheme.index_bits)


def exact_output_distribution(scheme: CompressionScheme, x: int) -> ExactOutput:
    """Closed-form output law: E(x) on acceptance, uniform on failure."""
    if not 0 <= x < scheme.channel.in_size:
        raise DomainError(f"input {x} outside alphabet of size {scheme.channel.in_size}")
    row = scheme.channel.table[x]
    k = scheme.channel.out_size
    # each attempt accepts with probability exactly 2^{-a(x)} = 1/ratio
    fail_prob = _fail_chance(scheme.ratio[x], scheme.n_cap)
    dist = (1.0 - fail_prob) * row + fail_prob / k
    dist.flags.writeable = False
    tv = 0.5 * np.abs(row - 1.0 / k).sum()
    return ExactOutput(dist=dist, fail_prob=float(fail_prob), tv_error=float(fail_prob * tv))


def estimate_acceptance_rate(
    scheme: CompressionScheme, x: int, seed: int, runs: int = 100_000
) -> float:
    """Empirical per-attempt acceptance frequency over ``runs`` fresh first
    attempts; converges to 2^{-a(x)}."""
    if not runs >= 1:
        raise DomainError(f"runs must be at least 1, got {runs}")
    if not 0 <= x < scheme.channel.in_size:
        raise DomainError(f"input {x} outside alphabet of size {scheme.channel.in_size}")
    shared = stream(seed, TAG_BATCH, TAG_SHARED, x, 1)
    alice = stream(seed, TAG_BATCH, TAG_ALICE, x, 1)
    draws = scheme.bins.searchsorted(shared.random(runs), "right")
    return float(np.mean(alice.random(runs) < scheme.accept[x, draws]))

