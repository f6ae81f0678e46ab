"""Adaptive measurement subsetting: respend half the shot budget on the
qubits whose first-phase vote was close.

Phase 1 measures every qubit with half the budget, k = S/2. Qubits whose
empirical vote margin |p0 - p1| falls below a threshold are then measured
one per subset circuit, k/m shots each for m close qubits, under reduced
flip probabilities (a small measured subset maps to better physical qubits
and suffers less crosstalk; the improvement is modeled by an explicit
``subset_noise_factor``). The final estimate fuses both phases per qubit
by adding their log-likelihood contributions, each phase evaluated under
its own noise parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import _INT64_MAX, VoteTally, _expect, _is_int, _is_real
from .core import tally  # noqa: F401  perfbench's tracer wraps every module's binding of tally
from .errors import DimensionError, InfeasibleError, ValidationError
from .estimators import Estimate, _bitstring, _loglikelihoods
from .noise import NoiseModel, _binomial_ones, _prepare, _read1_probabilities, derive_seed

# Below this many shots per subset circuit the second phase is too thin to
# trust; the plan still executes but is flagged.
MIN_SUBSET_SHOTS = 100


@dataclass(frozen=True)
class AmsPlan:
    """Shot allocation for one two-phase run, made from its phase-1 tally.

    Phase 1 spends half the budget, so a tally of k shots plans a budget of
    2k. Close qubits, 0-based, are those with |N0 - N1| / k strictly below
    ``tau``; each gets one subset circuit with k // m shots for m close
    qubits, any remainder staying unspent so the total budget is never
    exceeded. With no close qubits the plan degenerates: the second half of
    the budget measures every qubit again, and the vote runs on both halves.
    ``insufficient`` flags plans whose subset circuits fall below
    ``MIN_SUBSET_SHOTS`` shots each.
    """

    phase1: VoteTally
    tau: float
    n: int = field(init=False)
    total_shots: int = field(init=False)
    phase1_shots: int = field(init=False)
    close_qubits: tuple[int, ...] = field(init=False)
    per_subset_shots: int = field(init=False)
    insufficient: bool = field(init=False)

    def __post_init__(self):
        _expect(self.phase1, VoteTally)
        if not _is_real(self.tau) or not 0.0 < self.tau < 1.0:
            raise ValidationError(f"tau must lie strictly inside (0, 1), got {self.tau}")
        k = self.phase1.shots
        close = tuple(int(i) for i in np.flatnonzero(self.phase1.margins < self.tau))
        m = len(close)
        per_subset = k // m if m else 0
        object.__setattr__(self, "tau", float(self.tau))
        object.__setattr__(self, "n", self.phase1.n)
        object.__setattr__(self, "total_shots", 2 * k)
        object.__setattr__(self, "phase1_shots", k)
        object.__setattr__(self, "close_qubits", close)
        object.__setattr__(self, "per_subset_shots", per_subset)
        object.__setattr__(self, "insufficient", m > 0 and per_subset < MIN_SUBSET_SHOTS)

    @property
    def subset_count(self) -> int:
        return len(self.close_qubits)


def ams_plan(vote_tally: VoteTally, tau: float) -> AmsPlan:
    """The phase-2 allocation for a phase-1 tally: ``AmsPlan(vote_tally, tau)``."""
    return AmsPlan(vote_tally, tau)


def merge_votes(
    phase1_tally: VoteTally,
    noise: NoiseModel,
    qubits: Sequence[int],
    subsets: VoteTally | None,
    subset_noise: NoiseModel,
) -> str:
    """Combine phase-1 and subset evidence into a final bitstring.

    Entry i of ``subsets`` holds the counts of the circuit that measured
    ``qubits[i]`` alone; ``subsets`` is None when no subset circuit ran.
    For those qubits both phases' log-likelihood contributions are added,
    each under its own noise model. Every other qubit is decided by a
    weighted vote on the phase-1 tally alone.
    """
    n = phase1_tally.n
    if noise.n != n or subset_noise.n != n:
        raise DimensionError("noise models must cover the same qubits as the tally")
    if subsets is not None and not isinstance(subsets, VoteTally):
        raise ValidationError(f"subsets must be a VoteTally, got {type(subsets).__name__}")
    if not all(map(_is_int, qubits)):
        raise ValidationError("subset qubits must be integers")
    qubits = [int(i) for i in qubits]  # Python integers: no qubit is too large to compare
    circuits = 0 if subsets is None else subsets.n
    if len(qubits) != circuits:
        raise DimensionError(f"{len(qubits)} subset qubits for {circuits} subset circuits")
    if not all(0 <= i < n for i in qubits) or len(set(qubits)) != len(qubits):
        raise DimensionError(f"subset qubits must be distinct and lie in 0..{n - 1}")
    q = np.array(qubits, dtype=np.intp)
    ll0, ll1 = _loglikelihoods(phase1_tally.zeros, phase1_tally.ones, noise.p01, noise.p10)
    if subsets is not None:
        p01, p10 = subset_noise.p01[q], subset_noise.p10[q]
        c0, c1 = _loglikelihoods(subsets.zeros, subsets.ones, p01, p10)
        ll0[q], ll1[q] = ll0[q] + c0, ll1[q] + c1
    # tie resolves to 1
    return _bitstring(ll0 <= ll1)


def ams_execute(
    x0: str,
    noise: NoiseModel,
    plan: AmsPlan,
    subset_noise_factor: float = 0.5,
    seed: int = 0,
) -> Estimate:
    """Simulate the second half of ``plan``'s budget and estimate x0.

    Each subset circuit measures its close qubit ``plan.per_subset_shots``
    times, with flip probabilities scaled by ``subset_noise_factor``, and is
    fused with the plan's phase-1 tally. With no close qubit every qubit is
    measured ``plan.phase1_shots`` more times under ``noise`` and the vote
    runs on the phase-1 tally with those counts added. Bit flips are
    independent, so each is a binomial draw of per-qubit ones counts, from
    the seed's "subset" or "top-up" stream, in O(n) memory.
    """
    if noise.n != plan.n:
        raise DimensionError(f"noise model covers {noise.n} qubits, plan has {plan.n}")
    x0_bits, k = _prepare(x0, noise, plan.phase1_shots)
    if not _is_real(subset_noise_factor) or not 0.0 < subset_noise_factor <= 1.0:
        raise ValidationError(f"subset_noise_factor must lie in (0, 1], got {subset_noise_factor}")
    if plan.close_qubits and plan.per_subset_shots < 1:
        raise ValidationError(
            f"{plan.phase1_shots} phase-1 shots leave per_subset_shots = {plan.per_subset_shots} "
            f"for {plan.subset_count} close qubits; raise the shot budget or lower tau"
        )
    if plan.total_shots > _INT64_MAX:  # the pooled per-qubit counts would wrap
        raise InfeasibleError(
            f"a budget of {plan.total_shots} shots is more than the 2**63 - 1 a count holds"
        )

    subset_noise = NoiseModel(noise.p01 * subset_noise_factor, noise.p10 * subset_noise_factor)
    close = list(plan.close_qubits)
    phase1, subsets = plan.phase1, None
    if close:
        read1 = _read1_probabilities(x0_bits, subset_noise)[close]
        ones = _binomial_ones(read1, plan.per_subset_shots, derive_seed(seed, "subset"))
        subsets = VoteTally(zeros=plan.per_subset_shots - ones, ones=ones)
    else:
        ones = _binomial_ones(_read1_probabilities(x0_bits, noise), k, derive_seed(seed, "top-up"))
        phase1 = VoteTally(zeros=phase1.zeros + (k - ones), ones=phase1.ones + ones)
    value = merge_votes(phase1, noise, close, subsets, subset_noise)

    # informational margins: pooled counts where a subset ran, phase 1 alone elsewhere
    zeros, ones = phase1.zeros.copy(), phase1.ones.copy()
    if subsets is not None:
        zeros[close] += subsets.zeros
        ones[close] += subsets.ones
    margins = np.abs(zeros - ones) / (zeros + ones)
    return Estimate(value=value, method="ams", margins=margins)


def adaptive_vote(
    x0: str,
    noise: NoiseModel,
    tau: float,
    total_shots: int,
    subset_noise_factor: float = 0.5,
    seed: int = 0,
) -> tuple[AmsPlan, Estimate]:
    """Full adaptive run: simulate phase 1, plan the subsets, execute.

    Phase 1 measures every qubit ``total_shots // 2`` times; its per-qubit
    ones counts are binomial draws from the seed's "phase1" stream. The plan
    keeps that tally, and :func:`ams_execute` spends the other half.
    """
    if not _is_int(total_shots) or not 2 <= total_shots <= _INT64_MAX or total_shots % 2:
        raise ValidationError(f"total_shots must be even and in 2..2**63 - 1, got {total_shots}")
    x0_bits, k = _prepare(x0, noise, int(total_shots) // 2)
    ones = _binomial_ones(_read1_probabilities(x0_bits, noise), k, derive_seed(seed, "phase1"))
    plan = ams_plan(VoteTally(zeros=k - ones, ones=ones), tau)
    return plan, ams_execute(x0, noise, plan, subset_noise_factor, seed)
