"""Shot-budget calculus for the qubit-wise majority vote.

Quantities provided, all for symmetric flip probability p < 0.5 with
margin epsilon = 0.5 - p:

* ``qmv_error_bound(S, p)`` -- closed-form upper bound on the chance that
  one qubit's majority over S shots (S even) comes out wrong:

      (4 p (1-p))^(S/2) * sqrt(2 / (pi S)) * (1-p) / (1-2p)

  It dominates the exact binomial tail; the two inequality steps behind it
  (geometric tail bound, then a Stirling estimate of the central binomial
  coefficient) are exposed as ``tail_term`` and ``geometric_ratio`` so a
  dominance failure can be localized.
* ``shot_error_probability_exact(S, p)`` -- the exact binomial tail that
  bound is checked against, for any S >= 1 and p in [0, 1].
* ``required_shots(n, epsilon)`` -- the rule S = 0.5 ln(n) / epsilon^2,
  rounded up to an even integer. Logarithmic in the qubit count.
* ``per_qubit_target_bound(n, epsilon)`` -- the per-qubit error level the
  rule is designed to reach: (0.5 + epsilon) / sqrt(pi ln n) / n.
* ``m3_shot_requirement(n, p)`` -- (1-p)^(-n), the order-of-magnitude shot
  count a measured-strings-only mitigator needs before the correct string
  shows up at all. Exponential in the qubit count; reported for
  comparison only.

Each figure is a Python number, whatever numpy type came in. One function,
``_figures(n, p)``, computes them for both ``qmvote bound`` and the
``budget`` section of an experiment report, so the two print the same figures.
"""

from __future__ import annotations

import math

import numpy as np

from .core import _is_int, _is_real
from .errors import InfeasibleError, InvalidRegimeError, ValidationError

# The exact tail holds two float64 arrays of one entry per losing flip count;
# a shot count that would take them past this size is refused.
_TAIL_MAX_BYTES = 1 << 30


def _check_float_range(value: int, name: str) -> int:
    """Refuse an integer beyond float range, which the float formulas below
    cannot take."""
    try:
        float(value)
    except OverflowError:
        raise ValidationError(f"{name} must lie within float range (about 1.8e308)") from None
    return value


def _check_even_shots(shots: int) -> int:
    if not _is_int(shots):
        raise ValidationError(f"shots must be an integer, got {shots!r}")
    if shots < 2 or shots % 2:
        raise ValidationError(f"the bound is derived for even shots >= 2, got {shots}")
    return _check_float_range(int(shots), "shots")


def _check_sub_half_p(p: float) -> float:
    if not _is_real(p) or not 0.0 <= p <= 1.0:
        raise ValidationError(f"p must lie in [0, 1], got {p}")
    if p >= 0.5:
        raise InvalidRegimeError(f"the bound diverges for p >= 0.5, got {p}")
    return float(p)


def _python_number(value: float) -> int | float:
    """A checked real number as the equal Python int or float, for the formulas below."""
    return int(value) if _is_int(value) else float(value)


def _log_binomial(shots: int, k: int) -> float:
    """log C(shots, k)."""
    return math.lgamma(shots + 1) - math.lgamma(k + 1) - math.lgamma(shots - k + 1)


def tail_term(shots: int, zeros: int, p: float) -> float:
    """One term of the error tail: C(shots, zeros) (1-p)^zeros p^(shots-zeros).

    The probability of reading the true value exactly ``zeros`` times out
    of ``shots`` when the flip probability is p.
    """
    _check_even_shots(shots)
    if not _is_int(zeros) or not 0 <= zeros <= shots:
        raise ValidationError(f"zeros must lie in 0..{shots}, got {zeros}")
    if not _is_real(p) or not 0.0 <= p <= 1.0:
        raise ValidationError(f"p must lie in [0, 1], got {p}")
    if p == 0.0:
        return 0.0 if zeros < shots else 1.0
    if p == 1.0:
        return 1.0 if zeros == 0 else 0.0
    log_c = _log_binomial(shots, zeros)
    return math.exp(log_c + zeros * math.log1p(-p) + (shots - zeros) * math.log(p))


def geometric_ratio(shots: int, p: float) -> float:
    """Ratio bounding successive tail terms: (S / (S + 2)) * p / (1 - p).

    Strictly below p / (1-p) < 1 for p < 0.5, which is what lets the tail
    be bounded by its largest term times a geometric series.
    """
    shots, p = _check_even_shots(shots), _check_sub_half_p(p)
    return (shots / (shots + 2)) * p / (1.0 - p)


def qmv_error_bound(shots: int, p: float) -> float:
    """Closed-form upper bound on the per-qubit majority-vote error."""
    shots = _check_even_shots(shots)
    p = _check_sub_half_p(p)
    if p == 0.0:
        return 0.0
    log_bound = (
        0.5 * shots * math.log(4.0 * p * (1.0 - p))
        + 0.5 * (math.log(2.0) - math.log(math.pi * shots))
        + math.log1p(-p)
        - math.log1p(-2.0 * p)
    )
    return math.exp(log_bound)


def shot_error_probability_exact(shots: int, p: float, ties: str = "error") -> float:
    """Exact probability that a per-qubit majority over ``shots`` i.i.d.
    measurements with symmetric flip probability ``p`` comes out wrong.

    Sums the binomial tail sum_{f} C(shots, f) p^f (1-p)^(shots-f) over all
    flip counts f that defeat the vote. With ``ties="error"`` an exact tie
    (f = shots/2, even shots) counts against the vote, matching the
    tie-to-1 vote rule when the ground truth is 0; ``ties="success"``
    counts ties as correct. Computed in log space, stable up to shots
    around 10**6. Shot counts whose tail arrays would pass 1 GiB, about
    1.3e8 shots, raise InfeasibleError before anything is allocated.
    """
    if not _is_int(shots) or shots < 1:
        raise ValidationError(f"shots must be a positive integer, got {shots!r}")
    if not _is_real(p) or not 0.0 <= p <= 1.0:
        raise ValidationError(f"p must lie in [0, 1], got {p}")
    if ties not in ("error", "success"):
        raise ValidationError(f"ties must be 'error' or 'success', got {ties!r}")
    shots = int(shots)
    if ties == "error":
        lo = (shots + 1) // 2  # ceil(S/2); includes the tie term for even S
    else:
        lo = shots // 2 + 1
    tail_bytes = 2 * 8 * (shots - lo + 1)
    if tail_bytes > _TAIL_MAX_BYTES:
        raise InfeasibleError(
            f"the exact tail over {shots} shots needs {tail_bytes} bytes of arrays, "
            f"more than the {_TAIL_MAX_BYTES} allowed"
        )
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0 if lo <= shots else 0.0
    f = np.arange(lo, shots + 1, dtype=np.float64)
    # log C(S, f) is log C(S, lo) plus the summed logs of the exact step
    # ratios C(S, f + 1) / C(S, f) = (S - f) / (f + 1), so lgamma runs once.
    # Every step works in place: at S = 10**6 a temporary is a fresh 4 MB.
    log_terms = np.empty_like(f)
    log_terms[0] = _log_binomial(shots, lo)
    steps = log_terms[1:]
    np.subtract(shots, f[:-1], out=steps)
    steps /= f[1:]
    np.log(steps, out=steps)
    np.cumsum(steps, out=steps)
    steps += log_terms[0]
    log_terms += f * math.log(p)
    np.subtract(shots, f, out=f)
    f *= math.log1p(-p)
    log_terms += f
    peak = log_terms.max()
    log_terms -= peak
    total = math.exp(peak) * float(np.exp(log_terms, out=log_terms).sum())
    return min(total, 1.0)


def required_shots(n: float, epsilon: float) -> int:
    """Shots needed by the 0.5 ln(n) / epsilon^2 rule, rounded up to even."""
    if not _is_real(n) or not n >= 2:
        raise ValidationError(f"the shot rule needs at least 2 qubits, got {n}")
    if not _is_real(epsilon) or not 0.0 < epsilon <= 0.5:
        raise ValidationError(f"epsilon must lie in (0, 0.5], got {epsilon}")
    n, epsilon = _python_number(n), float(epsilon)
    try:
        shots = math.ceil(0.5 * math.log(n) / epsilon**2)
    except (ZeroDivisionError, OverflowError):  # epsilon**2 underflows to zero or near it
        raise InfeasibleError(
            f"the shot rule needs more shots than float range holds at epsilon={epsilon}"
        ) from None
    return shots + (shots % 2)


def per_qubit_target_bound(n: float, epsilon: float) -> float:
    """Per-qubit error level reached at the recommended shot count:
    (0.5 + epsilon) / sqrt(pi ln n) / n."""
    if not _is_real(n) or not n >= 2:
        raise ValidationError(f"the target bound needs at least 2 qubits, got {n}")
    if not _is_real(epsilon) or not 0.0 < epsilon <= 0.5:
        raise ValidationError(f"epsilon must lie in (0, 0.5], got {epsilon}")
    n, epsilon = _check_float_range(_python_number(n), "qubit count"), float(epsilon)
    return (0.5 + epsilon) / math.sqrt(math.pi * math.log(n)) / n


def m3_shot_requirement(n: float, p: float) -> float:
    """Shots at which a measured-strings-only mitigator expects to see the
    correct output once: (1-p)^(-n), constant factor 1; ``math.inf`` past
    float range."""
    if not _is_real(n) or not n >= 1:
        raise ValidationError(f"qubit count must be at least 1, got {n}")
    if not _is_real(p) or not 0.0 <= p < 1.0:
        raise ValidationError(f"p must lie in [0, 1), got {p}")
    n, p = _python_number(n), float(p)
    try:
        return (1.0 - p) ** (-n)
    except OverflowError:
        return math.inf


def _finite_or_none(value: float) -> float | None:
    """``value``, or None (JSON null, an empty CSV field) where it is
    infinite, which JSON has no number for."""
    return value if math.isfinite(value) else None


def _figures(n: int | float, p: float, shots: int | None = None) -> dict:
    """Every budget figure for n qubits at flip probability p; ``shots``
    defaults to the shot rule's count. ``bound_any_qubit`` is the union bound
    n times the per-qubit figure, capped at 1."""
    p = _check_sub_half_p(p)
    epsilon = 0.5 - p
    if shots is None:
        shots = required_shots(n, epsilon)
    if not _is_real(n) or not n >= 2:
        raise ValidationError(f"budget queries need at least 2 qubits, got {n}")
    n = _check_float_range(_python_number(n), "qubit count")
    shots = _check_even_shots(shots)
    per_qubit = qmv_error_bound(shots, p)
    return {
        "n": n,
        "p": p,
        "epsilon": epsilon,
        "shots": shots,
        "required_shots": required_shots(n, epsilon),
        "bound_per_qubit": per_qubit,
        "bound_any_qubit": min(1.0, n * per_qubit),
        "per_qubit_target": per_qubit_target_bound(n, epsilon),
        "m3_shots_estimate": _finite_or_none(m3_shot_requirement(n, p)),
    }
