"""Certified truncation points for improper integrals.

Every improper integral in this toolkit has an integrand dominated by a
dichotomy envelope, a power of a rate ratio, whose tail integrates in
closed form.  Truncation is then a matter of finding where the rate's log
has moved by a given amount: forward for a tail on [V, inf), backward for
one on (-inf, W].  Both searches march out by doubling and then bisect on
the monotone log; a rate that does not move far enough within the cap is
refused rather than silently truncated.
"""

from __future__ import annotations

from .errors import TailCertificationError
from .growth import GrowthRate


def time_for_log_decrease(rate: GrowthRate, t0: float, coeff: float, log_drop: float, cap: float = 1e6) -> float:
    """Smallest grid-friendly V >= t0 with coeff*(log u(V) - log u(t0)) <= -log_drop.

    Used to place truncation points where a dichotomy envelope proportional
    to (u(V)/u(t0))^coeff (coeff < 0) has certifiably fallen by the given
    log amount.  March-and-bisect on the monotone log.
    """
    if coeff >= 0:
        raise ValueError("need a negative envelope exponent")
    if log_drop <= 0:
        return t0
    target = rate.log_u(t0) + log_drop / (-coeff)
    lo, hi = t0, t0 + 1.0
    while rate.log_u(hi) < target:
        lo, hi = hi, t0 + 2 * (hi - t0)
        if hi - t0 > cap:
            raise TailCertificationError(
                f"rate {rate.name!r} does not grow enough within {cap:g} of t0={t0:g} to certify the tail"
            )
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if rate.log_u(mid) < target:
            lo = mid
        else:
            hi = mid
    return hi


def time_backward_for_log_drop(rate: GrowthRate, t0: float, log_drop: float, cap: float = 1e6) -> float:
    """Largest W <= t0 with log u(W) <= log u(t0) - log_drop.

    Only meaningful for full-line rates (log u -> -inf backward).
    """
    if log_drop <= 0:
        return t0
    target = rate.log_u(t0) - log_drop
    lo, hi = t0 - 1.0, t0
    while rate.log_u(lo) > target:
        lo, hi = t0 - 2 * (t0 - lo), lo
        if t0 - lo > cap:
            raise TailCertificationError(
                f"rate {rate.name!r} does not decay enough within {cap:g} of t0={t0:g}"
            )
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if rate.log_u(mid) > target:
            hi = mid
        else:
            lo = mid
    return lo
