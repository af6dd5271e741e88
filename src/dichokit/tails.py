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

SEARCH_CAP = 1e6  # farthest distance from t0 that either search may move


def _crossing(rate: GrowthRate, t0: float, log_drop: float, way: float) -> float:
    """First time from t0 in direction `way` (+1 or -1) where log u has moved log_drop.

    The step from t0 doubles until the target is passed, then 80 bisections
    on the monotone log close in; the returned time lies past the crossing.
    A step past `SEARCH_CAP` raises TailCertificationError.
    """
    if log_drop <= 0:
        return t0
    target = way * rate.log_u(t0) + log_drop  # way * log u must reach this
    near, far = t0, t0 + way
    while way * rate.log_u(far) < target:
        near, far = far, t0 + 2 * (far - t0)
        if abs(far - t0) > SEARCH_CAP:
            way_name = "grow" if way > 0 else "decay"
            raise TailCertificationError(
                f"rate {rate.name!r} does not {way_name} enough within {SEARCH_CAP:g} of t0={t0:g}"
            )
    for _ in range(80):
        mid = 0.5 * (near + far)
        if way * rate.log_u(mid) < target:
            near = mid
        else:
            far = mid
    return far


def time_for_log_decrease(rate: GrowthRate, t0: float, log_drop: float) -> float:
    """Smallest grid-friendly V >= t0 with log u(V) >= log u(t0) + log_drop.

    An envelope (u(V)/u(t0))^-c on the tail [V, inf) has then fallen by
    c * log_drop: the caller divides its log drop by c.
    """
    return _crossing(rate, t0, log_drop, 1.0)


def time_backward_for_log_drop(rate: GrowthRate, t0: float, log_drop: float) -> float:
    """Largest W <= t0 with log u(W) <= log u(t0) - log_drop.

    Only meaningful for full-line rates (log u -> -inf backward).
    """
    return _crossing(rate, t0, log_drop, -1.0)
