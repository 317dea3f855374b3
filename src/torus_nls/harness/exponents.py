"""Hoelder exponent arithmetic for the comparable-frequency estimates.

Two exponent menus are in play for 2 < p < 3: a low-frequency-output case
using (r0, r1) and a high-frequency-output case using (r0..r4).  Every
exponent must exceed 10/3 (the Strichartz admissibility floor), which
bounds how large epsilon may be; epsilon_max is located by bisection.

Each menu spends a Hoelder budget of exactly 1 (see
HoelderExponentSet.sum_identity).  In the high case the p+1 factors of the
nonlinearity are the dual function in L^{r0}, three copies of u in L^{r1},
L^{r2}, L^{r3}, and the block |u|^{p-2} as a single factor in L^{r4}; the
budget is the five-factor sum 1/r0 + 1/r1 + 1/r2 + 1/r3 + 1/r4.

Why the block counts once: normalise each factor at frequency N in H^{s_c},
s_c = 3/2 - 2/p, and bound it in L^q_{t,x} by the scale-invariant Strichartz
estimate, at a cost of N^{2/p - 5/q} per copy of u; the dual factor costs
N^{s_c + 3/2 - 5/r0}.  With the p-2 copies inside the block each in
L^{(p-2) r4}, the powers of N add up to 5 (1 - budget), so the estimate is
scale-critical exactly when the five-factor budget is 1.  Putting each copy
in L^{r4} instead spends (p-2)/r4 on the block; that budget is
1 + 3 (1-eps)(p-3)/10 and leaves N^{3(1-eps)(3-p)/2} over, which is not an
estimate at s_c.

Open point: the 10/3 floor is checked on r4 as if it were a Strichartz
exponent, but under the block reading each copy of u lies in L^{(p-2) r4},
which is below 10/3 whenever eps < 3 - p.  How that block bound is obtained
is not settled here.  The floor on r4 never binds: r4 = 10/(3(1-eps))
exceeds 10/3 for every eps in (0, 1), and r0 sets epsilon_max(p, "high").
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import EpsilonTooLarge

STRICHARTZ_FLOOR = 10.0 / 3.0
EPSILON_TOL = 1e-12  # width of the bracket epsilon_max's bisection stops at


@dataclass(frozen=True)
class HoelderExponentSet:
    p: float
    eps: float
    case: str  # "low" or "high"
    r0: float
    r1: float
    r2: float | None = None
    r3: float | None = None
    r4: float | None = None

    @property
    def exponents(self) -> dict:
        out = {"r0": self.r0, "r1": self.r1}
        if self.case == "high":
            out.update({"r2": self.r2, "r3": self.r3, "r4": self.r4})
        return out

    def sum_identity(self) -> float:
        """The Hoelder budget that the estimate spends.

        Low case: 3/r0 + 1/r1.  High case: the five-factor sum 1/r0 + 1/r1
        + 1/r2 + 1/r3 + 1/r4, where the block |u|^{p-2} is one factor in
        L^{r4} (unit weight, not p-2; the module docstring gives the scaling
        argument).  A valid, scale-critical Hoelder application needs the
        value 1, which both menus meet identically in p and eps.
        """
        if self.case == "low":
            return 3.0 / self.r0 + 1.0 / self.r1
        return (
            1.0 / self.r0 + 1.0 / self.r1 + 1.0 / self.r2 + 1.0 / self.r3
            + 1.0 / self.r4
        )


def _validate(name: str, value: float) -> float:
    if not value > STRICHARTZ_FLOOR:
        raise EpsilonTooLarge(name, value)
    return value


def hoelder_exponents(p: float, eps: float, case: str = "low") -> HoelderExponentSet:
    """Exponent menus r0..r4 for 2 < p < 3 and small eps > 0."""
    if not 2.0 < p < 3.0:
        raise ValueError(f"exponent menus are defined for 2 < p < 3, got p = {p}")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if case == "low":
        r0 = _validate("r0", 15.0 * p / (5.0 * p - 2.0 * (1.0 - eps)))
        r1 = _validate("r1", 5.0 * p / (2.0 * (1.0 - eps)))
        return HoelderExponentSet(p, eps, "low", r0, r1)
    if case == "high":
        r01 = _validate(
            "r0", 20.0 * p / ((1.0 - eps) * p**2 + (1.0 + 5.0 * eps) * p + 4.0 * eps)
        )
        r2 = _validate(
            "r2", 10.0 * p / (2.0 * p**2 - 4.0 - 3.0 * (1.0 - eps / 3.0) * p * (p - 2.0))
        )
        r3 = _validate("r3", 5.0 * p / (2.0 * (1.0 - eps)))
        r4 = _validate("r4", 10.0 / (3.0 * (1.0 - eps)))
        return HoelderExponentSet(p, eps, "high", r01, r01, r2, r3, r4)
    raise ValueError(f"case must be 'low' or 'high', got {case!r}")


def epsilon_max(p: float, case: str = "low") -> float:
    """Largest eps keeping every r_i > 10/3, located by bisection."""
    lo, hi = 0.0, 1.0
    # eps -> 1 is never admissible, and r0 is the exponent that binds in
    # both cases: at eps = 1 it is 3 (low) or 20p/(6p+4) (high), both below
    # 10/3, and the surface is eps = 1 - p/4 (low) or about 0.60-0.61
    # (high).  r4 = 10/(3(1-eps)) passes the floor for every eps < 1.  So
    # bisection, which probes only eps in (0, 1), needs no test at the ends.
    def ok(e: float) -> bool:
        try:
            hoelder_exponents(p, e, case)
            return True
        except EpsilonTooLarge:
            return False

    while hi - lo > EPSILON_TOL:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo
