"""The leading Puiseux constants C0, C1 of the basic period integrals.

The basic integrals J_j(H) = (2/3) * int_0^1 (H + x^2)^((j-2)/3) dx, j = 0, 1,
split as an analytic part plus C_j * H^((2j-1)/6), with
C_0 = (sqrt(pi)/3) Gamma(1/6)/Gamma(2/3) > 0 and
C_1 = (sqrt(pi)/3) Gamma(-1/6)/Gamma(1/3) < 0.
"""

from __future__ import annotations

import math


def puiseux_constants() -> dict[str, float]:
    """The constants C0 > 0 and C1 < 0 of the leading Puiseux terms."""
    sqrt_pi = math.sqrt(math.pi)
    c0 = sqrt_pi / 3.0 * math.gamma(1.0 / 6.0) / math.gamma(2.0 / 3.0)
    c1 = sqrt_pi / 3.0 * math.gamma(-1.0 / 6.0) / math.gamma(1.0 / 3.0)
    return {"C0": c0, "C1": c1}
