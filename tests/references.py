"""The oracle rules in plain Python, as references for the batch methods.

Each takes ground-truth scores and a band, not instances, and shares no code
with the package.
"""

import math


def eta_reference(noise, g: float, band: float = 0.0) -> float:
    """P[Y = +1] at score g as each label-noise model defines it."""
    if noise.kind == "adversarial":
        # sign(g), ties to +1, flipped inside the band
        return 1.0 if (g >= 0) != (abs(g) < band) else 0.0
    if g == 0:
        return 0.5
    if noise.kind == "tsybakov" and noise.kappa > 1:
        return 0.5 + math.copysign(min(0.5, 0.5 * (abs(g) / noise.mu) ** (noise.kappa - 1)), g)
    return 0.5 + math.copysign(0.5 - noise.beta, g)


def compare_reference(g_a: float, g_b: float, band: float = 0.0) -> int:
    """The comparison oracle's answer to (a, b): +1 when a ranks higher.

    sign(g_a - g_b), so a tie ranks a, the one asked first, higher; flipped
    when both scores lie within band of 0 on opposite sides.
    """
    answer = 1 if g_a - g_b >= 0 else -1
    if abs(g_a) < band and abs(g_b) < band and (g_a >= 0) != (g_b >= 0):
        return -answer
    return answer
