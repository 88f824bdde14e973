"""From interferer set to SINR error probability.

Each interferer contributes to the observed channel only when it
transmits and lands on the same channel; the aggregate's first two
moments are matched by a Gamma law whose tail gives the probability that
interference drowns a packet of given fading strength.
"""

import numpy as np

from uavlink.channel import LinkChannel, Rayleigh, fading_cdf
from uavlink.interference import (
    InterfererLink,
    NoiseModel,
    fit_interference,
    interference_ccdf,
    interference_moments,
    p_error,
)

noise = NoiseModel()  # thermal floor, negligible next to interference here
main = LinkChannel(fading=Rayleigh(2.0), path_loss_amplitude=5e-4)

interferers = [
    InterfererLink(
        transmit_power=0.8, path_loss_amplitude=5e-4, fading=Rayleigh(2.0), beta=1.0
    )
    for _ in range(5)
]

mean, variance = interference_moments(interferers, num_channels=15)
fit = fit_interference(interferers, num_channels=15)
print(f"aggregate interference: mean = {mean:.3e} W, variance = {variance:.3e} W^2")
print(f"moment-matched Gamma: shape = {fit.shape:.4f}, scale = {fit.scale:.3e}")
print()
print("tail of the fitted law:")
for x in np.linspace(0.0, 6.0 * mean, 7):
    print(f"  P[I > {x:.3e}] = {interference_ccdf(fit, x):.5f}")

print()
print("error probability vs the number of interferers (threshold policy beta=1.0):")
for count in range(0, 6):
    law = fit_interference(interferers[:count], num_channels=15)
    value = p_error(main, 0.5, 1.0, noise, gamma_th=8.0, fit=law)
    print(f"  {count} interferer(s): P(error | transmitted) = {value:.5f}")

print()
print("raw (unconditioned) variant of the same integral, for comparison:")
value = p_error(main, 0.5, 1.0, noise, 8.0, fit=fit) * (1.0 - fading_cdf(main.fading, 1.0))
print(f"  times the fading mass 1 - F(beta) with 5 interferers: {value:.5f}")
