"""Queue-side losses as the fading threshold rises.

A higher threshold means fewer transmit opportunities: the service rate
drops toward the arrival rate, the waiting-time tail fattens, and the
finite buffer overflows more often.  The stability bound is where the
two rates meet and the deadline drop becomes certain.
"""

import numpy as np

from uavlink.channel import Rician, transmit_prob
from uavlink.queueing import QueueParams, offered_load, p_delay, p_overflow
from uavlink.throughput import beta_upper

model = Rician(b=4.0)
queue = QueueParams(
    arrival_rate=80.0,
    slot_duration=0.002,
    delay_threshold=0.045,
    buffer_capacity_normalized=30.0,
)
channels = 15

upper = beta_upper(model, queue, channels)
print(f"stability bound for this link: beta_upper = {upper:.4f}")
print()
print(f"{'beta':>6} {'phi':>9} {'load':>7} {'P(deadline)':>12} {'P(overflow)':>12}")
for beta in np.linspace(0.0, upper, 12):
    phi = transmit_prob(model, float(beta), channels)  # the per-slot service rate
    print(
        f"{beta:6.3f} {phi:9.5f} {offered_load(phi, queue):7.4f} "
        f"{p_delay(phi, queue):12.6f} {p_overflow(phi, queue):12.3e}"
    )

print()
print("At the bound the transmit probability exactly matches the offered")
print(f"traffic ({queue.arrival_rate * queue.slot_duration:.3f} packets/slot), "
      "so the deadline drop probability is 1.")
