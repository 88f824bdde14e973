"""Feasible threshold range of a source node.

The upper bound comes from queue stability (the transmit probability must
keep up with arrivals).  The lower bound comes from the curvature of the
reduced loss (deadline drop plus raw error): below it the loss curve is
concave and a local search would be misled.  Derivatives here are the
analytic forms, spot-checked against finite differences.
"""

import numpy as np

from uavlink import channel as ch
from uavlink import throughput as tp
from uavlink.scenario_io import scenario_from_mapping

scenario = scenario_from_mapping(
    {
        "placement_seed": 3,
        "nodes": [
            {
                "id": "src",
                "role": "source",
                "position": [1.0, 1.0, 0.0],
                "transmit_power": 0.75,
                "fading": "rician",
                "beta": 5.1,
                "queue": {
                    "arrival_rate": 120.0,
                    "delay_threshold": 0.045,
                    "buffer_capacity_normalized": 100.0,
                },
            },
            *[
                {
                    "id": f"i{k}",
                    "role": "interferer",
                    "position": "sampled",
                    "transmit_power": "sampled",
                    "fading": "rician",
                    "beta": 5.1,
                }
                for k in range(6)
            ],
        ],
    }
)

view = tp.source_view(scenario)
upper = view.upper  # the view computes its stability bound once and keeps it
lower = tp.beta_lower(view)
print(f"feasible threshold range: [{lower:.4f}, {upper:.4f}]")
print()


def reduced_loss(beta: float) -> float:
    """Deadline drop plus the raw error: p_error weighted by the transmit mass 1 - F(beta)."""
    b = tp.evaluate_view(view, beta)
    return b.p_delay + b.p_error * (1.0 - ch.fading_cdf(view.model, beta))


print(f"{'beta':>6} {'reduced loss':>13} {'slope':>12} {'curvature':>12}")
for beta in np.linspace(0.05 * upper, 0.98 * upper, 10):
    loss = reduced_loss(float(beta))
    slope, curvature = tp.loss_derivative(view, float(beta))
    print(f"{beta:6.3f} {loss:13.6f} {slope:+12.5f} {curvature:+12.5f}")

print()
h = 1e-5
beta = 0.5 * upper
slope, _ = tp.loss_derivative(view, beta)
fd = (reduced_loss(beta + h) - reduced_loss(beta - h)) / (2 * h)
print(f"finite-difference spot check at beta={beta:.3f}: "
      f"analytic {slope:+.8f} vs central difference {fd:+.8f}")
