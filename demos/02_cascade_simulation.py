"""Evolving the coupled cascade pair.

The first wave is free; the second is driven through a localized coupling.
The demo shows exactness of the free component, which rotates in closed
form, conservation of its two energy levels along the coupled flow, the
energy balance of the driven component, and a forward/backward round trip
that returns the initial data to roundoff: the stepper is exactly
reversible, and the free component rotates back in closed form.
"""

import numpy as np

from wavecascade import (
    CascadeState,
    CoefficientFunction,
    CouplingOperator,
    PlateauBump,
    SpectralSpace,
    TimeGrid,
    evolve_cascade,
    evolve_cascade_backward,
)

space = SpectralSpace(16)
coupling = CouplingOperator(
    CoefficientFunction((PlateauBump(0.2, 0.3, 0.05, 1.0),), core_region=(0.2, 0.3)), space
)
grid = TimeGrid(2.0, 2048)
rng = np.random.default_rng(5)
initial = CascadeState.from_vector(rng.standard_normal(4 * space.n_modes), space)

trajectory = evolve_cascade(initial, coupling, grid)
print(f"evolved {grid.n_steps} steps to T = {grid.horizon} (dt * omega_N = {grid.dt * space.frequencies[-1]:.3f})")

for level, name in ((1, "natural"), (0, "weak")):
    series = trajectory.energy_series(1, level)
    drift = np.max(np.abs(series - series[0])) / series[0]
    print(f"first component {name} energy drift: {drift:.2e}")

e1 = trajectory.energy_series(2, 1)
integrand = np.einsum("ki,ij,kj->k", trajectory.block("u1"), coupling.matrix, trajectory.block("v2"))
residual = abs(e1[-1] - e1[0] + float(grid.node_weights @ integrand)) / max(e1[0], e1[-1])
print(f"driven component energy balance residual: {residual:.2e}")
print(f"driven energy moved from {e1[0]:.3f} to {e1[-1]:.3f} through the coupling")

back = evolve_cascade_backward(trajectory.final_state, coupling, grid)
round_trip = np.linalg.norm(back.states[0] - initial.as_vector()) / np.linalg.norm(initial.as_vector())
print(f"forward/backward round trip error: {round_trip:.2e}")
