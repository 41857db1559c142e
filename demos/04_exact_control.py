"""Exact control of the cascade by a single input.

A control acting only on the second component, through a weight supported
on (0.6, 0.7) or through the left boundary trace, drives BOTH components of
the pair to rest, including the first component, which the control never
touches directly: it is steered indirectly through the coupling on
(0.2, 0.3).  The synthesis is variational (one dense solve of the control
Gramian on adjoint final data) and the resulting trajectory satisfies the
transposition identity to roundoff.
"""

import numpy as np

from wavecascade import (
    CascadeState,
    CoefficientFunction,
    CouplingOperator,
    HUMProblem,
    Observer,
    PlateauBump,
    SpectralSpace,
    TimeGrid,
    solve_hum,
)

space = SpectralSpace(32)
coupling = CouplingOperator(
    CoefficientFunction((PlateauBump(0.2, 0.3, 0.05, 1.0),), core_region=(0.2, 0.3)), space
)
grid = TimeGrid.for_space(space, 4.0, 0.4)
rng = np.random.default_rng(42)
initial = CascadeState.from_vector(rng.standard_normal(4 * space.n_modes), space)

# the observer's kind is the case: it fixes the data space of the terminal norms
for observer in (
    Observer("interior", weight=CoefficientFunction((PlateauBump(0.6, 0.7, 0.05, 1.0),), core_region=(0.6, 0.7))),
    Observer("boundary", b_left=1.0),
):
    problem = HUMProblem(initial, coupling, observer, grid)
    solution = solve_hum(problem)
    print(f"{observer.kind} control:")
    print(f"  solve residual: {solution.final_residual:.2e} x right-hand side norm")
    print(f"  control time-squared norm: {solution.control.squared_time_norm():.4f}")
    print(f"  transposition identity residual: {solution.duality_residual:.2e}")
    for name in ("y1", "y2", "dy1", "dy2"):
        rel = solution.terminal_norms[name] / solution.initial_norm
        print(f"  terminal {name}: {rel:.2e} x initial data norm")
    print()
