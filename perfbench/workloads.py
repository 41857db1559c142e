"""The benchmark's workloads: fixed lists of experiments from ``configs/``.

Each experiment is one config file plus ``--set``-style overrides.  Its label
is unique over the whole lab and becomes the suffix of per-experiment metric
names (``runner.run.s.<label>``), so the N=32 and N=80 HUM cases separate.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Experiment:
    label: str
    config: str  # stem of a file under configs/
    overrides: tuple[str, ...] = ()

    def config_overrides(self, seed: int | None) -> list[str]:
        """Overrides handed to ``parse_config``; the seed is the only input the benchmark adds."""
        extra = [] if seed is None else [f"experiment.seed={seed}"]
        return list(self.overrides) + extra


WORKLOADS: dict[str, tuple[Experiment, ...]] = {
    # Per-step Python loops of the forced and cascade evolutions; no Gramian, no CG.
    "audit": (
        Experiment("audit", "criterion06_audit"),
    ),
    # Observability layer on both sides of FACTOR_LIMIT (N=32 SVD route, N=64
    # assembled-eigh fallback), plus certified negatives.
    "observe": (
        Experiment("gramian_interior", "criterion04_gramian_interior"),
        Experiment("gramian_boundary", "criterion04_gramian_boundary"),
        Experiment("gramian_interior_n64", "criterion04_gramian_interior", ("spectral.n_modes=64",)),
        Experiment("trends", "criterion07_trends"),
        Experiment("short_horizon", "criterion05_short_horizon"),
        Experiment("decoupled", "criterion05_decoupled"),
    ),
    # HUM CG in the adjoint direction: two cases under the 64-mode dense limit, one above.
    "control": (
        Experiment("hum_interior", "criterion08_hum_interior"),
        Experiment("hum_boundary", "criterion08_hum_boundary"),
        Experiment("hum_boundary_n80", "criterion08_hum_boundary", ("spectral.n_modes=80",)),
    ),
    # One HUM solve per certificate, then many forward re-simulations.
    "insensitize": (
        Experiment("insensitize_interior", "criterion09_insensitize_interior"),
        Experiment("insensitize_boundary", "criterion09_insensitize_boundary"),
        Experiment("converse", "criterion10_converse"),
    ),
}

LAB: tuple[Experiment, ...] = tuple(e for exps in WORKLOADS.values() for e in exps)
