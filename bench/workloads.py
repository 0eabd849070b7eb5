"""The benchmark's workloads: one exitwalk configuration each.

This module imports only the standard library, so run.py can validate
names without loading numpy.  Why each workload exists is in NOTES.md.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    method: str  # a harness.METHODS entry
    x0: tuple[float, ...]
    trajectories: int  # per job
    workers: int
    h: float = 1e-3  # Euler step; unused by the other methods
    table_count: int = 0  # tau_1 table entries built during set-up (wos_table only)
    epsilon: float = 1e-5
    gamma: float = 0.99
    radius: float = 1.0

    @property
    def delta(self) -> int:
        return len(self.x0)

    @property
    def expected_exit_time(self) -> float:
        """E[tau] = (L^2 - |x0|^2) / delta for Brownian motion in the ball."""
        return (self.radius**2 - sum(v * v for v in self.x0)) / self.delta


WORKLOADS = {
    w.name: w
    for w in (
        Workload("woms-disk", "woms", (0.5, 0.0), 200_000, 1),
        Workload("wos-inversion-disk", "wos_inversion", (0.5, 0.0), 50_000, 1),
        Workload("wos-table-ball3", "wos_table", (0.5, 0.0, 0.0), 200_000, 2, table_count=200_000),
        Workload("euler-center", "euler", (0.0, 0.0), 1_000, 2, h=1e-5),
    )
}
