"""Server power model.

Server power is modeled as a static floor plus per-core dynamic power that
scales with utilization and the classic ``C · V² · f`` law:

    P = P_idle + Σ_cores  u_c · k_dyn · V(f_c)² · f_c

The default calibration targets the paper's platform (AMD 64-core,
turbo 3.3 GHz, overclock 4.0 GHz):

* idle ≈ 150 W, full-utilization all-core turbo ≈ 400 W (wall power of a
  dual-socket-class cloud server under load);
* one fully-busy core overclocked from turbo to 4.0 GHz adds ≈ 10 W, the
  per-core delta used in the paper's §IV-C worked example (5 cores → 50 W).

The simulation-vs-model validation of §V-B ("We validate the model for each
server generation") is reproduced by unit tests pinning these anchors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.frequency import DEFAULT_FREQUENCY_PLAN, FrequencyPlan
from repro.sim.fold import left_sum

__all__ = ["PowerModel", "DEFAULT_POWER_MODEL"]


@dataclass(frozen=True)
class PowerModel:
    """Maps (utilization, frequency) to watts for one server SKU."""

    plan: FrequencyPlan = field(default_factory=FrequencyPlan)
    idle_watts: float = 150.0
    # Dynamic-power coefficient k_dyn in W / (V^2 * GHz); calibrated so a
    # fully-busy core at turbo (1.05 V, 3.3 GHz) draws ~4 W of dynamic power.
    dynamic_coefficient: float = 1.1
    cores: int = 64

    def __post_init__(self) -> None:
        if self.idle_watts < 0:
            raise ValueError(f"idle_watts must be >= 0, got {self.idle_watts}")
        if self.dynamic_coefficient <= 0:
            raise ValueError("dynamic_coefficient must be positive, got "
                             f"{self.dynamic_coefficient}")
        if self.cores < 1:
            raise ValueError(f"cores must be >= 1, got {self.cores}")
        # Per-frequency k·V²·f memo: DVFS steps give only a handful of
        # distinct operating points, and the incremental power accounting
        # in topology.py evaluates one on every mutation (frozen dataclass,
        # so the cache is attached via object.__setattr__).
        object.__setattr__(self, "_coeff_cache", {})

    def core_dynamic_coeff(self, freq_ghz: float) -> float:
        """Dynamic watts per unit utilization at ``freq_ghz`` (k·V²·f)."""
        coeff = self._coeff_cache.get(freq_ghz)
        if coeff is None:
            volts = self.plan.voltage(freq_ghz)
            coeff = self.dynamic_coefficient * volts * volts * freq_ghz
            self._coeff_cache[freq_ghz] = coeff
        return coeff

    def core_dynamic_watts(self, utilization: float, freq_ghz: float) -> float:
        """Dynamic power of a single core at ``utilization`` in [0, 1]."""
        if not 0.0 <= utilization <= 1.0:
            raise ValueError(
                f"utilization must be in [0, 1], got {utilization}")
        return utilization * self.core_dynamic_coeff(freq_ghz)

    def server_watts(self, core_loads: list[tuple[float, float]]) -> float:
        """Power of a server given ``(utilization, freq_ghz)`` per busy core.

        Cores not listed are idle (their leakage is folded into
        ``idle_watts``).  More cores than the SKU has is an error.
        """
        if len(core_loads) > self.cores:
            raise ValueError(
                f"{len(core_loads)} core loads for a {self.cores}-core SKU")
        dynamic = left_sum(self.core_dynamic_watts(u, f)
                           for u, f in core_loads)
        return self.idle_watts + dynamic

    def uniform_server_watts(self, utilization: float, freq_ghz: float,
                             active_cores: int | None = None) -> float:
        """Power when ``active_cores`` cores all run at the same point."""
        n = self.cores if active_cores is None else active_cores
        if not 0 <= n <= self.cores:
            raise ValueError(f"active_cores must be in [0, {self.cores}]")
        return self.idle_watts + n * self.core_dynamic_watts(
            utilization, freq_ghz)

    def overclock_core_delta(self, utilization: float = 1.0,
                             freq_ghz: float | None = None) -> float:
        """Extra watts for one core going from turbo to ``freq_ghz``.

        This is the per-core increment the gOA uses to discriminate regular
        vs overclock power in a server's profile (§IV-C).
        """
        target = self.plan.overclock_max_ghz if freq_ghz is None else freq_ghz
        if target < self.plan.turbo_ghz:
            raise ValueError(
                f"overclock target {target} below turbo {self.plan.turbo_ghz}")
        return (self.core_dynamic_watts(utilization, target)
                - self.core_dynamic_watts(utilization, self.plan.turbo_ghz))

    def max_server_watts(self) -> float:
        """All cores fully busy at the overclock ceiling."""
        return self.uniform_server_watts(1.0, self.plan.overclock_max_ghz)

    def turbo_server_watts(self, utilization: float = 1.0) -> float:
        """All cores at max turbo with the given utilization."""
        return self.uniform_server_watts(utilization, self.plan.turbo_ghz)

    def invert_utilization(self, watts: float, freq_ghz: float) -> float:
        """Average utilization that yields ``watts`` with all cores at f.

        The inverse of :meth:`uniform_server_watts`; used to translate
        power traces into utilization for the workload models.  Clamped to
        [0, 1].
        """
        per_core_full = self.core_dynamic_watts(1.0, freq_ghz)
        if per_core_full <= 0:
            raise ValueError("degenerate power model: zero dynamic power")
        util = (watts - self.idle_watts) / (self.cores * per_core_full)
        return min(1.0, max(0.0, util))


DEFAULT_POWER_MODEL = PowerModel(plan=DEFAULT_FREQUENCY_PLAN)
