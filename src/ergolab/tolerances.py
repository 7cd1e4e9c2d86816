"""Central numerical tolerances.

Every structural assertion in the package pulls its threshold from the
single record below, so reports and tests stay mutually consistent.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Tolerances:
    # unitarity, operator reconstruction, exact identities
    structural: float = 1e-10
    # state norms, trace-one, hermiticity
    normalization: float = 1e-12
    # eigenvalues in [-psd_clamp, 0) are clamped to zero; anything more
    # negative is treated as a genuinely invalid operator
    psd_clamp: float = 1e-10
    # eigenvalues below this floor are excluded from entropy sums
    spectrum_floor: float = 1e-14
    # |lowest energy| allowed after shifting the ground energy to zero
    ground_shift: float = 1e-8

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


TOL = Tolerances()
