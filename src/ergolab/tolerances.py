"""Numerical tolerances shared across modules and printed in every report.

`TOL` holds the thresholds of state validation (norms, trace one,
hermiticity), of entropies (the PSD clamp and the spectrum floor) and of
the Rényi ordering identity.  A threshold that one check alone uses is a
constant of that check's module, such as `ensembles.DEGENERACY_TOL`,
`circuits.UNITARITY_TOL`, `rates.IMAG_RESIDUE`, `mps.INJECTIVITY_GAP`,
`overlaps.SWEEP_TOL`, `ergodicity.ZERO_G` and the `ergodicity.TREND_*`
constants, and some checks state theirs as a literal in place (`1e-10`,
`1e-12`).  No tolerance applies to the ground shift: each spectrum
subtracts its own lowest eigenvalue, so its lowest energy is exactly 0.
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

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


TOL = Tolerances()
