"""actionlab: action phases, least-action causality, and intermediate measurements.

A numerical laboratory for finite quantum systems: compute the geometric
action phase of intermediate contributions to a transition amplitude, extract
least-action intermediate values and disturbance-free resolution limits,
simulate intermediate measurements of arbitrary resolution, and measure where
classical causality emerges and where it fails.
"""

from .hilbert import (
    DiagonalUnitary,
    LabeledBasis,
    PhysicalConstants,
    StateVector,
    apply_diagonal,
    expand,
    frame_shift,
    inner,
    orthonormality_deviation,
    random_state,
)

__version__ = "0.1.0"

__all__ = [
    "DiagonalUnitary",
    "LabeledBasis",
    "PhysicalConstants",
    "StateVector",
    "apply_diagonal",
    "expand",
    "frame_shift",
    "inner",
    "orthonormality_deviation",
    "random_state",
    "__version__",
]
