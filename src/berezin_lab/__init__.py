"""Numerical workbench for Berezin-type symbol transforms on
rotation-invariant kernel spaces of the unit disk.

Kernel spaces are given by squared monomial norms; coordinate
multiplication is a weighted shift; the transform of an operator is its
compression onto normalized kernel vectors.  The subpackages probe what
that transform certifies: symbol fidelity, commutator decay toward the
boundary, character-space membership of weighted shifts, spectral radii,
closed-range trends, and peak-function constructions.
"""

from .spaces import (
    BallSpace,
    KernelSpace,
    KernelVector,
    da_norms,
    hardy_ball_norms,
    kernel_vector,
    monomial_norms,
)
from .shifts import WeightSequence, generate_weights, shift_power_norm, spectral_radius_estimate
from .operators import BlaschkeProduct
from .berezin import BerezinProfile, BerezinSample, gbt_profile, gbt_sample
from .characters import CharacterConfig, CharacterVerdict, character_membership, character_set_scan
from .peaks import PeakCandidate, annulus_peak, ball_peak, product_peak_check
from .exprs import parse as parse_operator_expr

__version__ = "0.1.0"

__all__ = [
    "BallSpace",
    "BerezinProfile",
    "BerezinSample",
    "BlaschkeProduct",
    "CharacterConfig",
    "CharacterVerdict",
    "KernelSpace",
    "KernelVector",
    "PeakCandidate",
    "WeightSequence",
    "annulus_peak",
    "ball_peak",
    "character_membership",
    "character_set_scan",
    "da_norms",
    "gbt_profile",
    "gbt_sample",
    "generate_weights",
    "hardy_ball_norms",
    "kernel_vector",
    "monomial_norms",
    "parse_operator_expr",
    "product_peak_check",
    "shift_power_norm",
    "spectral_radius_estimate",
]
