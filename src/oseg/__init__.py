"""Finite ordered semigroups: decision procedures, enumeration, theorem harness."""

from .core import (
    InvalidStructureError,
    OrderedSemigroup,
    StructureFormatError,
    canonical_json,
    downset,
    full_mask,
    load_structure,
    mask_of,
    members,
    parse_structure,
    power,
    subset_product,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "InvalidStructureError",
    "OrderedSemigroup",
    "StructureFormatError",
    "canonical_json",
    "downset",
    "full_mask",
    "load_structure",
    "mask_of",
    "members",
    "parse_structure",
    "power",
    "subset_product",
    "validate",
    "__version__",
]
