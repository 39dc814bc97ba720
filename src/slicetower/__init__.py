"""Slice towers of S^n smash HZ over cyclic p-groups, with an
independent Bredon homology verifier."""

from .document import VERSION
from .group import Group
from .tower import build_tower, verify_tower

__version__ = VERSION

__all__ = ["Group", "build_tower", "verify_tower", "__version__"]
