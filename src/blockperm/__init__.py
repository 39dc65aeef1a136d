"""blockperm: exact block theory of small finite group algebras."""

from .gfq import GF

__all__ = ["GF"]
__version__ = "0.1.0"
