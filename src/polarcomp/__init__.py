"""Polar spaces over small fields, subspace complements, and reconstruction."""

__version__ = "0.1.0"
