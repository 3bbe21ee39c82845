"""Commutator-free quasi-Magnus propagators, error bounds, and cost planning."""

__version__ = "0.1.0"
