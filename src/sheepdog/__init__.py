"""Deterministic sheepdog shepherding simulator with tour-planned guidance."""

__version__ = "0.1.0"
