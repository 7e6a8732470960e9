"""Multiperiod precast-beam production planning with integrated bar cutting."""

__version__ = "0.1.0"
