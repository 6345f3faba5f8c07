"""System power and energy accounting (Fig. 9, Table VI)."""

from repro.power.model import PowerMeter

__all__ = ["PowerMeter"]
