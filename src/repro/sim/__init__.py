"""Discrete-event simulation substrate validating the analytic model."""

from .events import Environment
from .runner import SimulationReport, simulate_snapshot, simulate_stream
from .server import Request, SimServer

__all__ = [
    "Environment",
    "SimServer",
    "Request",
    "SimulationReport",
    "simulate_snapshot",
    "simulate_stream",
]
