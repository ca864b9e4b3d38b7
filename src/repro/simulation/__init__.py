"""Synthetic fab substrate.

The paper evaluates on dozens of real vacuum pumps in a production
semiconductor fab — proprietary data we cannot have.  This subpackage
builds the closest synthetic equivalent: a physics-inspired rotating
machinery vibration generator, a two-population degradation process
matching the paper's Model I / Model II lifetime split, a MEMS sensor
imperfection model (Table I parameters, offset drift, quantization), the
FICS temperature source, an expert labeling simulator, and a fleet
simulator with PM/BM maintenance events.
"""

from repro.simulation.degradation import (
    DegradationProcess,
    LifetimeModelSpec,
    MODEL_I,
    MODEL_II,
    ZONE_BOUNDARY_A_BC,
    ZONE_BOUNDARY_BC_D,
    WEAR_AT_FAILURE,
    zone_for_wear,
)
from repro.simulation.signal import MachineProfile, VibrationSynthesizer
from repro.simulation.mems import MEMSSensor, MEMSSensorConfig, SENSOR_SPECS, SensorSpec
from repro.simulation.fics import TemperatureSource
from repro.simulation.labels import ExpertLabeler, LabelerConfig
from repro.simulation.fleet import FleetConfig, FleetDataset, FleetSimulator
from repro.simulation.faults import FaultInjector, FaultSpec, FaultType

__all__ = [
    "LifetimeModelSpec",
    "MODEL_I",
    "MODEL_II",
    "DegradationProcess",
    "zone_for_wear",
    "ZONE_BOUNDARY_A_BC",
    "ZONE_BOUNDARY_BC_D",
    "WEAR_AT_FAILURE",
    "MachineProfile",
    "VibrationSynthesizer",
    "SensorSpec",
    "SENSOR_SPECS",
    "MEMSSensorConfig",
    "MEMSSensor",
    "TemperatureSource",
    "ExpertLabeler",
    "LabelerConfig",
    "FleetConfig",
    "FleetSimulator",
    "FleetDataset",
    "FaultInjector",
    "FaultSpec",
    "FaultType",
]
