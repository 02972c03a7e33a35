"""Recurrent grow-when-required networks with trajectory replay."""

from .labeling import LabelAssociations, classify_sample
from .model import (
    GROWING,
    STATIC,
    HyperParams,
    Network,
    StepOutcome,
    activity,
    habituate,
    init_growing,
    init_static,
)
from .replay import (
    ReplayReport,
    Rnat,
    generate_rnat,
    replay_episode,
)
from .snapshot import load_snapshot, save_snapshot

__all__ = [
    "GROWING",
    "STATIC",
    "HyperParams",
    "LabelAssociations",
    "Network",
    "ReplayReport",
    "Rnat",
    "StepOutcome",
    "activity",
    "classify_sample",
    "generate_rnat",
    "habituate",
    "init_growing",
    "init_static",
    "load_snapshot",
    "replay_episode",
    "save_snapshot",
]

__version__ = "0.1.0"
