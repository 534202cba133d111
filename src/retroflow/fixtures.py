"""Loaders for the bundled fixtures.

att25/att_table2: the 25-node US backbone with its six-controller
placement, capacity 500, and published per-switch flow counts. ring5: a
five-node ring with distinct link lengths. toy_recovery: the serialized
five-switch, two-controller recovery instance. master_loss_events: the
protocol replay script for the master-loss walkthrough.
"""

from __future__ import annotations

import json
from importlib import resources

from ._doc import parse
from .domains import Placement, load_placement
from .geo import Topology, load_topology
from .oscm import OscmInstance


def _read(name: str) -> dict:
    return parse(resources.files("retroflow").joinpath("data", name).read_text(), ValueError)


def data_path(name: str) -> str:
    """Filesystem path of a bundled fixture (for CLI-oriented workflows)."""
    return str(resources.files("retroflow").joinpath("data", name))


def att25_topology() -> Topology:
    return load_topology(_read("att25.json"))


def att_table2_placement(t: Topology | None = None) -> Placement:
    return load_placement(_read("att_table2.json"), t or att25_topology())


def ring5_topology() -> Topology:
    return load_topology(_read("ring5.json"))


def toy_recovery_instance() -> OscmInstance:
    return OscmInstance.from_json(json.dumps(_read("toy_recovery.json")))


def master_loss_script() -> dict:
    return _read("master_loss_events.json")
