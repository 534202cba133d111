"""Loaders for the bundled fixtures.

att25/att_table2: the 25-node US backbone with its six-controller
placement, capacity 500, and published per-switch flow counts. ring5: a
five-node ring with distinct link lengths. toy_recovery: the serialized
five-switch, two-controller recovery instance. master_loss_events: the
protocol replay script for the master-loss walkthrough.

Each is read through the library's file reader for its kind, so a fixture
is parsed exactly as the CLI parses the same file.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path as FsPath

from ._doc import parse
from .domains import Placement, load_placement_file
from .geo import Topology, load_topology_file
from .oscm import OscmInstance
from .protocol import ProtocolError


def data_path(name: str) -> str:
    """Filesystem path of a bundled fixture (for CLI-oriented workflows)."""
    return str(resources.files("retroflow").joinpath("data", name))


def att25_topology() -> Topology:
    return load_topology_file(data_path("att25.json"))


def att_table2_placement(t: Topology) -> Placement:
    return load_placement_file(data_path("att_table2.json"), t)


def ring5_topology() -> Topology:
    return load_topology_file(data_path("ring5.json"))


def toy_recovery_instance() -> OscmInstance:
    return OscmInstance.from_file(data_path("toy_recovery.json"))


def master_loss_script() -> dict:
    """The raw script document, as protocol-trace parses it."""
    return parse(FsPath(data_path("master_loss_events.json")).read_text(), ProtocolError)
