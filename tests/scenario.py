"""The restaurant-booking demo, read from configs/ through the CLI's loaders.

``configs/food_server.json`` and ``configs/directory.json`` are the only
declaration of the demo; everything here is parsed or picked out of them.
"""

from __future__ import annotations

import json
from pathlib import Path

from dalia.capabilities import CapabilityId
from dalia.directory import DirectorySnapshot, load_snapshot
from dalia.wire import ServerConfig, parse_server_config

_CONFIGS = Path(__file__).resolve().parent.parent / "configs"
_FOOD_SERVER_TEXT = (_CONFIGS / "food_server.json").read_bytes()
_DIRECTORY_TEXT = (_CONFIGS / "directory.json").read_bytes()

SEARCH_ID = CapabilityId.parse("restaurant.search")
RESERVE_ID = CapabilityId.parse("restaurant.reserve")

_FOOD_SERVER = json.loads(_FOOD_SERVER_TEXT)
FOOD_SERVER_ID = _FOOD_SERVER["server_id"]
RESTAURANT_LIST = _FOOD_SERVER["handlers"]["restaurant.search"]["script"][0]["restaurant_list"]
BOOKING_CONFIRMATION = _FOOD_SERVER["handlers"]["restaurant.reserve"]["script"][0][
    "booking_confirmation"
]
# The demo's capability and task documents; tests copy them before changing them.
SEARCH_DOC, RESERVE_DOC = _FOOD_SERVER["capabilities"]
(BOOKING_DOC,) = _FOOD_SERVER["tasks"]

# Goal bindings for the demo task's three inputs.
SCENARIO_INPUTS = {
    "location": "city centre",
    "date": "tomorrow",
    "party_size": "4",
}


def food_server_doc(
    fail_on: dict[CapabilityId, tuple[int, ...]] | None = None,
    scripts: dict[CapabilityId, tuple[dict, ...]] | None = None,
) -> dict:
    """configs/food_server.json as a fresh dict. ``fail_on`` adds scripted
    faults; a ``scripts`` map replaces every handler's script, so a
    capability it leaves out gets none."""
    doc = json.loads(_FOOD_SERVER_TEXT)
    for key, handler in doc["handlers"].items():
        cid = CapabilityId.parse(key)
        if scripts:
            handler["script"] = list(scripts.get(cid, ()))
        if fail_on and cid in fail_on:
            handler["fail_on"] = list(fail_on[cid])
    return doc


def food_server_config(
    fail_on: dict[CapabilityId, tuple[int, ...]] | None = None,
    scripts: dict[CapabilityId, tuple[dict, ...]] | None = None,
) -> ServerConfig:
    """The demo food server, parsed as ``dalia server serve`` parses it."""
    return parse_server_config(food_server_doc(fail_on, scripts))


def scenario_directory() -> DirectorySnapshot:
    """The demo directory, loaded as a ``local:`` directory endpoint loads it."""
    return load_snapshot(_DIRECTORY_TEXT)
