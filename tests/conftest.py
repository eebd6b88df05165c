from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import scenario
from dalia.discovery import discover
from dalia.planner import Goal
from dalia.wire import DirectoryService, LocalClient, WireServer


@pytest.fixture
def food_client():
    return LocalClient(WireServer(scenario.food_server_config()), endpoint="local:food")


@pytest.fixture
def directory_client():
    return LocalClient(DirectoryService(scenario.scenario_directory()), endpoint="local:dir")


@pytest.fixture
def scenario_context(food_client, directory_client):
    return discover([food_client], directory_client, set(scenario.SCENARIO_INPUTS))


@pytest.fixture
def scenario_goal():
    return Goal(intent="book_restaurant", bindings=dict(scenario.SCENARIO_INPUTS))
