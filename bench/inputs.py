"""Seeded input generators for the three workloads.

Every generator is a pure function of its seed: it returns the server config
documents, the directory snapshot document, the goal schedule, and for each
intent the node and edge sets a correct plan must have. Those expected sets
are built here from the shapes, independently of ``dalia.planner``, so the
benchmark can check plans against them.

Expected nodes are ``(capability_id, agent_id, server_id)`` triples and
expected edges are ``(producer capability_id, consumer capability_id, slot)``
triples; node ids are the planner's business and are not predicted.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, field

# Every task consumes this one goal slot, so each goal binds the same input
# and feasibility runs its full slot closure over every task in the context.
GOAL_SLOT = "req"


@dataclass
class Task:
    """One generated task: its declaration document and its expected graph."""

    server_id: str
    intent: str
    doc: dict
    capability_docs: list[dict]
    edges: set[tuple[str, str, str]]


@dataclass
class Inputs:
    """Everything one workload needs, derived from the seed."""

    servers: dict[str, dict]  # server_id -> server config document
    snapshot: dict  # directory snapshot document
    tasks: dict[str, Task]  # intent -> task
    schedule: list[str]  # intents in goal order (cycled when exhausted)
    extra: dict = field(default_factory=dict)

    def bindings(self, intent: str) -> dict[str, str]:
        return {GOAL_SLOT: f"{intent} request"}

    def expected_nodes(self, intent: str, agent_of) -> set[tuple[str, str, str]]:
        """Expected node triples; ``agent_of(capability_id)`` names the agent."""
        task = self.tasks[intent]
        return {
            (doc["capability_id"], agent_of(doc["capability_id"]), task.server_id)
            for doc in task.capability_docs
        }


def _token(rng: random.Random, used: set[str], length: int = 6) -> str:
    while True:
        text = rng.choice(string.ascii_lowercase) + "".join(
            rng.choice(string.ascii_lowercase + string.digits) for _ in range(length - 1)
        )
        if text not in used:
            used.add(text)
            return text


def _capability(cid: str, inputs: list[str], outputs: list[str]) -> dict:
    return {
        "capability_id": cid,
        "role": "bench",
        "domain": "bench",
        "inputs": inputs,
        "outputs": outputs,
        # Each input's *_known fact is asserted by its producer or by the goal
        # binding, so every precondition holds and the simulation runs fully.
        "preconditions": [f"{inputs[0]}_known"],
        "postconditions": [f"{cid.replace('.', '_')}_done"],
    }


def _shape(kind: str, n: int, prefix: str) -> tuple[list[tuple[list[str], list[str]]], list[str]]:
    """(inputs, outputs) per capability and the task outputs, for one shape.

    chain: n capabilities in a line. fanin: n-1 producers feeding one sink.
    diamond: layers of 8 where each node reads two neighbours of the layer
    before, so consecutive layers form overlapping diamonds.
    """
    if kind == "chain":
        caps = []
        previous = GOAL_SLOT
        for i in range(n):
            slot = f"{prefix}_{i}"
            caps.append(([previous], [slot]))
            previous = slot
        return caps, [previous]
    if kind == "fanin":
        produced = [f"{prefix}_{i}" for i in range(n - 1)]
        caps = [([GOAL_SLOT], [slot]) for slot in produced]
        caps.append((produced, [f"{prefix}_out"]))
        return caps, [f"{prefix}_out"]
    if kind == "diamond":
        width = 8 if n % 8 == 0 else 4
        layers = n // width
        caps = []
        for layer in range(layers):
            for i in range(width):
                if layer == 0:
                    inputs = [GOAL_SLOT]
                else:
                    below = f"{prefix}_{layer - 1}"
                    inputs = [f"{below}_{i}", f"{below}_{(i + 1) % width}"]
                caps.append((inputs, [f"{prefix}_{layer}_{i}"]))
        return caps, [f"{prefix}_{layers - 1}_{i}" for i in range(width)]
    raise ValueError(f"unknown shape {kind!r}")


def _task(
    rng: random.Random,
    used: set[str],
    server_id: str,
    kind: str,
    n: int,
    prefix: str,
) -> Task:
    # The prefix fixes the order of a server's tasks among its sorted
    # capability ids, which sets how far directory resolution scans; with it
    # fixed, the work per goal does not depend on the seed.
    namespace = prefix + _token(rng, used)
    shape, outputs = _shape(kind, n, prefix)
    ids = [f"{namespace}.{_token(rng, used)}" for _ in shape]
    docs = [_capability(cid, ins, outs) for cid, (ins, outs) in zip(ids, shape)]
    producer = {slot: doc["capability_id"] for doc in docs for slot in doc["outputs"]}
    edges = {
        (producer[slot], doc["capability_id"], slot)
        for doc in docs
        for slot in doc["inputs"]
        if slot != GOAL_SLOT
    }
    intent = f"{kind}_{_token(rng, used)}"
    doc = {
        "task_id": f"{namespace}.{kind}",
        "intent": intent,
        "inputs": [GOAL_SLOT],
        "outputs": outputs,
        "capabilities": ids,
    }
    return Task(server_id, intent, doc, docs, edges)


def _server_doc(rng: random.Random, server_id: str, tasks: list[Task]) -> dict:
    capabilities = [doc for task in tasks for doc in task.capability_docs]
    rng.shuffle(capabilities)
    return {
        "server_id": server_id,
        "capabilities": capabilities,
        "tasks": [task.doc for task in tasks],
    }


def _agent(agent_id: str, servers: list[str]) -> dict:
    return {
        "agent_id": agent_id,
        "role": "task_executor",
        "domains": ["bench"],
        "accessible_servers": servers,
    }


def _snapshot(agents: list[dict], bindings: dict[str, list[str]]) -> dict:
    return {
        "origin": "bench",
        "agents": {agent["agent_id"]: agent for agent in agents},
        "server_capabilities": bindings,
    }


def eligible_agents(snapshot: dict, capability_id: str) -> list[str]:
    """The directory's resolution rule, restated over the snapshot document."""
    bound = snapshot["server_capabilities"]
    return sorted(
        agent_id
        for agent_id, agent in snapshot["agents"].items()
        if any(capability_id in bound.get(s, ()) for s in agent["accessible_servers"])
    )


def plan_large(seed: int) -> Inputs:
    """One server with three 120-capability tasks (chain, fan-in, 8-wide
    diamond lattice) and a directory of four agents.

    Besides the real server, the directory binds three mirror server ids to
    a seeded third of each task's capabilities each; agents reach different
    mirrors, so the smallest eligible agent differs from capability to
    capability.
    """
    rng = random.Random(seed)
    used: set[str] = set()
    server_id = "plan_" + _token(rng, used)
    tasks = [
        _task(rng, used, server_id, kind, 120, prefix)
        for kind, prefix in (("chain", "c"), ("fanin", "f"), ("diamond", "d"))
    ]
    all_ids = [doc["capability_id"] for task in tasks for doc in task.capability_docs]
    mirrors = [f"mirror_{_token(rng, used)}" for _ in range(3)]
    bindings = {server_id: sorted(all_ids)}
    thirds: list[list[str]] = [[], [], []]
    for task in tasks:
        ids = [doc["capability_id"] for doc in task.capability_docs]
        rng.shuffle(ids)
        for i, cid in enumerate(ids):
            thirds[i % 3].append(cid)
    for mirror, third in zip(mirrors, thirds):
        bindings[mirror] = sorted(third)
    names = sorted(f"agent_{_token(rng, used)}" for _ in range(4))
    # The largest agent reaches the real server, so every capability has an
    # eligible agent; the others reach one mirror each.
    agents = [_agent(name, [mirror]) for name, mirror in zip(names, mirrors)]
    agents.append(_agent(names[3], [server_id]))
    intents = [task.intent for task in tasks]
    rng.shuffle(intents)
    return Inputs(
        servers={server_id: _server_doc(rng, server_id, tasks)},
        snapshot=_snapshot(agents, bindings),
        tasks={task.intent: task for task in tasks},
        schedule=intents,
    )


def run_wide(seed: int) -> Inputs:
    """Eight servers of six 20-capability tasks each (48 intents) and sixteen
    agents that each reach one to three servers."""
    rng = random.Random(seed)
    used: set[str] = set()
    server_ids = sorted(f"wide_{_token(rng, used)}" for _ in range(8))
    kinds = ("chain", "fanin", "diamond")
    servers = {}
    tasks: list[Task] = []
    for server_id in server_ids:
        own = [
            _task(rng, used, server_id, kinds[t % 3], 20, f"s{t}")
            for t in range(6)
        ]
        servers[server_id] = _server_doc(rng, server_id, own)
        tasks += own
    bindings = {
        server_id: sorted(
            doc["capability_id"] for task in tasks if task.server_id == server_id
            for doc in task.capability_docs
        )
        for server_id in server_ids
    }
    names = [f"agent_{_token(rng, used)}" for _ in range(16)]
    # Agents reach 1, 2, 3, 2, ... consecutive servers of a seeded cyclic
    # order, so every server is reachable by exactly four agents and the
    # resolution work per goal does not depend on the seed.
    cycle = server_ids[:]
    rng.shuffle(cycle)
    reach, position = [], 0
    for size in [1, 2, 3, 2] * 4:
        reach.append(sorted(cycle[(position + j) % 8] for j in range(size)))
        position += size
    agents = [_agent(name, r) for name, r in zip(names, reach)]
    intents = [task.intent for task in tasks]
    rng.shuffle(intents)
    return Inputs(
        servers=servers,
        snapshot=_snapshot(agents, bindings),
        tasks={task.intent: task for task in tasks},
        schedule=intents,
    )


def tcp_mixed(seed: int) -> Inputs:
    """Two servers with one 24-step chain task each, a directory of four
    agents that reach both, and a schedule of directory writes.

    ``extra["writes"]`` alternates registering an agent whose id sorts before
    every other agent and removing it again, so each write changes the
    smallest eligible agent.
    """
    rng = random.Random(seed)
    used: set[str] = set()
    server_ids = sorted(f"tcp_{_token(rng, used)}" for _ in range(2))
    tasks = [_task(rng, used, server_id, "chain", 24, "c") for server_id in server_ids]
    servers = {task.server_id: _server_doc(rng, task.server_id, [task]) for task in tasks}
    bindings = {
        task.server_id: sorted(doc["capability_id"] for doc in task.capability_docs)
        for task in tasks
    }
    names = sorted(f"agent_m{_token(rng, used)}" for _ in range(4))
    agents = [_agent(name, server_ids) for name in names]
    first = rng.randrange(2)
    schedule = [tasks[first].intent, tasks[1 - first].intent]
    writes = []
    for _ in range(64):
        newcomer = _agent(f"agent_a{_token(rng, used)}", server_ids)
        writes.append(("directory/register_agent", {"record": newcomer}, newcomer["agent_id"]))
        writes.append(("directory/remove_agent", {"agent_id": newcomer["agent_id"]}, names[0]))
    return Inputs(
        servers=servers,
        snapshot=_snapshot(agents, bindings),
        tasks={task.intent: task for task in tasks},
        schedule=schedule,
        extra={"writes": writes, "base_agent": names[0]},
    )


GENERATORS = {"plan_large": plan_large, "run_wide": run_wide, "tcp_mixed": tcp_mixed}
