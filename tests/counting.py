"""A client wrapper that counts calls per method, for the closed-world tests."""

from __future__ import annotations

from typing import Any

from dalia.wire import DISCOVERY_CLASS_METHODS


class CountingClient:
    """Wraps a client and counts calls per method."""

    def __init__(self, inner):
        self._inner = inner
        self.endpoint = getattr(inner, "endpoint", "counting")
        self.calls: dict[str, int] = {}

    def call(self, method: str, params: dict | None = None) -> Any:
        self.calls[method] = self.calls.get(method, 0) + 1
        return self._inner.call(method, params)

    def discovery_call_count(self) -> int:
        return sum(
            count for method, count in self.calls.items()
            if method in DISCOVERY_CLASS_METHODS
        )
