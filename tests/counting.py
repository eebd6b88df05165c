"""Call counters: a client wrapper that counts calls per method, for the
closed-world tests, and a function wrapper that counts its calls."""

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


class CountingFunction:
    """Wraps a function and counts its calls, for the encode-once tests."""

    def __init__(self, inner):
        self._inner = inner
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self._inner(*args, **kwargs)
