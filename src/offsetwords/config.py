"""The refusal budget: every configurable cap in one object.

The library refuses work above a cap instead of truncating it.  ``Budget``
holds the caps and checks them, and every refusal names the value, the cap,
the config key and the ``OFFSETWORDS_<KEY>`` environment variable that
raises it.  ``load_settings`` resolves a budget with precedence
defaults < config file < environment.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

from .errors import BudgetExceededError

ENV_PREFIX = "OFFSETWORDS_"


@dataclass(frozen=True)
class Budget:
    """Caps on exhaustive enumeration, spectral truncation and the Parseval order."""

    oracle_max_strings: int = 10_000_000
    oracle_max_total_length: int = 24
    oracle_max_alphabet: int = 8
    spectral_trunc_cap: int = 40
    parseval_k_cap: int = 12

    def _refuse_above(self, key: str, value: int, what: str) -> None:
        cap = getattr(self, key)
        if value > cap:
            raise BudgetExceededError(
                f"{what} = {value} exceeds cap {cap}; raise {key} in the config file "
                f"or {ENV_PREFIX}{key.upper()}"
            )

    def check_oracle(self, d: int, total_length: int) -> None:
        """Refuse exhaustive enumeration of the d^total_length strings."""
        self._refuse_above("oracle_max_alphabet", d, "alphabet size d")
        self._refuse_above("oracle_max_total_length", total_length, "total length")
        self._refuse_above("oracle_max_strings", d**total_length, "string count d^length")

    def check_spectral(self, truncation: int) -> None:
        """Refuse a spectral table truncated above the cap."""
        self._refuse_above("spectral_trunc_cap", truncation, "truncation T")

    def check_parseval(self, k: int) -> None:
        """Refuse Parseval pair sums above order k (O(k^d) offsets)."""
        self._refuse_above("parseval_k_cap", k, "pair order k")


DEFAULT_BUDGET = Budget()

_KEYS = tuple(f.name for f in fields(Budget))


def load_file(path: str) -> dict:
    """Parse a key=value config file; '#' starts a comment, blank lines ignored."""
    values: dict = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0]
            if not line.strip():
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = _as_int(value, f"{path}:{lineno}: {key}")
    return values


def _as_int(text: str, source: str) -> int:
    """A cap, nonnegative, read by int(), which skips its own whitespace around
    the digits; str.strip would also drop separators such as U+001F that int() refuses."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        shown = text.strip(" \t\r\n")
        raise ValueError(f"{source} must be a nonnegative integer, got {shown!r}")
    return value


def load_settings(config_path: str | None = None) -> Budget:
    """Resolve the budget with precedence: defaults < file < env."""
    budget = Budget()
    if config_path:
        budget = replace(budget, **load_file(config_path))
    env_values = {}
    for name in _KEYS:
        var = ENV_PREFIX + name.upper()
        raw = os.environ.get(var)
        if raw is not None:
            env_values[name] = _as_int(raw, var)
    if env_values:
        budget = replace(budget, **env_values)
    return budget
