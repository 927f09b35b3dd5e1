"""Layered runtime configuration: defaults < config file < environment."""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

ENV_PREFIX = "OFFSETWORDS_"


@dataclass(frozen=True)
class Settings:
    oracle_max_strings: int = 10_000_000
    oracle_max_total_length: int = 24
    oracle_max_alphabet: int = 8
    spectral_trunc_cap: int = 40
    parseval_k_cap: int = 12
    grid_default: int = 64

    @staticmethod
    def field_names() -> tuple:
        return tuple(f.name for f in fields(Settings))


def load_file(path: str) -> dict:
    """Parse a key=value config file; '#' starts a comment, blank lines ignored."""
    values: dict = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in Settings.field_names():
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = int(value.strip())
    return values


def load_settings(config_path: str | None = None) -> Settings:
    """Resolve settings with precedence: defaults < file < env."""
    settings = Settings()
    if config_path:
        settings = replace(settings, **load_file(config_path))
    env_values = {}
    for name in Settings.field_names():
        raw = os.environ.get(ENV_PREFIX + name.upper())
        if raw is not None:
            env_values[name] = int(raw)
    if env_values:
        settings = replace(settings, **env_values)
    return settings
