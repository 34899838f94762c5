"""Flat key=value run configuration.

One setting per line, ``key = value``; blank lines and ``#`` comments are
ignored.  No sections, no nesting, so any language can parse it.  Unknown
keys are rejected rather than silently dropped.

The channel is configured either with a uniform squeezing (``mode = ideal``,
``ideal_r``) or from a down-conversion profile (``mode = spdc``) given as
ring parameters (``ring_r0``, ``ring_width``, ``ring_xi``) or as the full
physical parameter set (``spdc_*``), but never both.  :func:`parse_config`
checks the text, which keys are given and that numbers are finite.
:class:`RunConfig` keeps the one source, ``ideal_r`` or the parameters, as
``squeezing``, and reads ``mode`` from its type.  It checks each value, also
after :func:`dataclasses.replace`: the seed and ``n_shots`` non-negative
integers, ``n_shots`` at most ``MAX_SHOTS``, ``pitch`` positive, ``pitch``
and the origin finite, ``ideal_r`` non-negative, and ``ideal_r``,
``ring_xi`` and ``spdc_xi`` at most ``MAX_R`` (both from
:mod:`pixelport.channel`).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .channel import MAX_R, MAX_SHOTS
from .spdc import RingParams, SpdcParams

__all__ = ["ConfigError", "RunConfig", "parse_config", "load_config", "squeezing_settings"]


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


# (config key, dataclass field) for each squeezing source, in the order a run echoes them
_RING_KEYS = (("ring_r0", "r0"), ("ring_width", "R"), ("ring_xi", "Xi"))
_SPDC_KEYS = (
    ("spdc_pump_waist", "w_p"),
    ("spdc_mode_waist", "w_0"),
    ("spdc_length", "L"),
    ("spdc_pump_k", "k_p"),
    ("spdc_signal_k", "k_d"),
    ("spdc_angle", "theta_d"),
    ("spdc_focal", "f"),
    ("spdc_xi", "Xi"),
)
_KNOWN_KEYS = frozenset(
    ("mode", "input", "output", "fidelity_map", "summary", "seed", "n_shots", "pitch", "origin_x", "origin_y")
    + ("ideal_r", *(key for key, _ in _RING_KEYS + _SPDC_KEYS))
)


@dataclass(frozen=True)
class RunConfig:
    """Everything one teleportation run needs; ConfigError names the first value out of range."""

    squeezing: float | RingParams | SpdcParams  # ideal_r, or the ring_* or spdc_* parameters
    input_path: str
    output_path: str = "teleported.csv"
    fidelity_map_path: str = "fidelity_map.csv"
    summary_path: str = "summary.txt"
    seed: int = 0
    n_shots: int = 0
    pitch: float = 1.0
    origin: tuple[float, float] | None = None  # None centers the grid on the axis

    def __post_init__(self):
        for key, value in (("seed", self.seed), ("n_shots", self.n_shots)):
            if not isinstance(value, numbers.Integral):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
            if value < 0:
                raise ConfigError(f"{key} must be non-negative")
        if self.n_shots > MAX_SHOTS:
            raise ConfigError(f"n_shots must be at most {MAX_SHOTS}, got {self.n_shots}")
        if not self.pitch > 0:
            raise ConfigError("pitch must be positive")
        for key, value in (("pitch", self.pitch), *zip(("origin_x", "origin_y"), self.origin or ())):
            if not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value!r}")
        if not isinstance(self.squeezing, (numbers.Real, RingParams, SpdcParams)):
            raise ConfigError(f"squeezing must be a number, RingParams or SpdcParams, got {self.squeezing!r}")
        if self.mode == "ideal" and self.squeezing < 0:
            raise ConfigError("ideal_r must be non-negative")
        key, r = squeezing_settings(self)[-1]  # the squeezing scale: ideal_r, ring_xi or spdc_xi
        if not r <= MAX_R:
            raise ConfigError(f"{key} must be at most {MAX_R!r}, got {r!r}")

    @property
    def mode(self) -> str:
        return "ideal" if isinstance(self.squeezing, numbers.Real) else "spdc"


def _number(kind: type, raw: str):
    """kind(raw), for ASCII text without underscores: the numbers an image cell may hold.

    int() and float() alone would also read 1_0 as 10 and non-ASCII digits
    such as U+0663 as 3.
    """
    if not raw.isascii() or "_" in raw:
        raise ValueError(f"not an ASCII number: {raw!r}")
    return kind(raw)


def _to_int(key: str, raw: str) -> int:
    try:
        return _number(int, raw)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {raw!r}") from None


def _to_float(key: str, raw: str) -> float:
    try:
        value = _number(float, raw)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {raw!r}")
    return value


def parse_config(text: str) -> RunConfig:
    """Parse config text; raises ConfigError on anything inconsistent."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        raw[key] = value

    mode = raw.get("mode")
    if mode not in ("ideal", "spdc"):
        raise ConfigError(f"mode must be 'ideal' or 'spdc', got {mode!r}")
    if "input" not in raw:
        raise ConfigError("missing required key 'input'")

    fields = {f"{key}_path": raw[key] for key in ("input", "output", "fidelity_map", "summary") if key in raw}
    fields.update({key: _to_int(key, raw[key]) for key in ("seed", "n_shots") if key in raw})
    if "pitch" in raw:
        fields["pitch"] = _to_float("pitch", raw["pitch"])
    if ("origin_x" in raw) != ("origin_y" in raw):
        raise ConfigError("origin_x and origin_y must be given together")
    if "origin_x" in raw:
        fields["origin"] = (_to_float("origin_x", raw["origin_x"]), _to_float("origin_y", raw["origin_y"]))

    ring_given = [k for k, _ in _RING_KEYS if k in raw]
    spdc_given = [k for k, _ in _SPDC_KEYS if k in raw]
    if mode == "ideal":
        if "ideal_r" not in raw:
            raise ConfigError("mode=ideal requires ideal_r")
        if ring_given or spdc_given:
            raise ConfigError("mode=ideal takes no ring_*/spdc_* keys")
        return RunConfig(squeezing=_to_float("ideal_r", raw["ideal_r"]), **fields)
    if "ideal_r" in raw:
        raise ConfigError("mode=spdc takes no ideal_r")
    if ring_given and spdc_given:
        raise ConfigError("give ring_* or spdc_* parameters, not both")
    for given, table, name in ((ring_given, _RING_KEYS, "ring"), (spdc_given, _SPDC_KEYS, "spdc")):
        if len(given) not in (0, len(table)):
            missing = sorted({key for key, _ in table} - set(given))
            raise ConfigError(f"incomplete {name} parameters, missing {missing}")
    if not ring_given and not spdc_given:
        raise ConfigError("mode=spdc requires ring_* or spdc_* parameters")
    table, cls = (_RING_KEYS, RingParams) if ring_given else (_SPDC_KEYS, SpdcParams)
    values = {field: _to_float(key, raw[key]) for key, field in table}
    try:
        params = cls(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(squeezing=params, **fields)


def squeezing_settings(cfg: RunConfig) -> list[tuple[str, float]]:
    """(config key, value) pairs that set the squeezing of ``cfg``: ``ideal_r``, or the ring_* or spdc_* keys."""
    if cfg.mode == "ideal":
        return [("ideal_r", cfg.squeezing)]
    table = _RING_KEYS if isinstance(cfg.squeezing, RingParams) else _SPDC_KEYS
    return [(key, getattr(cfg.squeezing, field)) for key, field in table]


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a leading UTF-8 byte order mark is skipped
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)
