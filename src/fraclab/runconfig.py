"""Flat key = value experiment configs with [section] headers.

The format is line-oriented and diff-friendly: comments start with '#',
sections group keys per module, values are scalars or comma/space
separated lists.  _SCHEMA lists every section and key a recipe reads.
Parse errors, an unknown section or key among them, carry 1-based line
and column numbers, and so do the checks made at load time:
_check_ranges (each _SCHEMA range), _check_probe and _check_geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigError
from .experiments import BUMP_FRACTIONS, PROFILE_KEYS, SYMBOL_WINDOW
from .gridfn import MAX_RAMP_ORDER, MIN_NODES
from .probe import DEFAULT_METHOD, DEFAULT_P, DEFAULT_SWEEP, estimator_problem
from .regions import Ball, Box

# the keys a region section reads beside `kind`, per kind; any other key is rejected
REGION_KEYS = {"ball": ("center", "radius"), "box": ("bounds",)}
_REGION = dict.fromkeys(("kind",) + sum(REGION_KEYS.values(), ()))
_IN_0_1 = (False, lambda v: 0.0 < v < 1.0, "in (0, 1)")

# section -> key -> (integer-valued, test, allowed range) or None.  Values
# outside a range fail at load time, instead of deep in a recipe.
_SCHEMA = {
    "experiment": {"name": None, "seed": None},
    "params": {"s": _IN_0_1,
               "ndim": (True, lambda v: v in (1, 2), "1 or 2")},
    "grid": {"n": (True, lambda v: v >= MIN_NODES, f">= {MIN_NODES}"),
             "box": None},
    "omega": _REGION,
    "inner": _REGION,
    "boundary": _REGION,
    "symbol": {"k": (False, lambda v: v != 0.0, "nonzero"),
               "window_inner": (False, lambda v: v > 0.0, "> 0"),
               "window_outer": (False, lambda v: v > 0.0, "> 0"),
               "window_order": (True, lambda v: 0 <= v <= MAX_RAMP_ORDER,
                                f"in [0, {MAX_RAMP_ORDER}]")},
    "source": {key: _IN_0_1 if key in PROFILE_KEYS["bump"] else None  # the bump's fractions
               for key in ("profile",) + sum(PROFILE_KEYS.values(), ())},
    "time": {"T": (False, lambda v: v > 0.0, "> 0"),
             "nt": (True, lambda v: v >= 2, ">= 2"),
             "theta": (False, lambda v: 0.5 <= v <= 1.0, "in [1/2, 1]"),
             "slack": (False, lambda v: v >= 0.0, ">= 0")},
    "semigroup": {"t": (False, lambda v: v >= 0.0, ">= 0"),
                  "nt": (True, lambda v: v >= 1, ">= 1"),
                  "count": (True, lambda v: v >= 1, ">= 1")},
    "probe": {"method": None, "p": None,
              "levels": (True, lambda v: v >= 3, ">= 3"),
              "sweep": (False, lambda v: 0.0 < v < 2.0, "in (0, 2)"),
              "rate_threshold": None},
}


@dataclass
class ConfigValue:
    raw: str
    line: int
    column: int


@dataclass
class RunConfig:
    path: str
    sections: dict = field(default_factory=dict)

    def section(self, name):
        return self.sections.get(name, {})

    def has(self, section, key):
        return key in self.section(section)

    def get_str(self, section, key, default=None):
        cv = self.section(section).get(key)
        return cv.raw if cv is not None else default

    def get_floats(self, section, key, default=None):
        cv = self.section(section).get(key)
        if cv is None:
            return default
        try:
            vals = [float(tok) for tok in cv.raw.replace(",", " ").split()]
        except ValueError:
            vals = []
        if not vals:
            raise self.error(section, key, f"expected numbers for {key}, got {cv.raw!r}")
        inf_ok = (section, key) == ("probe", "p")  # p = inf: the sup-norm Besov estimator
        if not all(math.isfinite(v) or (inf_ok and v == math.inf) for v in vals):
            raise self.error(section, key, f"expected finite numbers for {key}, got {cv.raw!r}")
        return vals

    def get_ints(self, section, key, default=None):
        vals = self.get_floats(section, key)
        if vals is None:
            return default
        if not all(v == int(v) for v in vals):
            raise self.error(section, key, f"expected integers for {key}, "
                             f"got {self.get_str(section, key)!r}")
        return [int(v) for v in vals]

    def get_float(self, section, key, default=None):
        return self._one(section, key, self.get_floats(section, key), default)

    def get_int(self, section, key, default=None):
        return self._one(section, key, self.get_ints(section, key), default)

    def _one(self, section, key, vals, default):
        if vals is None:
            return default
        if len(vals) != 1:
            raise self.error(section, key, f"expected one value for {key}, "
                             f"got {self.get_str(section, key)!r}")
        return vals[0]

    def error(self, section, key, message):
        """ConfigError located at the value of `key` in `section`."""
        cv = self.section(section)[key]
        return ConfigError(message, cv.line, cv.column, self.path)

    def region(self, section):
        """Ball or Box of a region section, or None when the config has no such section."""
        sec = self.section(section)
        if not sec:
            return None
        kind = self.get_str(section, "kind")
        needs = REGION_KEYS.get(kind)
        if needs is None:
            raise self.error(section, "kind" if kind else next(iter(sec)),
                             f"[{section}] unknown region kind {kind!r} (expected ball or box)")
        if not all(self.has(section, key) for key in needs):
            raise self.error(section, "kind",
                             f"[{section}] {kind} region needs {' and '.join(needs)}")
        stray = next((key for key in sec if key != "kind" and key not in needs), None)
        if stray is not None:
            raise self.error(section, stray, f"[{section}] a {kind} region does not read "
                             f"{stray}; it reads kind, {', '.join(needs)}")
        try:
            if kind == "ball":
                return Ball(tuple(self.get_floats(section, "center")),
                            self.get_float(section, "radius"))
            bounds = self.get_floats(section, "bounds")
            if len(bounds) % 2:
                raise self.error(section, "bounds",
                                 f"[{section}] box bounds need an even number of values")
            half = len(bounds) // 2
            return Box(tuple(bounds[:half]), tuple(bounds[half:]))
        except ValueError as exc:
            raise self.error(section, needs[-1], f"[{section}] {exc}") from None

    def echo(self):
        return {name: {k: v.raw for k, v in sec.items()}
                for name, sec in self.sections.items()}


def parse_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_config_text(text, path)


def parse_config_text(text, path="<config>"):
    cfg = RunConfig(path=path)
    current = None
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        indent = len(line) - len(line.lstrip())
        if stripped.startswith("["):
            if not stripped.endswith("]") or len(stripped) < 3:
                raise ConfigError("malformed section header", ln, indent + 1, path)
            name = stripped[1:-1].strip()
            if not name:
                raise ConfigError("empty section name", ln, indent + 1, path)
            if name not in _SCHEMA:
                raise ConfigError(f"unknown section [{name}] (known: {', '.join(_SCHEMA)})",
                                  ln, indent + 1, path)
            if name in cfg.sections:
                raise ConfigError(f"duplicate section [{name}]", ln, indent + 1, path)
            cfg.sections[name] = {}
            current = name
            continue
        if "=" not in stripped:
            raise ConfigError("expected 'key = value'", ln, indent + 1, path)
        if current is None:
            raise ConfigError("key outside any [section]", ln, indent + 1, path)
        key, _, value = line.partition("=")
        key_stripped = key.strip()
        if not key_stripped:
            raise ConfigError("empty key", ln, indent + 1, path)
        if key_stripped not in _SCHEMA[current]:
            raise ConfigError(f"unknown key '{key_stripped}' in [{current}] "
                              f"(known: {', '.join(_SCHEMA[current])})", ln, indent + 1, path)
        value = value.split("#", 1)[0].strip()
        if not value:
            col = line.index("=") + 2
            raise ConfigError(f"empty value for key '{key_stripped}'", ln, col, path)
        if key_stripped in cfg.sections[current]:
            raise ConfigError(f"duplicate key '{key_stripped}' in [{current}]",
                              ln, indent + 1, path)
        col = line.index(value, line.index("=")) + 1
        cfg.sections[current][key_stripped] = ConfigValue(value, ln, col)
    _check_ranges(cfg)
    _check_probe(cfg)
    _check_geometry(cfg)
    return cfg


def _check_ranges(cfg):
    for section, keys in cfg.sections.items():
        for key in keys:
            if _SCHEMA[section][key] is None:
                continue
            integer, ok, allowed = _SCHEMA[section][key]
            values = (cfg.get_ints if integer else cfg.get_floats)(section, key)
            bad = [v for v in values if not ok(v)]
            if bad:
                raise cfg.error(section, key, f"{key} must be {allowed}, got {bad[0]:g}")


def _check_probe(cfg):
    """[probe] method names an estimator that runs, outside region mode, with p and sweep."""
    problem = estimator_problem(cfg.get_str("probe", "method", default=DEFAULT_METHOD),
                                cfg.get_float("probe", "p", default=DEFAULT_P),
                                cfg.get_floats("probe", "sweep", default=DEFAULT_SWEEP))
    if problem:
        raise cfg.error("probe", *problem)


def _check_geometry(cfg):
    """The [grid] box, every region section and the [source] center against [params] ndim.

    Also the bump's radii, inner_fraction below outer_fraction, and the
    symbol window's, window_inner below window_outer, an unset one taken
    at the recipe's default.
    """
    ndim = cfg.get_int("params", "ndim", default=1)
    box = cfg.get_floats("grid", "box")
    if box is not None:
        if len(box) != 2 * ndim:
            raise cfg.error("grid", "box", f"box needs {2 * ndim} numbers (lo per axis, "
                            f"then hi per axis) for ndim={ndim}, got {len(box)}")
        widths = [hi - lo for lo, hi in zip(box[:ndim], box[ndim:])]
        if min(widths) <= 0:
            raise cfg.error("grid", "box", "box must have hi > lo on every axis")
        if max(widths) - min(widths) > 1e-12 * max(widths):
            raise cfg.error("grid", "box", "box must be square so the spacing is equal per axis")
    for section in ("omega", "inner", "boundary"):
        region = cfg.region(section)
        if region is not None and region.dim != ndim:
            key = REGION_KEYS[cfg.get_str(section, "kind")][0]
            raise cfg.error(section, key, f"[{section}] region has dimension {region.dim}, "
                            f"but ndim={ndim}")
    center = cfg.get_floats("source", "center")
    if center is not None and len(center) != ndim:
        raise cfg.error("source", "center", f"[source] center needs {ndim} numbers for "
                        f"ndim={ndim}, got {len(center)}")
    _check_below(cfg, "source", *PROFILE_KEYS["bump"], BUMP_FRACTIONS)
    _check_below(cfg, "symbol", "window_inner", "window_outer", SYMBOL_WINDOW)


def _check_below(cfg, section, lower, upper, defaults):
    """[section] lower below upper, an unset one taken at its default in `defaults`."""
    lo = cfg.get_float(section, lower, default=defaults[0])
    hi = cfg.get_float(section, upper, default=defaults[1])
    if lo >= hi:
        key = lower if cfg.has(section, lower) else upper
        raise cfg.error(section, key, f"[{section}] {lower} must be below {upper}, "
                        f"got {lo:g} >= {hi:g}")
