"""Flat key = value experiment configs with [section] headers.

The format is line-oriented and diff-friendly: comments start with '#',
sections group keys per module, values are scalars or comma/space
separated lists.  Parse errors carry 1-based line and column numbers, and
so do the checks made at load time: the value ranges (s, ndim, [grid] n,
[time] nt, theta, [semigroup] nt, count and t, and [probe] method, p,
levels and sweep), the [grid] box (2 ndim numbers, a positive and equal
extent on every axis) and the dimension of the [omega] and [inner]
regions, which must be ndim.

Schema (sections and keys understood by the experiment drivers):

  [experiment]  name = getoor | symbol | elliptic-regularity |
                parabolic-energy | semigroup-contraction | product-rule |
                g-bound | regularity-sweep | boundary-profile
                seed = <int>         (optional, default 0)
  [params]      s = <float in (0,1)>     (or list for multi-s recipes)
                ndim = 1 | 2
  [grid]        n = <int or list>        (refinement levels)
                box = lo, hi             (1D)  or  lo, lo, hi, hi (2D)
  [omega]       kind = ball | box,  center/radius or bounds
  [inner]       optional probe region (same keys as [omega])
  [source]      profile = constant | jump | power | bump | csv
                value/exponent/path ... per profile
  [time]        T = <float>, nt = <int or list>, theta = <float or list>
  [semigroup]   t = <list of float >= 0>, nt = <int >= 1>, count = <int >= 1>
  [probe]       method = gagliardo | besov   (optional, default gagliardo)
                p = <float in (1, inf)>, or <float >= 1, inf allowed> for besov
                sweep = <list of sigma in (0, 2)>, levels = <int >= 3>,
                rate_threshold = <float>
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigError
from .gridfn import MIN_NODES
from .probe import METHODS


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

    def _value(self, section, key, default, required):
        sec = self.section(section)
        if key not in sec:
            if required:
                raise ConfigError(f"missing key '{key}' in section [{section}]",
                                  path=self.path)
            return None, default
        return sec[key], default

    def get_str(self, section, key, default=None, required=False):
        cv, d = self._value(section, key, default, required)
        return cv.raw if cv is not None else d

    def get_int(self, section, key, default=None, required=False):
        cv, d = self._value(section, key, default, required)
        if cv is None:
            return d
        try:
            return int(cv.raw)
        except ValueError:
            raise ConfigError(f"expected integer for {key}, got {cv.raw!r}",
                              cv.line, cv.column, self.path) from None

    def get_float(self, section, key, default=None, required=False):
        cv, d = self._value(section, key, default, required)
        if cv is None:
            return d
        try:
            return float(cv.raw)
        except ValueError:
            raise ConfigError(f"expected number for {key}, got {cv.raw!r}",
                              cv.line, cv.column, self.path) from None

    def get_floats(self, section, key, default=None, required=False):
        cv, d = self._value(section, key, default, required)
        if cv is None:
            return d
        try:
            return [float(tok) for tok in cv.raw.replace(",", " ").split()]
        except ValueError:
            raise ConfigError(f"expected numbers for {key}, got {cv.raw!r}",
                              cv.line, cv.column, self.path) from None

    def get_ints(self, section, key, default=None, required=False):
        vals = self.get_floats(section, key, default, required)
        if vals is default or vals is None:
            return vals
        out = []
        for v in vals:
            if v != int(v):
                cv = self.section(section)[key]
                raise ConfigError(f"expected integers for {key}, got {cv.raw!r}",
                                  cv.line, cv.column, self.path)
            out.append(int(v))
        return out

    def error(self, section, key, message):
        """ConfigError located at the value of `key` in `section`."""
        cv = self.section(section)[key]
        return ConfigError(message, cv.line, cv.column, self.path)

    def region(self, section, required=False):
        sec = self.section(section)
        if not sec:
            if required:
                raise ConfigError(f"missing region section [{section}]", path=self.path)
            return None
        from .regions import region_from_mapping

        kv = {k: v.raw for k, v in sec.items()}
        try:
            return region_from_mapping(kv, where=f"[{section}] ")
        except ConfigError as exc:
            first = next(iter(sec.values()))
            raise ConfigError(str(exc), first.line, first.column, self.path) from None

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


# Values outside these ranges fail here, at load time, instead of deep in
# a recipe: (section, key, integer-valued, test, allowed range).
_RANGES = (
    ("params", "s", False, lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    ("params", "ndim", True, lambda v: v in (1, 2), "1 or 2"),
    ("grid", "n", True, lambda v: v >= MIN_NODES, f">= {MIN_NODES}"),
    ("time", "nt", True, lambda v: v >= 2, ">= 2"),
    ("time", "theta", False, lambda v: 0.5 <= v <= 1.0, "in [1/2, 1]"),
    ("semigroup", "nt", True, lambda v: v >= 1, ">= 1"),
    ("semigroup", "count", True, lambda v: v >= 1, ">= 1"),
    ("semigroup", "t", False, lambda v: v >= 0.0, ">= 0"),
    ("probe", "levels", True, lambda v: v >= 3, ">= 3"),
    ("probe", "sweep", False, lambda v: 0.0 < v < 2.0, "in (0, 2)"),
)


def _check_ranges(cfg):
    for section, key, integer, ok, allowed in _RANGES:
        if not cfg.has(section, key):
            continue
        values = (cfg.get_ints if integer else cfg.get_floats)(section, key)
        bad = [v for v in values if not ok(v)]
        if bad:
            raise cfg.error(section, key, f"{key} must be {allowed}, got {bad[0]:g}")


def _check_probe(cfg):
    """[probe] method names an estimator, and p is one it accepts."""
    method = cfg.get_str("probe", "method", default="gagliardo")
    if method not in METHODS:
        raise cfg.error("probe", "method",
                        f"method must be {' or '.join(METHODS)}, got {method!r}")
    if not cfg.has("probe", "p"):
        return
    p = cfg.get_float("probe", "p")
    if method == "besov" and not p >= 1.0:
        raise cfg.error("probe", "p", f"p must be >= 1 (inf allowed) for besov, got {p:g}")
    if method != "besov" and not 1.0 < p < math.inf:
        raise cfg.error("probe", "p", f"p must be in (1, inf) for {method}, got {p:g}")


def _check_geometry(cfg):
    """The [grid] box and the [omega] and [inner] regions against [params] ndim."""
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
    for section in ("omega", "inner"):
        region = cfg.region(section)
        if region is not None and region.dim != ndim:
            key = next(k for k in ("center", "bounds", "lo", "kind") if cfg.has(section, k))
            raise cfg.error(section, key, f"[{section}] region has dimension {region.dim}, "
                            f"but ndim={ndim}")
