"""JSON system descriptions for the command-line interface: parsing only.

``load_spec`` turns a file into a validated :class:`SystemSpec`; turning
that into an ideal and a complex is the command-line pipeline's job.

A spec file is a JSON object with:

- ``components``: nonempty list of ``{"name": str, "levels": int,
  "probs": [float, ...]}`` with one probability per level;
- exactly one of
  - ``minimal_nonfailure_points``: list of integer vectors (one entry per
    component, each within that component's level range), or
  - ``profit``: ``{"linear": [c1..cd], "interactions": [[i, j, coeff],
    ...], "cutoff": number}`` with 1-based component pairs, finite
    nonnegative coefficients and a finite cutoff;
- optional ``deformation_v``: positive integer tie-break denominator.

Unknown keys are rejected so typos surface as parse errors instead of
being silently ignored.
"""

from __future__ import annotations

import json
import math
from itertools import repeat
from operator import is_, lt

from .monomial import Exponent, _Value
from .systems import CoherentSystem, Component, ProfitSpec

TYPE_CHECKING = False
if TYPE_CHECKING:
    from pathlib import Path
    from typing import Optional


class SpecFileError(ValueError):
    """The spec file is unreadable or violates the schema."""


class SystemSpec(_Value):
    _fields = ("system", "points", "profit", "deformation_v")

    def __init__(
        self, system: CoherentSystem, points: Optional[tuple[Exponent, ...]],
        profit: Optional[ProfitSpec], deformation_v: Optional[int],
    ) -> None:
        vars(self).update(system=system, points=points, profit=profit, deformation_v=deformation_v)


def load_spec(path: str | Path) -> SystemSpec:
    from pathlib import Path

    p = str(Path(path))
    try:
        with open(p, encoding="utf-8") as file:
            text = file.read()
    except (OSError, UnicodeDecodeError) as err:
        raise SpecFileError(f"{p}: cannot read spec file: {err}") from err
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise SpecFileError(
            f"{p}: invalid JSON at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from err
    # an integer literal beyond Python's digit limit, or nesting beyond its recursion limit
    except (ValueError, RecursionError) as err:
        raise SpecFileError(f"{p}: invalid JSON: {err}") from err
    return parse_spec(data, source=p)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SpecFileError(message)


def _int_field(value, where: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool), f"{where}: expected an integer, got {value!r}")
    return value


def _number_field(value, where: str) -> float:
    ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    _require(ok, f"{where}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond the float range
        digits = len(str(abs(value)))
        raise SpecFileError(f"{where}: must be finite, got an integer of {digits} digits") from None


def _profit_number(value, where: str, nonnegative: bool = True) -> int | float:
    """A finite profit number; JSON ints stay ints, so no digit of them is rounded away."""
    x = _number_field(value, where)
    _require(math.isfinite(x), f"{where}: must be finite, got {value!r}")
    _require(x >= 0 or not nonnegative, f"{where}: must be nonnegative, got {value!r}")
    return value if isinstance(value, int) else x


def _check_point(vec, where: str, components: list[Component]) -> None:
    """Check a minimal nonfailure point one rule at a time; the first it breaks raises."""
    d = len(components)
    _require(isinstance(vec, list), f"{where}: expected a list of integers")
    _require(len(vec) == d, f"{where}: has {len(vec)} coordinates, expected {d}")
    coords = tuple(_int_field(x, f"{where}[{k}]") for k, x in enumerate(vec))
    for k, x in enumerate(coords):
        _require(
            0 <= x < components[k].levels,
            f"{where}[{k}]: level {x} outside 0..{components[k].levels - 1} "
            f"for component {components[k].name!r}",
        )


def parse_spec(data, source: str = "<spec>") -> SystemSpec:
    _require(isinstance(data, dict), f"{source}: top level must be a JSON object")
    known = {"components", "minimal_nonfailure_points", "profit", "deformation_v"}
    for key in data:
        _require(key in known, f"{source}: unknown key {key!r}")

    raw_components = data.get("components")
    _require(
        isinstance(raw_components, list) and raw_components,
        f"{source}: 'components' must be a nonempty list",
    )
    components = []
    for idx, entry in enumerate(raw_components):
        where = f"{source}: components[{idx}]"
        _require(isinstance(entry, dict), f"{where}: expected an object")
        extra = set(entry) - {"name", "levels", "probs"}
        _require(not extra, f"{where}: unknown keys {sorted(extra)}")
        _require(
            all(k in entry for k in ("name", "levels", "probs")),
            f"{where}: needs 'name', 'levels' and 'probs'",
        )
        _require(isinstance(entry["name"], str), f"{where}: 'name' must be a string")
        levels = _int_field(entry["levels"], f"{where}.levels")
        probs = entry["probs"]
        _require(isinstance(probs, list), f"{where}.probs: expected a list")
        row = tuple(  # a float passes as it is: only another value builds a message
            p if type(p) is float else _number_field(p, f"{where}.probs[{j}]")
            for j, p in enumerate(probs)
        )
        try:
            components.append(Component(entry["name"], levels, row))
        except ValueError as err:
            raise SpecFileError(f"{where}: {err}") from err
    system = CoherentSystem(components=tuple(components))
    d = system.dimension

    has_points = "minimal_nonfailure_points" in data
    has_profit = "profit" in data
    _require(
        has_points != has_profit,
        f"{source}: give exactly one of 'minimal_nonfailure_points' or 'profit'",
    )

    points: Optional[tuple[Exponent, ...]] = None
    profit: Optional[ProfitSpec] = None
    if has_points:
        raw_points = data["minimal_nonfailure_points"]
        _require(
            isinstance(raw_points, list) and raw_points,
            f"{source}: 'minimal_nonfailure_points' must be a nonempty list",
        )
        levels = [c.levels for c in components]
        rows = []
        for idx, vec in enumerate(raw_points):
            # a list of d in-range ints passes in C, building no message
            if not (
                type(vec) is list
                and len(vec) == d
                and all(map(is_, map(type, vec), repeat(int)))
                and all(map(lt, vec, levels))
                and min(vec) >= 0
            ):
                _check_point(vec, f"{source}: minimal_nonfailure_points[{idx}]", components)
            rows.append(tuple(vec))
        points = tuple(rows)
    else:
        raw_profit = data["profit"]
        where = f"{source}: profit"
        _require(isinstance(raw_profit, dict), f"{where}: expected an object")
        extra = set(raw_profit) - {"linear", "interactions", "cutoff"}
        _require(not extra, f"{where}: unknown keys {sorted(extra)}")
        _require(
            "linear" in raw_profit and "cutoff" in raw_profit,
            f"{where}: needs 'linear' and 'cutoff'",
        )
        raw_linear = raw_profit["linear"]
        _require(isinstance(raw_linear, list), f"{where}.linear: expected a list")
        _require(
            len(raw_linear) == d,
            f"{where}.linear: has {len(raw_linear)} coefficients, expected {d}",
        )
        linear = tuple(
            _profit_number(c, f"{where}.linear[{k}]") for k, c in enumerate(raw_linear)
        )
        raw_interactions = raw_profit.get("interactions", [])
        _require(isinstance(raw_interactions, list), f"{where}.interactions: expected a list")
        interactions = []
        for idx, triple in enumerate(raw_interactions):
            iw = f"{where}.interactions[{idx}]"
            _require(
                isinstance(triple, list) and len(triple) == 3,
                f"{iw}: expected [i, j, coeff]",
            )
            i = _int_field(triple[0], f"{iw}[0]")
            j = _int_field(triple[1], f"{iw}[1]")
            c = _profit_number(triple[2], f"{iw}[2]")
            _require(1 <= i <= d and 1 <= j <= d, f"{iw}: pair ({i}, {j}) outside 1..{d}")
            _require(i != j, f"{iw}: pair ({i}, {j}) must name two distinct components")
            interactions.append((i - 1, j - 1, c))
        cutoff = _profit_number(raw_profit["cutoff"], f"{where}.cutoff", nonnegative=False)
        profit = ProfitSpec(linear=linear, interactions=tuple(interactions), cutoff=cutoff)

    deformation_v: Optional[int] = None
    if "deformation_v" in data:
        deformation_v = _int_field(data["deformation_v"], f"{source}: deformation_v")
        _require(deformation_v >= 1, f"{source}: deformation_v must be positive")

    return SystemSpec(
        system=system, points=points, profit=profit, deformation_v=deformation_v
    )

