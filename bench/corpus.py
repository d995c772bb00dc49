"""Seeded spec corpora for the benchmark workloads.

The program under test only ever sees the spec files written here.  Each
spec also keeps the reference data the output checks need (the expected
minimal generators and the component distributions), worked out in this
module without calling the package under test.

Every slot fixes the structural size of its spec (dimension, levels,
generator count or grid); the seed picks the values.  That keeps the work
per pass close to constant across seeds, so run-to-run spread measures the
program and the machine rather than the luck of the draw.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

# The grid size up to which `scarfrel reliability` runs the enumeration
# oracle on its own.  Ladder and deep-bounds grids must stay above it so no
# pass silently spends minutes in the oracle.
STATE_CAP = 10_000_000
PROFIT_R_BUDGET = 40
TOUCH_COMMANDS = ("scarf", "reliability", "bounds", "compare")
_DENOM = 2**20


class CorpusError(RuntimeError):
    """A generated spec broke one of the corpus's size rules."""


@dataclass
class Spec:
    name: str
    path: Path
    commands: tuple[str, ...]
    levels: tuple[int, ...]
    probs: tuple[tuple[float, ...], ...]
    generators: tuple[tuple[int, ...], ...]
    touch: bool = False
    cache: dict = field(default_factory=dict)

    @property
    def dimension(self) -> int:
        return len(self.levels)

    @property
    def states(self) -> int:
        return math.prod(self.levels)

    @property
    def oracle_expected(self) -> bool:
        return self.states <= STATE_CAP

    def manifest(self) -> dict:
        return {
            "name": self.name,
            "d": self.dimension,
            "levels": list(self.levels),
            "r": len(self.generators),
            "grid_states": self.states,
            "oracle_expected": self.oracle_expected,
            "commands": list(self.commands),
            "touch": self.touch,
        }


def _probs(rng: random.Random, levels: int) -> tuple[float, ...]:
    # Dyadic probabilities sum to exactly 1, so the spec parser's row-sum
    # check never depends on rounding.
    cuts = sorted(rng.sample(range(1, _DENOM), levels - 1))
    edges = [0] + cuts + [_DENOM]
    return tuple((b - a) / _DENOM for a, b in zip(edges, edges[1:]))


def _layer(d: int, total: int, cap: Optional[int] = None) -> list[tuple[int, ...]]:
    """All points of N^d with coordinate sum ``total`` (entries <= cap)."""
    top = total if cap is None else cap
    return [p for p in itertools.product(range(top + 1), repeat=d) if sum(p) == total]


def _components(rng: random.Random, levels: tuple[int, ...]) -> list[dict]:
    return [
        {"name": f"c{i + 1}", "levels": L, "probs": list(_probs(rng, L))}
        for i, L in enumerate(levels)
    ]


def _points_spec(name, rng, points, levels, commands, touch=False) -> tuple[Spec, dict]:
    components = _components(rng, levels)
    data = {"components": components, "minimal_nonfailure_points": [list(p) for p in points]}
    spec = Spec(
        name=name,
        path=Path(),
        commands=commands,
        levels=levels,
        probs=tuple(tuple(c["probs"]) for c in components),
        generators=tuple(points),
        touch=touch,
    )
    return spec, data


def profit_minimal_points(linear, cutoff, levels) -> list[tuple[int, ...]]:
    """Minimal grid states whose integer linear profit reaches ``cutoff``.

    Exact integer arithmetic and a staircase walk: for every prefix of the
    first d-1 levels take the least last level that reaches the cutoff; that
    state is minimal iff lowering any one prefix coordinate falls short.
    """
    *head, last = linear
    out = []
    for prefix in itertools.product(*(range(L) for L in levels[:-1])):
        partial = sum(c * a for c, a in zip(head, prefix))
        need = cutoff - partial
        top = 0 if need <= 0 else -(-need // last)
        if top >= levels[-1]:
            continue
        total = partial + last * top
        if all(a == 0 or total - c < cutoff for c, a in zip(head, prefix)):
            out.append(prefix + (top,))
    return out


def _cutoff(linear, levels) -> int:
    """Half the grid's top profit: the staircase runs through the middle of the grid."""
    return sum(c * (L - 1) for c, L in zip(linear, levels)) // 2


def _profit_spec(name, rng, levels, linear, commands, touch=False) -> tuple[Spec, dict]:
    components = _components(rng, levels)
    cutoff = _cutoff(linear, levels)
    points = profit_minimal_points(linear, cutoff, levels)
    data = {
        "components": components,
        "profit": {"linear": list(linear), "interactions": [], "cutoff": cutoff},
    }
    spec = Spec(
        name=name,
        path=Path(),
        commands=commands,
        levels=levels,
        probs=tuple(tuple(c["probs"]) for c in components),
        generators=tuple(points),
        touch=touch,
    )
    return spec, data


# -- workloads -------------------------------------------------------------

# (d, coordinate sum, squarefree, levels).  A rung is a whole layer of
# points with that coordinate sum (entries 0/1 when squarefree); the seed
# orders the generators, which sets the deformation's tie-breaks and so the
# complex.  Whole layers keep the face count, and with it the work, nearly
# the same for every order.  Levels put every grid above STATE_CAP.
_LADDER = {
    "full": [(3, 17, False, 216), (4, 5, False, 57), (5, 3, False, 26),
             (6, 3, True, 15), (7, 3, True, 11), (8, 2, True, 8)],
    "smoke": [(3, 5, False, 216), (8, 2, True, 8)],
}


def _scarf_ladder(rng: random.Random, size: str) -> list[tuple[Spec, dict]]:
    out = []
    for d, total, squarefree, L in _LADDER[size]:
        points = _layer(d, total, 1 if squarefree else None)
        rng.shuffle(points)
        name = f"ladder-d{d}-r{len(points)}"
        out.append(_points_spec(name, rng, points, (L,) * d, ("scarf", "reliability")))
    return out


# (d, r, levels); the coordinate sum is one less than the level count, so
# every entry fits.  `bounds` reports one depth per size of the Scarf
# complex's faces, and the seed moves the largest face between about d-2
# and d, so the Bonferroni cost of a slot follows the seed.  Many slots of
# one dimension keep the pass time and its slowest calls steady; with d
# mixed from 8 to 10 the p90 call time spread by 13 % between seeds.
_DEEP = {
    "full": [(8, 12, L) for L in (12, 13, 14, 15, 16, 18, 20, 24) for _ in range(3)],
    "smoke": [(8, 8, 12)],
}


def _deep_bounds(rng: random.Random, size: str) -> list[tuple[Spec, dict]]:
    out = []
    for k, (d, r, L) in enumerate(_DEEP[size]):
        points: set[tuple[int, ...]] = set()
        while len(points) < r:
            cuts = sorted(rng.randint(0, L - 1) for _ in range(d - 1))
            p = tuple(b - a for a, b in zip([0] + cuts, cuts + [L - 1]))
            points.add(p)
        ordered = sorted(points)
        rng.shuffle(ordered)
        name = f"deep-{k + 1}-d{d}-r{r}-L{L}"
        out.append(_points_spec(name, rng, ordered, (L,) * d, ("bounds", "compare")))
    return out


# (levels, coefficient ranges, r): widely different magnitudes keep r small.
# The oracle scans the generators for every grid state, so its cost follows
# r; the seed redraws the coefficients until the slot's r comes out, which
# keeps the work per pass the same for every seed.  Each r is a common
# outcome of its ranges.  Grid sizes grow geometrically so that per-call
# times spread out instead of splitting into one cluster per subcommand.
_PROFIT = {
    "full": [((60, 60), ((1, 1), (4, 6)), 13),
             ((110, 110), ((1, 1), (7, 10)), 15),
             ((200, 200), ((1, 1), (12, 17)), 15),
             ((15, 15, 15), ((1, 1), (2, 3), (20, 30)), 9),
             ((21, 21, 21), ((1, 1), (3, 4), (30, 45)), 12),
             ((28, 28, 28), ((1, 1), (4, 6), (40, 60)), 17),
             ((8, 8, 8, 8), ((1, 1), (2, 3), (8, 11), (45, 60)), 17),
             ((10, 10, 10, 10), ((1, 1), (3, 4), (12, 17), (70, 110)), 19),
             ((12, 12, 12, 12), ((1, 1), (3, 4), (15, 20), (90, 130)), 23)],
    "smoke": [((30, 30), ((1, 1), (4, 7)), None), ((8, 8, 8), ((1, 1), (2, 3), (7, 12)), None)],
}
_PROFIT_DRAWS = 1000


def _profit_linear(rng, levels, ranges, r):
    """Coefficients drawn from ``ranges`` until the spec has ``r`` minimal points."""
    for _ in range(_PROFIT_DRAWS):
        linear = tuple(rng.randint(lo, hi) for lo, hi in ranges)
        if r is None or len(profit_minimal_points(linear, _cutoff(linear, levels), levels)) == r:
            return linear
    raise CorpusError(f"no coefficients in {ranges} give r = {r} on levels {levels}")


def _profit_grid(rng: random.Random, size: str) -> list[tuple[Spec, dict]]:
    out = []
    for k, (levels, ranges, r) in enumerate(_PROFIT[size]):
        linear = _profit_linear(rng, levels, ranges, r)
        name = f"profit-{k + 1}-d{len(levels)}"
        out.append(_profit_spec(name, rng, levels, linear, ("reliability", "scarf")))
    return out


def _touch(rng: random.Random) -> list[tuple[Spec, dict]]:
    """Two tiny specs that run every subcommand, so every layer records a span."""
    linear = (1, rng.randint(2, 3), rng.randint(4, 6))
    profit = _profit_spec("touch-profit-d3", rng, (5, 5, 5), linear, TOUCH_COMMANDS, True)
    # Two points sharing exponent 1 in one coordinate make the ideal
    # non-generic, so the deformation route runs too.
    i, j, k = rng.sample(range(8), 3)
    tied = [tuple(int(c in (i, other)) for c in range(8)) for other in (j, k)]
    points = tied + rng.sample([p for p in _layer(8, 2) if p not in tied], 4)
    explicit = _points_spec("touch-points-d8", rng, points, (8,) * 8, TOUCH_COMMANDS, True)
    return [profit, explicit]


WORKLOADS = {
    "scarf-ladder": _scarf_ladder,
    "deep-bounds": _deep_bounds,
    "profit-grid": _profit_grid,
}


def _check_sizes(workload: str, spec: Spec) -> None:
    if spec.touch:
        return
    if workload in ("scarf-ladder", "deep-bounds") and spec.states <= STATE_CAP:
        raise CorpusError(
            f"{spec.name}: grid of {spec.states} states is within the oracle cap "
            f"{STATE_CAP}; the oracle would run on its own"
        )
    if workload == "profit-grid":
        if spec.states > STATE_CAP:
            raise CorpusError(f"{spec.name}: grid of {spec.states} states is above the oracle cap")
        if len(spec.generators) > PROFIT_R_BUDGET:
            raise CorpusError(
                f"{spec.name}: {len(spec.generators)} minimal points exceed the "
                f"budget {PROFIT_R_BUDGET}"
            )
    if not spec.generators:
        raise CorpusError(f"{spec.name}: no minimal points")


def build(workload: str, seed: int, directory: Path, size: str = "full") -> list[Spec]:
    """Generate and write the workload's specs (plus the touch set) for a seed."""
    if workload not in WORKLOADS:
        raise CorpusError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    pairs = WORKLOADS[workload](rng, size) + _touch(rng)
    directory.mkdir(parents=True, exist_ok=True)
    specs = []
    for k, (spec, data) in enumerate(pairs):
        _check_sizes(workload, spec)
        spec.path = directory / f"{k:02d}-{spec.name}.json"
        spec.path.write_text(json.dumps(data, sort_keys=True) + "\n")
        specs.append(spec)
    return specs
