"""Synthetic rating panels drawn from known continuous-time processes.

Three scenario kinds:

* ``homogeneous`` -- one constant generator over the whole span; the
  null model both diagnostics should accept.
* ``regime_switch`` -- a piecewise-constant generator schedule; the
  minimal violation of time-homogeneity.
* ``excited`` -- after each of its own downgrades, a bank's downward
  rates are multiplied by ``gamma`` for ``memory_days`` days; the
  minimal violation of the Markov property.

Banks are independent: bank ``k`` draws only from its own stream
``np.random.default_rng((seed, k))``, so its events are the same
whatever the number or evaluation order of the other banks.

The daily rates are tabulated once per scenario: for each regime,
excitation flag and state, the running sums of the rates out of that
state.  A row's total is the exit rate, in which holding times are
exponential, and a jump's target is a bisection into the row.  At a
regime boundary or an excitation expiry the clock restarts with the
new rates (exact for exponential clocks).  Jump times are recorded at
whole days; a jump that would land on its bank's previous event day
is re-drawn.
"""

from __future__ import annotations

import datetime as dt
import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .dates import DAYS_PER_YEAR, parse_iso_date
from .errors import DataFormatError
from .estimation import GeneratorMatrix
from .panel import Panel
from .scale import N_STATES

__all__ = [
    "Excitation",
    "Scenario",
    "simulate",
    "random_generator",
    "uniform_distribution",
    "point_mass_distribution",
    "load_scenario",
    "scenario_from_mapping",
]

KINDS = ("homogeneous", "regime_switch", "excited")


def uniform_distribution() -> np.ndarray:
    """Equal probability on all 15 states."""
    return np.full(N_STATES, 1.0 / N_STATES)


def point_mass_distribution(state: int) -> np.ndarray:
    """All banks start in one state."""
    if not 0 <= state < N_STATES:
        raise ValueError(f"state {state} outside 0..{N_STATES - 1}")
    p = np.zeros(N_STATES)
    p[state] = 1.0
    return p


@dataclass(frozen=True)
class Excitation:
    """Post-downgrade memory: downward rates scaled by ``gamma`` for
    ``memory_days`` days after each downgrade."""

    gamma: float
    memory_days: int

    def __post_init__(self):
        if not 0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        if self.memory_days < 1:
            raise ValueError(f"memory_days must be >= 1, got {self.memory_days}")


@dataclass(frozen=True)
class Scenario:
    """Full description of one synthetic panel; a value object.

    ``generators`` is the schedule of (activation date, generator):
    the first entry activates on the span start, later entries replace
    it from their date on.
    """

    kind: str
    generators: tuple[tuple[dt.date, GeneratorMatrix], ...]
    n_banks: int
    span: tuple[dt.date, dt.date]
    seed: int
    initial_distribution: np.ndarray
    excitation: Optional[Excitation] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if self.n_banks < 0:
            raise ValueError("n_banks must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        start, end = self.span
        if end < start:
            raise ValueError(f"span end {end} before start {start}")
        if not self.generators:
            raise ValueError("scenario needs at least one generator")
        if self.generators[0][0] != start:
            raise ValueError("first generator must activate on the span start")
        dates = [d for d, _ in self.generators]
        for a, b in zip(dates, dates[1:]):
            if b <= a:
                raise ValueError("generator schedule dates must be increasing")
        if dates[-1] > end:
            raise ValueError("generator schedule extends past the span")
        if self.kind == "regime_switch" and len(self.generators) < 2:
            raise ValueError("regime_switch needs at least two generators")
        if self.kind != "regime_switch" and len(self.generators) != 1:
            raise ValueError(f"{self.kind} scenario takes exactly one generator")
        if (self.excitation is not None) != (self.kind == "excited"):
            raise ValueError("excitation is required exactly for 'excited' scenarios")
        p = np.asarray(self.initial_distribution, dtype=np.float64)
        # Range-check before summing: NaN passes the tolerance test and 1e308 overflows the sum.
        in_range = p.shape == (N_STATES,) and np.all((p >= 0) & (p <= 1))
        if not in_range or abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("initial_distribution must be 15 nonnegative probabilities summing to 1")
        object.__setattr__(self, "initial_distribution", p)


def random_generator(seed: int, rate_scale: float) -> GeneratorMatrix:
    """Random banded generator favoring one- and two-notch moves.

    The matrix is ``rate_scale`` times a base matrix that depends only
    on ``seed``, so rates rescale exactly with ``rate_scale``.  Row
    exit rates vary around ``rate_scale`` and are split across the
    reachable +-1 / +-2 neighbors, two-notch moves carrying less mass.
    """
    if not 0 < rate_scale < math.inf:
        raise ValueError(f"rate_scale must be positive and finite, got {rate_scale}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    base = np.zeros((N_STATES, N_STATES))
    for i in range(N_STATES):
        weights = {}
        for delta in (-2, -1, 1, 2):
            j = i + delta
            if 0 <= j < N_STATES:
                band = 1.0 if abs(delta) == 1 else 0.35
                weights[j] = band * rng.uniform(0.5, 1.5)
        exit_rate = rng.uniform(0.75, 1.25)
        total = sum(weights.values())
        for j, w in weights.items():
            base[i, j] = exit_rate * w / total
    q = rate_scale * base
    np.fill_diagonal(q, -q.sum(axis=1))
    return GeneratorMatrix(entries=q)


def _rate_table(scenario: Scenario) -> list:
    """``table[regime][excited][state]``: the running sums of the daily
    jump rates out of ``state`` (downward rates times gamma when
    excited) and the last state with a positive rate.

    Each row is summed in state order, so its total is the exit rate
    and the target state of a jump is a ``bisect`` into the sums.
    """
    gamma = scenario.excitation.gamma if scenario.excitation is not None else 1.0
    table = []
    for _, gen in scenario.generators:
        q = gen.entries / DAYS_PER_YEAR
        calm, excited = [], []
        for i in range(N_STATES):
            rates = [max(float(q[i, j]), 0.0) if j != i else 0.0 for j in range(N_STATES)]
            last = max((j for j in range(N_STATES) if rates[j] > 0.0), default=0)
            calm.append((list(accumulate(rates)), last))
            downs = [w * gamma if j < i else w for j, w in enumerate(rates)]
            excited.append((list(accumulate(downs)), last))
        table.append((calm, excited))
    return table


def _simulate_bank(
    rng: np.random.Generator, table: list, bounds: list[float], memory_days: int,
    days: list[int], states: list[int],
) -> None:
    """Append one bank's jumps after its first event, ``states[-1]`` on
    day offset 0, to the lists.

    ``bounds`` holds the regime activation days and then the span end,
    as day ordinals.
    """
    state = states[-1]
    last_day = day0 = int(bounds[0])
    t, end = bounds[0], bounds[-1]
    excite_until = -math.inf
    while t < end:
        regime = bisect_right(bounds, t) - 1
        excited = t < excite_until
        seg_end = min(bounds[regime + 1], excite_until) if excited else bounds[regime + 1]
        cum, last = table[regime][excited][state]
        lam = cum[-1]
        if lam <= 0.0 or (x := t - math.log(1.0 - rng.random()) / lam) >= seg_end:
            t = seg_end  # the clock restarts with the next segment's rates
            continue
        day = math.floor(x + 0.5)
        if day <= last_day:
            continue  # would collide with the previous event day; re-draw
        chosen = bisect_right(cum, rng.random() * lam)
        if chosen == N_STATES:  # roundoff guard: take the last reachable state
            chosen = last
        days.append(day - day0)
        states.append(chosen)
        last_day = day
        if chosen < state:
            excite_until = x + memory_days
        state, t = chosen, x


def simulate(scenario: Scenario) -> Panel:
    """Draw the scenario's panel; byte-identical for identical scenarios."""
    start, end = scenario.span
    bounds = [float(d.toordinal()) for d, _ in scenario.generators] + [float(end.toordinal())]
    table = _rate_table(scenario)
    initial_cum = np.cumsum(scenario.initial_distribution).tolist()
    memory_days = scenario.excitation.memory_days if scenario.excitation is not None else 0

    days: list[int] = []
    states: list[int] = []
    offsets = [0]
    for k in range(scenario.n_banks):
        rng = np.random.default_rng((scenario.seed, k))
        days.append(0)
        # u < 1 keeps u * total below the total, so the search stays in range
        states.append(bisect_right(initial_cum, rng.random() * initial_cum[-1]))
        _simulate_bank(rng, table, bounds, memory_days, days, states)
        offsets.append(len(days))
    # Zero-padded to one width, the ids sort in index order.
    width = max(len(str(max(scenario.n_banks - 1, 0))), 4)
    return Panel(
        [f"B{k:0{width}d}" for k in range(scenario.n_banks)],
        offsets,
        days,
        states,
        np.full(scenario.n_banks, (end - start).days),
        scenario.span,
    )


# -- scenario configuration files ------------------------------------

_REQUIRED_KEYS = {"kind", "n_banks", "start", "end", "seed", "rate_scale"}
_OPTIONAL_KEYS = {
    "generator_seed",
    "switch_date",
    "switch_multiplier",
    "gamma",
    "memory_days",
    "initial",
}


def load_scenario(path: Union[str, Path]) -> Scenario:
    """Read a flat ``key = value`` scenario file (``#`` starts a comment)."""
    mapping: dict[str, str] = {}
    for lineno, raw_line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataFormatError(f"expected 'key = value', got {raw_line!r}", row=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key in mapping:
            raise DataFormatError(f"duplicate key {key!r}", row=lineno)
        mapping[key] = value
    return scenario_from_mapping(mapping)


def _parse_initial(text: str) -> np.ndarray:
    if text == "uniform":
        return uniform_distribution()
    if text.startswith("state:"):
        return point_mass_distribution(int(text.split(":", 1)[1]))
    parts = [p for p in text.split(",")]
    if len(parts) != N_STATES:
        raise ValueError(f"initial distribution needs {N_STATES} probabilities")
    return np.asarray([float(p) for p in parts])


def scenario_from_mapping(mapping: dict[str, str]) -> Scenario:
    """Build a scenario from string key/value pairs.

    Keys: ``kind``, ``n_banks``, ``start``, ``end``, ``seed``,
    ``rate_scale`` (required; 0 gives the zero generator, a static
    panel); ``generator_seed`` (default: ``seed``),
    ``switch_date`` (regime_switch; default mid-span),
    ``switch_multiplier`` (default 3), ``gamma`` / ``memory_days``
    (excited; defaults 5 / 90), ``initial`` (``uniform``, ``state:K``
    or 15 comma-separated probabilities; default uniform).
    """
    unknown = set(mapping) - _REQUIRED_KEYS - _OPTIONAL_KEYS
    if unknown:
        raise DataFormatError(f"unknown scenario keys: {sorted(unknown)}")
    missing = _REQUIRED_KEYS - set(mapping)
    if missing:
        raise DataFormatError(f"missing scenario keys: {sorted(missing)}")
    try:
        kind = mapping["kind"]
        n_banks = int(mapping["n_banks"])
        start = parse_iso_date(mapping["start"])
        end = parse_iso_date(mapping["end"])
        seed = int(mapping["seed"])
        rate_scale = float(mapping["rate_scale"])
        generator_seed = int(mapping.get("generator_seed", str(seed)))
        if rate_scale == 0.0:  # static scenario: nobody ever moves
            base = GeneratorMatrix(entries=np.zeros((N_STATES, N_STATES)))
        else:
            base = random_generator(generator_seed, rate_scale)
        initial = _parse_initial(mapping.get("initial", "uniform"))

        excitation = None
        if kind == "excited":
            excitation = Excitation(
                gamma=float(mapping.get("gamma", "5")),
                memory_days=int(mapping.get("memory_days", "90")),
            )
        if kind == "regime_switch":
            if "switch_date" in mapping:
                switch = parse_iso_date(mapping["switch_date"])
            else:
                switch = start + dt.timedelta(days=(end - start).days // 2)
            multiplier = float(mapping.get("switch_multiplier", "3"))
            if not 0 <= multiplier < math.inf:
                raise ValueError(f"switch_multiplier must be finite and >= 0, got {multiplier}")
            switched = GeneratorMatrix(entries=multiplier * base.entries)
            generators = ((start, base), (switch, switched))
        else:
            generators = ((start, base),)

        return Scenario(
            kind=kind,
            generators=generators,
            n_banks=n_banks,
            span=(start, end),
            seed=seed,
            initial_distribution=initial,
            excitation=excitation,
        )
    except DataFormatError:
        raise
    except (ValueError, KeyError) as exc:
        raise DataFormatError(f"invalid scenario: {exc}") from exc
