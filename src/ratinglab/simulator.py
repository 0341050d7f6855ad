"""Synthetic rating panels drawn from known continuous-time processes.

Three scenario kinds:

* ``homogeneous`` -- one constant generator over the whole span; the
  null model both diagnostics should accept.
* ``regime_switch`` -- a piecewise-constant generator schedule; the
  minimal violation of time-homogeneity.
* ``excited`` -- after each of its own downgrades, a bank's downward
  rates are multiplied by ``gamma`` for ``memory_days`` days; the
  minimal violation of the Markov property.

Banks are independent and each consumes its own random stream derived
from ``(seed, bank_index)``, so panels are reproducible regardless of
evaluation order.  Holding times are exponential in the active rates;
at a regime boundary or an excitation expiry the clock restarts with
the new rates (exact for exponential clocks).  Jump times are recorded
at whole days; a jump that would land on its bank's previous event day
is re-drawn.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

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
        if p.shape != (N_STATES,) or np.any(p < 0) or abs(p.sum() - 1.0) > 1e-12:
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


def _bank_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, index))))


def _pick(cumulative: Sequence[float], u: float) -> int:
    """Index of the first cumulative weight exceeding ``u * total``."""
    target = u * cumulative[-1]
    for j, c in enumerate(cumulative):
        if target < c:
            return j
    return len(cumulative) - 1


def _simulate_bank(
    rng: np.random.Generator,
    regime_days: list[int],
    daily_rates: list[list[list[float]]],
    initial_cum: list[float],
    gamma: float,
    memory_days: int,
    day0: int,
    day1: int,
    days: list[int],
    states: list[int],
) -> None:
    """Append one bank's events (day offset from ``day0``, state) to the lists."""
    state = _pick(initial_cum, rng.random())
    days.append(0)
    states.append(state)
    last_day = day0
    t = float(day0)
    excite_until = -math.inf
    end = float(day1)

    while True:
        regime = 0
        for r in range(len(regime_days) - 1, -1, -1):
            if regime_days[r] <= t:
                regime = r
                break
        seg_end = end
        if regime + 1 < len(regime_days):
            seg_end = min(seg_end, float(regime_days[regime + 1]))
        excited = t < excite_until
        if excited:
            seg_end = min(seg_end, excite_until)

        row = daily_rates[regime][state]
        if excited:
            lam = 0.0
            for j in range(N_STATES):
                lam += row[j] * gamma if j < state else row[j]
        else:
            lam = 0.0
            for j in range(N_STATES):
                lam += row[j]

        if lam <= 0.0:
            if seg_end >= end:
                break
            t = seg_end
            continue

        u = rng.random()
        x = t - math.log(1.0 - u) / lam
        if x >= seg_end:
            if seg_end >= end:
                break
            t = seg_end
            continue

        day = int(math.floor(x + 0.5))
        if day <= last_day:
            continue  # would collide with the previous event day; re-draw

        target = rng.random() * lam
        cum = 0.0
        chosen = -1
        for j in range(N_STATES):
            w = row[j] * gamma if (excited and j < state) else row[j]
            cum += w
            if target < cum and w > 0.0:
                chosen = j
                break
        if chosen < 0:  # roundoff guard: take the last reachable state
            for j in range(N_STATES - 1, -1, -1):
                if row[j] > 0.0:
                    chosen = j
                    break

        days.append(day - day0)
        states.append(chosen)
        last_day = day
        if memory_days > 0 and chosen < state:
            excite_until = x + memory_days
        state = chosen
        t = x


def simulate(scenario: Scenario) -> Panel:
    """Draw the scenario's panel; byte-identical for identical scenarios."""
    start, end = scenario.span
    day0, day1 = start.toordinal(), end.toordinal()
    regime_days = [d.toordinal() for d, _ in scenario.generators]
    daily_rates = []
    for _, gen in scenario.generators:
        q = gen.entries / DAYS_PER_YEAR
        rows = []
        for i in range(N_STATES):
            row = [max(float(q[i, j]), 0.0) if j != i else 0.0 for j in range(N_STATES)]
            rows.append(row)
        daily_rates.append(rows)
    initial_cum = list(np.cumsum(scenario.initial_distribution))
    if scenario.excitation is not None:
        gamma, memory_days = scenario.excitation.gamma, scenario.excitation.memory_days
    else:
        gamma, memory_days = 1.0, 0

    days: list[int] = []
    states: list[int] = []
    offsets = [0]
    for k in range(scenario.n_banks):
        rng = _bank_rng(scenario.seed, k)
        _simulate_bank(
            rng, regime_days, daily_rates, initial_cum, gamma, memory_days, day0, day1,
            days, states,
        )
        offsets.append(len(days))
    # Zero-padded to one width, the ids sort in index order.
    width = max(len(str(max(scenario.n_banks - 1, 0))), 4)
    return Panel(
        [f"B{k:0{width}d}" for k in range(scenario.n_banks)],
        offsets,
        days,
        states,
        np.full(scenario.n_banks, day1 - day0),
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
