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
exponential, and a jump's target is a ``side="right"`` search into the
row.  At a regime boundary or an excitation expiry the clock restarts
with the new rates (exact for exponential clocks).  Jump times are
recorded at whole days, and a jump that would land on its bank's
previous event day is drawn once more, from ``min(last day + 1/2,
segment end)``.  Holding times are memoryless, so that one draw has the
law of re-drawing from the same time until the day differs.

The loop runs in lockstep over blocks of ``BANKS_PER_BLOCK`` banks:
each step, every bank still inside the span rests to its segment end
(zero exit rate or a holding time past the segment) or jumps, all in
numpy arrays.  The streams are computed in bulk with the same bits as
``default_rng``: ``SeedSequence`` (NEP 19 fixes its hashing) and
``PCG64`` (a 128-bit LCG with the XSL-RR output, O'Neill,
HMC-CS-2014-0905) are integer arithmetic, carried out here on uint32
words and uint64 limbs for every bank of a block at once, with each
draw advancing only the streams of the banks that draw.  The float
steps are those of a per-bank Python loop, element by element; the
logarithm is ``math.log`` per element, since ``np.log`` may differ from
it in the last bit.  So the panel bytes do not depend on the block
size, and the per-bank loop in the tests' oracles reproduces them.
"""

from __future__ import annotations

import datetime as dt
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .dates import DAYS_PER_YEAR, parse_iso_date
from .errors import DataFormatError
from .estimation import GeneratorMatrix
from .panel import Panel
from .scale import N_STATES
from .textio import not_utf8, text_stream

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

# Banks stepped together; banks are independent, so the bytes do not depend on it.
# Each step costs a fixed numpy overhead per block plus per-bank work arrays: at
# 150k banks over four years (2-core x86-64 host) blocks of 1,024 took 1.0 s, blocks
# of 4,096 0.53-0.69 s at 61 MB peak RSS, and one block 0.61-0.67 s at 90 MB.
BANKS_PER_BLOCK = 4096


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
        # compared as an int, so a value too large for a float is caught here
        if not self.memory_days <= sys.float_info.max:
            raise ValueError(f"memory_days must be at most {sys.float_info.max:g}")


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
        # a bank's index is one SeedSequence word of its random stream
        if not 0 <= self.n_banks < 2**32:
            raise ValueError(f"n_banks must be nonnegative and below 2**32, got {self.n_banks}")
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")
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


@np.errstate(over="ignore")  # a huge gamma or rate sums to inf, as Python floats do
def _rate_table(scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """The daily jump rates, one row per (regime, excited, state): row
    ``(2 * regime + excited) * 15 + state``.

    Returns the running sums of the rates out of each state (downward
    rates times gamma when excited), one row of 15 each, and the last
    state with a positive calm rate (0 if none).  Each row is summed in
    state order, so its last entry is the exit rate and the target of
    a jump is a ``side="right"`` search into the row.
    """
    gamma = scenario.excitation.gamma if scenario.excitation is not None else 1.0
    below = np.tri(N_STATES, k=-1, dtype=bool)  # j < i: the downward moves
    rows = []
    for _, gen in scenario.generators:
        calm = np.maximum(gen.entries / DAYS_PER_YEAR, 0.0)
        np.fill_diagonal(calm, 0.0)
        rows.append((calm, np.where(below, calm * gamma, calm)))
    rates = np.array(rows)
    # both flags take the calm row's last state, which a tiny gamma cannot zero
    last = np.where(rates[:, [0, 0]] > 0.0, np.arange(N_STATES), 0).max(axis=-1)
    return np.cumsum(rates, axis=-1).reshape(-1, N_STATES), last.reshape(-1)


# SeedSequence (NEP 19) and PCG64 (O'Neill, HMC-CS-2014-0905) constants.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_U64 = np.uint64
_MULT_HI, _MULT_LO = _U64(_PCG_MULT >> 64), _U64(_PCG_MULT & 0xFFFFFFFFFFFFFFFF)
_MULT_LO1, _MULT_LO0 = _U64((_PCG_MULT >> 32) & _MASK32), _U64(_PCG_MULT & _MASK32)


def _uint32_words(n: int) -> list[int]:
    """``n`` as SeedSequence reads it: 32-bit words, least significant first."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _seed_sequence_state(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """``SeedSequence(entropy).generate_state(8, np.uint32)`` for every
    lane: ``entropy`` is one uint32 array (one value per lane) per word."""
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return r ^ (r >> np.uint32(16))

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, state = _INIT_B, []
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        state.append(value ^ (value >> np.uint32(16)))
    return state


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 LCG step, ``state * _PCG_MULT + inc`` mod 2**128, on
    (high, low) uint64 limbs."""
    lo1, lo0 = lo >> _U64(32), lo & _U64(_MASK32)
    p01, p10 = lo0 * _MULT_LO1, lo1 * _MULT_LO0
    # the high half of lo * _MULT_LO, from 32-bit partial products
    mid = ((lo0 * _MULT_LO0) >> _U64(32)) + (p01 & _U64(_MASK32)) + (p10 & _U64(_MASK32))
    hi = (
        lo1 * _MULT_LO1 + (p01 >> _U64(32)) + (p10 >> _U64(32)) + (mid >> _U64(32))
        + hi * _MULT_LO + lo * _MULT_HI
    )
    lo = lo * _MULT_LO + inc_lo
    return hi + inc_hi + (lo < inc_lo), lo


def _streams(seed: int, banks: np.ndarray) -> np.ndarray:
    """The ``default_rng((seed, k))`` PCG64 state of every bank ``k``
    in ``banks``, as uint64 rows (state high, state low, increment
    high, increment low).  Each ``k`` is below 2**32, so SeedSequence
    reads it as one word."""
    seed_words = [np.full(banks.size, w, dtype=np.uint32) for w in _uint32_words(seed)]
    words = _seed_sequence_state(seed_words + [banks.astype(np.uint32)])
    words = [w.astype(np.uint64) for w in words]
    initstate_hi, initstate_lo, initseq_hi, initseq_lo = (
        words[2 * i] | (words[2 * i + 1] << _U64(32)) for i in range(4)
    )
    inc_hi = (initseq_hi << _U64(1)) | (initseq_lo >> _U64(63))
    inc_lo = (initseq_lo << _U64(1)) | _U64(1)
    # PCG64 srandom: state = 0; step (state = inc); state += initstate; step
    lo = inc_lo + initstate_lo
    hi = inc_hi + initstate_hi + (lo < initstate_lo)
    return np.array([*_pcg_step(hi, lo, inc_hi, inc_lo), inc_hi, inc_lo])


def _random(streams: np.ndarray, lanes) -> np.ndarray:
    """``Generator.random()`` on the given lanes' streams, advancing them."""
    hi, lo = _pcg_step(*streams[:, lanes])
    streams[0, lanes], streams[1, lanes] = hi, lo
    x, rot = hi ^ lo, hi >> _U64(58)  # XSL-RR output
    out = (x >> rot) | (x << ((_U64(64) - rot) & _U64(63)))
    return (out >> _U64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)


def _log1m(u: np.ndarray) -> np.ndarray:
    """``math.log(1.0 - u)`` per element; ``np.log`` may differ in the last bit."""
    return np.fromiter(map(math.log, (1.0 - u).tolist()), dtype=np.float64, count=u.size)


def _simulate_block(
    scenario: Scenario, table: tuple[np.ndarray, np.ndarray], bounds: np.ndarray, first: int, n: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Step banks ``first .. first + n - 1`` together.

    Returns each bank's event count and the events' day offsets and
    states, bank by bank in time order.  ``bounds`` holds the regime
    activation days and then the span end, as day ordinals.
    """
    cum, last = table
    totals = cum[:, -1]
    memory = float(scenario.excitation.memory_days) if scenario.excitation is not None else 0.0
    end = bounds[-1]
    streams = _streams(scenario.seed, np.arange(first, first + n, dtype=np.uint64))
    initial_cum = np.cumsum(scenario.initial_distribution)
    # u < 1 keeps u * total below the total, so the search stays in range
    state = np.searchsorted(initial_cum, _random(streams, slice(None)) * initial_cum[-1], side="right")
    event_bank, event_day, event_state = [np.arange(n)], [np.full(n, bounds[0])], [state]

    bank = np.arange(n) if bounds[0] < end else np.arange(0)
    state = state[bank]
    t = np.full(bank.size, bounds[0])
    last_day = t.copy()
    excite_until = np.full(bank.size, -np.inf)
    with np.errstate(over="ignore"):  # a tiny exit rate gives an infinite holding time
        while bank.size:
            regime = np.searchsorted(bounds, t, side="right") - 1
            excited = t < excite_until
            seg_end = np.where(excited, np.minimum(bounds[regime + 1], excite_until), bounds[regime + 1])
            row = (2 * regime + excited) * N_STATES + state
            lam = totals[row]
            # lanes at rest (λ = 0) skip to the segment end without a draw
            x = np.full(bank.size, np.inf)
            draw = np.flatnonzero(lam > 0.0)
            x[draw] = t[draw] - _log1m(_random(streams, draw)) / lam[draw]
            again = np.flatnonzero((x < seg_end) & (np.floor(x + 0.5) <= last_day))
            if again.size:  # same day as the last event: one draw from past that day
                origin = np.minimum(last_day[again] + 0.5, seg_end[again])
                x[again] = origin - _log1m(_random(streams, again)) / lam[again]
            moved = x >= seg_end
            t = np.where(moved, seg_end, t)
            jump = np.flatnonzero(~moved)
            if jump.size:
                rows = row[jump]
                # bisect_right: the number of running sums not above u * λ
                target = _random(streams, jump) * lam[jump]
                chosen = N_STATES - (target[:, None] < cum[rows]).sum(axis=1)
                chosen = np.where(chosen == N_STATES, last[rows], chosen)  # roundoff guard
                x_jump = x[jump]
                day = np.floor(x_jump + 0.5)
                excite_until[jump] = np.where(chosen < state[jump], x_jump + memory, excite_until[jump])
                state[jump], t[jump], last_day[jump] = chosen, x_jump, day
                event_bank.append(bank[jump])
                event_day.append(day)
                event_state.append(chosen)
            alive = t < end
            if not alive.all():
                bank, t, state, last_day = bank[alive], t[alive], state[alive], last_day[alive]
                excite_until, streams = excite_until[alive], streams[:, alive]

    bank = np.concatenate(event_bank)
    order = np.argsort(bank, kind="stable")  # each bank's events in step order
    return (
        np.bincount(bank, minlength=n),
        (np.concatenate(event_day) - bounds[0])[order].astype(np.int32),
        np.concatenate(event_state)[order].astype(np.int16),
    )


def simulate(scenario: Scenario) -> Panel:
    """Draw the scenario's panel; byte-identical for identical scenarios."""
    start, end = scenario.span
    bounds = np.array(
        [d.toordinal() for d, _ in scenario.generators] + [end.toordinal()], dtype=np.float64
    )
    table = _rate_table(scenario)
    blocks = [
        _simulate_block(scenario, table, bounds, first, min(BANKS_PER_BLOCK, scenario.n_banks - first))
        for first in range(0, scenario.n_banks, BANKS_PER_BLOCK)
    ]
    counts, days, states = zip(*blocks) if blocks else ((), (), ())
    # Zero-padded to one width, the ids sort in index order.
    width = max(len(str(max(scenario.n_banks - 1, 0))), 4)
    return Panel(
        [f"B{k:0{width}d}" for k in range(scenario.n_banks)],
        np.concatenate([[0], *counts]).cumsum(),
        np.concatenate([np.zeros(0, np.int32), *days]),
        np.concatenate([np.zeros(0, np.int16), *states]),
        np.full(scenario.n_banks, (end - start).days),
        scenario.span,
    )


# -- scenario configuration files ------------------------------------

_REQUIRED_KEYS = {"kind", "n_banks", "start", "end", "seed", "rate_scale"}
#: Optional keys that one kind reads, and that kind; any other kind rejects them.
_KIND_KEYS = {
    "switch_date": "regime_switch",
    "switch_multiplier": "regime_switch",
    "gamma": "excited",
    "memory_days": "excited",
}
_OPTIONAL_KEYS = {"generator_seed", "initial", *_KIND_KEYS}


def load_scenario(path: Union[str, Path]) -> Scenario:
    """Read a flat ``key = value`` scenario file (``#`` starts a comment); errors name their line."""
    mapping: dict[str, str] = {}
    with text_stream(Path(path)) as stream:
        lines = stream.read().splitlines()
    for lineno, raw_line in enumerate(lines, 1):
        if not_utf8(raw_line):
            raise DataFormatError(f"not UTF-8 text ({not_utf8(raw_line)})", row=lineno)
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
        raise ValueError(f"expected uniform, state:K or {N_STATES} comma-separated probabilities, got {text!r}")
    return np.asarray([float(p) for p in parts])


# Rates near the float maximum overflow to inf, which the generator
# check then rejects with one error; numpy's warning would be a stray line.
@np.errstate(over="ignore")
def scenario_from_mapping(mapping: dict[str, str]) -> Scenario:
    """Build a scenario from string key/value pairs.

    Keys: ``kind``, ``n_banks``, ``start``, ``end``, ``seed``,
    ``rate_scale`` (required; 0 gives the zero generator, a static
    panel); ``generator_seed`` (default: ``seed``),
    ``switch_date`` (regime_switch only; default mid-span),
    ``switch_multiplier`` (regime_switch only; default 3), ``gamma`` /
    ``memory_days`` (excited only; defaults 5 / 90), ``initial``
    (``uniform``, ``state:K`` or 15 comma-separated probabilities;
    default uniform).  A key for another kind is an error, and so is a
    value that does not parse, named by its key.
    """
    unknown = set(mapping) - _REQUIRED_KEYS - _OPTIONAL_KEYS
    if unknown:
        raise DataFormatError(f"unknown scenario keys: {sorted(unknown)}")
    missing = _REQUIRED_KEYS - set(mapping)
    if missing:
        raise DataFormatError(f"missing scenario keys: {sorted(missing)}")

    def value(key, parse, default=None):
        """``parse(mapping[key])``, or of ``default`` if ``key`` is absent; a failure names ``key``."""
        text = mapping.get(key, default)
        try:
            return parse(text)
        except ValueError as exc:
            what = {int: "an integer", float: "a number"}.get(parse)
            raise ValueError(f"{key} must be {what}, got {text!r}" if what else f"{key}: {exc}") from None

    try:
        kind = mapping["kind"]
        for key in mapping:
            if _KIND_KEYS.get(key, kind) != kind:
                raise ValueError(f"{key} applies only to {_KIND_KEYS[key]} scenarios, not {kind!r}")
        n_banks = value("n_banks", int)
        start = value("start", parse_iso_date)
        end = value("end", parse_iso_date)
        seed = value("seed", int)
        rate_scale = value("rate_scale", float)
        generator_seed = value("generator_seed", int, mapping["seed"])
        for key, number in (("seed", seed), ("generator_seed", generator_seed)):
            if number < 0:  # before a SeedSequence rejects it without naming the key
                raise ValueError(f"{key} must be a nonnegative integer, got {number}")
        if rate_scale == 0.0:  # static scenario: nobody ever moves
            base = GeneratorMatrix(entries=np.zeros((N_STATES, N_STATES)))
        else:
            base = random_generator(generator_seed, rate_scale)
        initial = value("initial", _parse_initial, "uniform")

        excitation = None
        if kind == "excited":
            excitation = Excitation(
                gamma=value("gamma", float, "5"),
                memory_days=value("memory_days", int, "90"),
            )
        if kind == "regime_switch":
            if "switch_date" in mapping:
                switch = value("switch_date", parse_iso_date)
            else:
                switch = start + dt.timedelta(days=(end - start).days // 2)
            multiplier = value("switch_multiplier", float, "3")
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
    except ValueError as exc:
        raise DataFormatError(f"invalid scenario: {exc}") from exc
