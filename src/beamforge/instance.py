"""Problem data model: instance types, validation, JSON I/O and random generation.

All lengths are stored internally as exact integer centimeters so that every
capacity and waste comparison is exact integer arithmetic.  The JSON interface
speaks decimal meters with at most two fraction digits.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from decimal import Decimal

from .errors import InstanceFormatError, ValidationError

# Candidate beam lengths (cm) used by the random generator.
BEAM_LENGTH_POOL_CM = (112, 145, 235, 250, 265, 295, 330)
SHORT_MOLD_CM = 595
LONG_MOLD_CM = 1195
NEW_BAR_CM = 1200
LEFTOVER_KINDS_CM = (200, 500, 600, 800)
DEFAULT_OVERLAP_LOSS_CM = 30


def meters_to_cm(value) -> int:
    """Convert a decimal-meter quantity to integer centimeters, exactly."""
    if isinstance(value, bool):
        raise InstanceFormatError(f"expected a number, got {value!r}")
    if isinstance(value, Decimal):
        dec = value
    elif isinstance(value, int):
        dec = Decimal(value)
    elif isinstance(value, float):
        dec = Decimal(str(value))
    else:
        raise InstanceFormatError(f"expected a number, got {value!r}")
    scaled = dec * 100
    if not scaled.is_finite():
        raise InstanceFormatError(f"length {value} is not a finite number")
    if scaled != scaled.to_integral_value():
        raise InstanceFormatError(
            f"length {value} has more than two fraction digits of meters"
        )
    return int(scaled)


def cm_to_m(cm: int) -> float:
    """Centimeters back to meters for serialization; exact for 2-digit decimals."""
    return cm / 100


@dataclass
class BeamType:
    """One beam class: the lengths offered, their demands and production needs."""

    lengths: list[int]  # cm, distinct within the type
    demands: list[int]  # one per length
    curing_time: int  # periods a cast occupies its mold
    bars_per_beam: int  # bars consumed per pattern use of this type

    @property
    def num_lengths(self) -> int:
        return len(self.lengths)


def _curing_work(beam_types) -> int:
    """Mold length times periods (cm) the demand occupies: the sum of
    curing time x length x demand over every demanded beam."""
    return sum(
        bt.curing_time * sum(l * d for l, d in zip(bt.lengths, bt.demands)) for bt in beam_types
    )


@dataclass
class Instance:
    """Full problem data for one planning run."""

    horizon: int
    beam_types: list[BeamType]
    mold_lengths: list[int]  # cm, one per mold
    num_bar_kinds: int  # new-bar kinds, first entries of bar_lengths
    bar_lengths: list[int]  # cm, new bars first then leftovers
    stock: list[int]  # counts, aligned with bar_lengths
    overlap_loss: int  # cm lost when two leftovers are spliced
    weights: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)
    distinct_mold_lengths: list[int] = field(init=False)
    mold_classes: tuple[int, ...] = field(init=False)  # 1-based class of each mold
    class_molds: tuple[tuple[int, ...], ...] = field(init=False)  # 0-based molds per class
    # Every (beam type, length index), both 1-based, in order, and the beams
    # demanded of each.
    demand_keys: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)
    demand: list[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.weights = tuple(float(w) for w in self.weights)
        self.distinct_mold_lengths = sorted(set(self.mold_lengths))
        self.mold_classes = tuple(
            self.distinct_mold_lengths.index(cap) + 1 for cap in self.mold_lengths
        )
        self.class_molds = tuple(
            tuple(m for m, g in enumerate(self.mold_classes) if g == h)
            for h in range(1, len(self.distinct_mold_lengths) + 1)
        )
        self.demand_keys = tuple(
            (c, k)
            for c, bt in enumerate(self.beam_types, start=1)
            for k in range(1, len(bt.demands) + 1)
        )
        self.demand = [d for bt in self.beam_types for d in bt.demands]

    # -- derived views ----------------------------------------------------

    @property
    def num_beam_types(self) -> int:
        return len(self.beam_types)

    @property
    def num_molds(self) -> int:
        return len(self.mold_lengths)

    @property
    def num_leftover_kinds(self) -> int:
        return len(self.bar_lengths) - self.num_bar_kinds

    @property
    def num_mold_classes(self) -> int:
        return len(self.distinct_mold_lengths)

    @property
    def max_curing_time(self) -> int:
        return max(bt.curing_time for bt in self.beam_types)

    @property
    def min_makespan(self) -> int:
        """Periods every plan takes at least: curing work over total mold length, rounded up."""
        return -(-_curing_work(self.beam_types) // sum(self.mold_lengths))

    @property
    def required_bar_length(self) -> int:
        """Bar length (cm) any plan makes at least: every demanded beam takes
        bars_per_beam mold-length bars, each at least as long as the beam."""
        return sum(
            bt.bars_per_beam * sum(l * d for l, d in zip(bt.lengths, bt.demands))
            for bt in self.beam_types
        )

    def leftover_length(self, kind: int) -> int:
        """Length (cm) of the 1-based leftover kind."""
        return self.bar_lengths[self.num_bar_kinds + kind - 1]


def validate_instance(inst: Instance) -> list[str]:
    """Return the list of violated invariants; empty when the instance is valid."""
    v: list[str] = []
    if inst.num_beam_types < 1:
        v.append("num_beam_types must be >= 1")
    if inst.num_molds < 1:
        v.append("num_molds must be >= 1")
    if inst.horizon < 1:
        v.append("horizon must be >= 1")
    if inst.num_bar_kinds < 1:
        v.append("num_bar_kinds must be >= 1")
    if inst.num_leftover_kinds < 0:
        v.append("num_bar_kinds must not exceed the bar_lengths length")
    if len(inst.stock) != len(inst.bar_lengths):
        v.append("stock length must equal bar_lengths length")
    if any(L <= 0 for L in inst.mold_lengths):
        v.append("mold lengths must be positive")
    if any(b <= 0 for b in inst.bar_lengths):
        v.append("bar lengths must be positive")
    if any(e < 0 for e in inst.stock):
        v.append("stock must be nonnegative")
    if inst.overlap_loss <= 0:
        v.append("overlap_loss must be positive")
    if len(inst.weights) != 4:
        v.append("weights must have exactly 4 entries")
    elif any(w < 0 for w in inst.weights):
        v.append("weights must be nonnegative")
    for c, bt in enumerate(inst.beam_types, start=1):
        if bt.num_lengths < 1:
            v.append(f"beam type {c}: must offer at least one length")
        if any(l <= 0 for l in bt.lengths):
            v.append(f"beam type {c}: lengths must be positive")
        if len(set(bt.lengths)) != len(bt.lengths):
            v.append(f"beam type {c}: lengths must be distinct")
        if len(bt.demands) != len(bt.lengths):
            v.append(f"beam type {c}: demands must align with lengths")
        elif any(d < 0 for d in bt.demands):
            v.append(f"beam type {c}: demands must be nonnegative")
        if bt.curing_time < 1:
            v.append(f"beam type {c}: curing_time must be >= 1")
        if bt.bars_per_beam < 0:
            v.append(f"beam type {c}: bars_per_beam must be nonnegative")
    return v


# -- JSON document format -------------------------------------------------


def parse_instance(text: str) -> Instance:
    """Parse and validate a UTF-8 JSON instance document."""
    try:
        doc = json.loads(text, parse_float=Decimal)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"invalid JSON: {exc.msg}", position=exc.pos) from exc
    if not isinstance(doc, dict):
        raise InstanceFormatError("top-level value must be an object")

    def need(key):
        if key not in doc:
            raise InstanceFormatError(f"missing key {key!r}")
        return doc[key]

    def count(key):
        value = need(key)
        if isinstance(value, bool) or not isinstance(value, int):
            raise InstanceFormatError(f"key {key!r} must be an integer")
        return value

    def int_list(values, what):
        if not isinstance(values, list):
            raise InstanceFormatError(f"{what} must be an array")
        out = []
        for item in values:
            if isinstance(item, bool) or not isinstance(item, int):
                raise InstanceFormatError(f"{what} entries must be integers")
            out.append(item)
        return out

    def length_list(values, what):
        if not isinstance(values, list):
            raise InstanceFormatError(f"{what} must be an array")
        return [meters_to_cm(item) for item in values]

    beam_types = []
    raw_types = need("beam_types")
    if not isinstance(raw_types, list):
        raise InstanceFormatError("beam_types must be an array")
    for idx, raw in enumerate(raw_types, start=1):
        if not isinstance(raw, dict):
            raise InstanceFormatError(f"beam type {idx} must be an object")
        for key in ("lengths", "demands", "curing", "bars_per_beam"):
            if key not in raw:
                raise InstanceFormatError(f"beam type {idx}: missing key {key!r}")
        for key in ("curing", "bars_per_beam"):
            if isinstance(raw[key], bool) or not isinstance(raw[key], int):
                raise InstanceFormatError(f"beam type {idx}: key {key!r} must be an integer")
        beam_types.append(
            BeamType(
                lengths=length_list(raw["lengths"], f"beam type {idx} lengths"),
                demands=int_list(raw["demands"], f"beam type {idx} demands"),
                curing_time=raw["curing"],
                bars_per_beam=raw["bars_per_beam"],
            )
        )

    raw_weights = need("lambda")
    # JSON numbers parse to int or Decimal; NaN and Infinity parse to float.
    if (
        not isinstance(raw_weights, list)
        or len(raw_weights) != 4
        or any(
            isinstance(w, bool)
            or not isinstance(w, (int, Decimal))
            or not math.isfinite(float(Decimal(w)))
            for w in raw_weights
        )
    ):
        raise InstanceFormatError("lambda must be an array of 4 finite numbers")

    counts = {key: count(key) for key in ("C", "M", "T", "W", "V")}
    inst = Instance(
        horizon=counts["T"],
        beam_types=beam_types,
        mold_lengths=length_list(need("molds"), "molds"),
        num_bar_kinds=counts["W"],
        bar_lengths=length_list(need("bars"), "bars"),
        stock=int_list(need("stock"), "stock"),
        overlap_loss=meters_to_cm(need("epsilon")),
        weights=tuple(float(w) for w in raw_weights),
    )
    # The counts of beam types, molds and leftover kinds must match their lists.
    listed = {"C": inst.num_beam_types, "M": inst.num_molds, "V": inst.num_leftover_kinds}
    violations = [
        f"{key} must equal {n}, the count its list gives, not {counts[key]}"
        for key, n in listed.items()
        if counts[key] != n and n >= 0  # validate_instance reports a W past the bar list
    ]
    violations += validate_instance(inst)
    if violations:
        raise ValidationError(violations)
    return inst


def serialize_instance(inst: Instance) -> str:
    """Serialize to the JSON document format; bit-exact round trip with parse."""
    doc = {
        "C": inst.num_beam_types,
        "M": inst.num_molds,
        "T": inst.horizon,
        "molds": [cm_to_m(L) for L in inst.mold_lengths],
        "beam_types": [
            {
                "lengths": [cm_to_m(l) for l in bt.lengths],
                "demands": list(bt.demands),
                "curing": bt.curing_time,
                "bars_per_beam": bt.bars_per_beam,
            }
            for bt in inst.beam_types
        ],
        "bars": [cm_to_m(b) for b in inst.bar_lengths],
        "W": inst.num_bar_kinds,
        "V": inst.num_leftover_kinds,
        "stock": list(inst.stock),
        "epsilon": cm_to_m(inst.overlap_loss),
        "lambda": list(inst.weights),
    }
    return json.dumps(doc) + "\n"


def load_instance(path: str) -> Instance:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InstanceFormatError(f"not UTF-8: {exc.reason} at byte {exc.start}") from None
    return parse_instance(text)


# -- random benchmark generation ------------------------------------------


def generate_instance(seed: int, num_beam_types: int, num_molds: int) -> Instance:
    """Generate a benchmark instance; a pure function of (seed, C, M)."""
    for name, count in (("beam type", num_beam_types), ("mold", num_molds)):
        if count < 1:
            raise ValueError(f"{name} count must be at least 1, got {count}")
    rng = random.Random(seed)
    beam_types = []
    for c in range(1, num_beam_types + 1):
        q = rng.randint(2, 7)
        lengths = sorted(rng.sample(BEAM_LENGTH_POOL_CM, q))
        demands = [rng.randint(17, 50) for _ in range(q)]
        # Small type counts tie curing to the type index; larger ones draw it.
        curing = c if num_beam_types <= 3 else rng.randint(1, 3)
        bars = rng.randint(1, 3)
        beam_types.append(
            BeamType(lengths=lengths, demands=demands, curing_time=curing, bars_per_beam=bars)
        )
    mold_lengths = [
        SHORT_MOLD_CM if rng.random() < 0.8 else LONG_MOLD_CM for _ in range(num_molds)
    ]
    capacity = sum(mold_lengths)
    horizon = -((-3 * _curing_work(beam_types)) // (2 * capacity))  # ceil(1.5 work / capacity)
    max_bars = max(bt.bars_per_beam for bt in beam_types)
    upper = 2 * horizon * num_molds * max_bars
    stock = [upper] + [rng.randint(math.ceil(upper / 5), upper) for _ in LEFTOVER_KINDS_CM]
    return Instance(
        horizon=horizon,
        beam_types=beam_types,
        mold_lengths=mold_lengths,
        num_bar_kinds=1,
        bar_lengths=[NEW_BAR_CM, *LEFTOVER_KINDS_CM],
        stock=stock,
        overlap_loss=DEFAULT_OVERLAP_LOSS_CM,
        weights=(1.0, 1.0, 1.0, 1.0),
    )
