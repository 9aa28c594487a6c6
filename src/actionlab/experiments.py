"""Reproducible experiment harness.

Four experiment families over the model systems, each returning a
``ResultTable`` built by ``_table`` with the provenance of ``_provenance``
(config hash, constants, code version), which ``verify`` shares:

* ``run_profile`` — action profile of one a -> b pair over an intermediate
  basis, ready for CSV/JSON dumps.
* ``run_resolution_sweep`` — disturbance, factorization and regime metrics
  against intermediate-measurement resolution.
* ``run_emergence_experiment`` — stationary intermediate values against the
  model's classical oracle over a grid of boundary conditions.
* ``run_propagation_time_experiment`` — overlap-maximizing evolution
  parameter of windowed packets against the action gradient.

The runners draw no random numbers; the config's ``seed`` is recorded in
each table's provenance and keys the invariant suite (``actionlab.verify``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

import numpy as np

from . import __version__
from .action import ALIAS_LIMIT, _points_of, _profile_rows, action_profile, stationary_points
from .errors import ConfigError, ProfileTooSparseError, ScanBoundaryError, UndefinedPhaseError
from .hilbert import LabeledBasis, PhysicalConstants, StateVector, apply_diagonal, expand
from .measurement import gaussian_kernel, joint_distribution, nondisturbance_check, regime_classifier
from .models import (
    ModelSystem,
    RingParameters,
    make_packet,
    qubit_system,
    ring_arrival_basis,
    ring_system,
    spin_system,
)

SCHEMA_VERSION = 1
# Pairs per block of an emergence scan.  A block holds at most three stacks
# of one state per pair, and a basis with complex rows is read once per
# stack.  At 16 the stacks take 1.5 MiB at N = 2048 (6 MiB at 8192); 32
# halves the reads of the rows and doubles that.
EMERGENCE_BLOCK = 16


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

# Size bounds: the largest models the experiments are sized for (spin j and
# ring N at the paper's semiclassical scale).  A t-scan holds (Q + B) phases
# per level the window reaches (``_overlap_scan``): at both bounds at most
# 201 x 4095 complex, 13 MB, and 201 x 68 at the default window.
MAX_J = 2000
MAX_SITES = 8192
MAX_SCAN_POINTS = 10001
# Every config list (emergence pairs, sweep values, propagation centres).
MAX_LIST_ITEMS = 10000
# Every config number has |v| <= MAX_ABS and every positive scale lies in
# [MIN_SCALE, MAX_ABS], so squares and ratios of them stay finite doubles.
MAX_ABS = 1e12
MIN_SCALE = 1e-12


def _rule(accepts, what: str, cast=None):
    """A field rule: ``rule(value, path)`` returns the value (cast) or raises ConfigError."""

    def check(value, path: str):
        if not accepts(value):
            raise ConfigError(f"must be {what}, got {value!r}", field=path)
        return cast(value) if cast else value

    return check


def _is_number(v, lo: float = -MAX_ABS, hi: float = MAX_ABS) -> bool:
    # type() rather than isinstance(): JSON true/false are not numbers.  The
    # range test also rejects NaN and inf, and unlike np.isfinite it works on
    # integers too large for a double.
    return type(v) in (int, float) and lo <= v <= hi


def _number(lo: float = -MAX_ABS, hi: float = MAX_ABS, cast=None):
    return _rule(lambda v: _is_number(v, lo, hi), f"a number in [{lo:.12g}, {hi:.12g}]", cast)


def _integer(lo: float = -MAX_ABS, hi: float = MAX_ABS):
    return _rule(lambda v: type(v) is int and lo <= v <= hi, f"an integer in [{lo:.12g}, {hi:.12g}]")


def _string(*choices: str):
    return _rule(lambda v: type(v) is str and (not choices or v in choices),
                 f"one of {list(choices)}" if choices else "a string")


def _list(item, non_empty: bool = False):
    """A JSON list of at most MAX_LIST_ITEMS values that pass ``item``, stored
    as a tuple; bad items are named by index."""
    whole = _rule(lambda v: type(v) is list and bool(v or not non_empty)
                  and len(v) <= MAX_LIST_ITEMS,
                  f"a {'non-empty ' if non_empty else ''}list of at most {MAX_LIST_ITEMS} items")
    return lambda value, path: tuple(item(v, f"{path}[{i}]")
                                     for i, v in enumerate(whole(value, path)))


_SCALE = _number(MIN_SCALE)
# verify.philox_stream packs the seed into the low 32 bits of its key.
SEED_RULE = _integer(0, 2**32 - 1)
# The config's seed when it gives none, and verify's without a config.
DEFAULT_SEED = 20260808


def _field(rule, default=MISSING, record_absent: bool = False):
    """A config field: ``rule`` checks its JSON value, or is the dataclass of its section.

    ``record_absent`` also names a section among the defaults applied when
    the whole mapping is left out.
    """
    return field(default=default, metadata={"rule": rule, "record_absent": record_absent})


@dataclass(frozen=True)
class StateSpec:
    """Which state to build: a basis eigenstate or a packet in that basis."""

    basis: str = _field(_string())
    eigenvalue: float | None = _field(_number(), None)
    packet_center: float | None = _field(_number(), None)
    packet_width: float | None = _field(_SCALE, None)

    def validate(self, path: str):
        has_eig = self.eigenvalue is not None
        has_packet = self.packet_center is not None or self.packet_width is not None
        if has_eig == has_packet:
            raise ConfigError(
                "specify exactly one of eigenvalue or packet_center/packet_width",
                field=path,
            )
        if has_packet and (self.packet_center is None or self.packet_width is None):
            raise ConfigError("packet needs both packet_center and packet_width", field=path)


@dataclass(frozen=True)
class ModelConfig:
    name: str = _field(_string("qubit", "spin", "ring"))
    # 2 v is exact for a double, so the half-integer test needs no tolerance.
    j: float | None = _field(_rule(lambda v: _is_number(v, 0.5, MAX_J) and (2 * v) % 1 == 0,
                                   f"a half-integer in [0.5, {MAX_J}]"), None)
    sites: int | None = _field(_integer(2, MAX_SITES), None)
    circumference: float | None = _field(_SCALE, None)
    mass: float | None = _field(_SCALE, None)
    flight_time: float | None = _field(_SCALE, None)
    winding: int = _field(_integer(), 0)

    def validate(self, path: str):
        """Fields the named model reads are set; the others keep their defaults."""
        reads = {"spin": ("j",), "ring": ("sites", "circumference", "mass", "flight_time",
                                          "winding")}.get(self.name, ())
        for f in fields(self)[1:]:
            value = getattr(self, f.name)
            if f.name in reads and value is None:
                raise ConfigError(f"{self.name} model needs {f.name}", field=f"{path}.{f.name}")
            if f.name not in reads and value != f.default:
                raise ConfigError(f"the {self.name} model does not read {f.name}",
                                  field=f"{path}.{f.name}")


@dataclass(frozen=True)
class SweepConfig:
    values: tuple[float, ...] = _field(_list(_SCALE, non_empty=True), (0.25, 1.0, 4.0, 16.0))
    units: str = _field(_string("delta_x_m", "absolute"), "delta_x_m")


@dataclass(frozen=True)
class PropagationConfig:
    tau: float = _field(_number(), 0.0)
    centers: tuple[float, ...] | None = _field(_list(_number()), None)
    window_width: float | None = _field(_SCALE, None)
    scan_halfwidth: float | None = _field(_SCALE, None)
    scan_points: int = _field(_integer(16, MAX_SCAN_POINTS), 1201)


@dataclass(frozen=True)
class OutputConfig:
    directory: str = _field(_string(), ".")
    format: str = _field(_string("csv", "json", "both"), "csv")


@dataclass(frozen=True)
class ConstantsConfig(PhysicalConstants):
    """The ``constants`` section: physical constants read from a config."""

    hbar: float = _field(_number(MIN_SCALE, cast=float), 1.0)


@dataclass(frozen=True)
class EmergenceConfig:
    """Boundary pairs (x_a, x_b) of an emergence scan, stored as floats."""

    pairs: tuple[tuple[float, float], ...] = _field(_list(_rule(
        lambda p: type(p) is list and len(p) == 2 and all(_is_number(v) for v in p),
        "two numbers", cast=lambda p: (float(p[0]), float(p[1])))))


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment config; each field's rule or section says which JSON it takes."""

    model: ModelConfig = _field(ModelConfig)
    a: StateSpec = _field(StateSpec)
    b: StateSpec = _field(StateSpec)
    intermediate: str = _field(_string())
    sweep: SweepConfig = _field(SweepConfig, SweepConfig(), record_absent=True)
    propagation: PropagationConfig = _field(PropagationConfig, PropagationConfig())
    output: OutputConfig = _field(OutputConfig, OutputConfig())
    constants: ConstantsConfig = _field(ConstantsConfig, ConstantsConfig())
    seed: int = _field(SEED_RULE, DEFAULT_SEED)
    # A nonzero width below MIN_SCALE would underflow the filter's Gaussian.
    profile_smoothing: float | str = _field(_rule(
        lambda v: v == "auto" or _is_number(v, 0, 0) or _is_number(v, MIN_SCALE),
        f"'auto', 0 or a number in [{MIN_SCALE:g}, {MAX_ABS:g}]"), "auto")
    emergence: EmergenceConfig | None = _field(EmergenceConfig, None)

    def to_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, **_json_value(self)}

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]


def _json_value(v):
    """JSON form of a config value: sections become mappings without unset fields."""
    if is_dataclass(v):
        return {f.name: _json_value(getattr(v, f.name)) for f in fields(v)
                if getattr(v, f.name) is not None}
    if isinstance(v, tuple):
        return [_json_value(x) for x in v]
    return v


def _walk(cls, raw, path: str, defaults: list[str]):
    """Build dataclass ``cls`` from the JSON mapping ``raw`` found at ``path``.

    Rejects unknown keys, checks each value against its field's rule (or
    walks into its section), appends the fields left at their defaults to
    ``defaults`` and runs the section's cross-field ``validate``, if any.
    """
    if type(raw) is not dict:
        raise ConfigError(f"must be a mapping, got {type(raw).__name__}", field=path)
    unknown = set(raw) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)}", field=path)
    kwargs = {}
    for f in fields(cls):
        where = f"{path}.{f.name}" if path else f.name
        rule = f.metadata["rule"]
        section = is_dataclass(rule)
        if f.name in raw:
            value = raw[f.name]
            kwargs[f.name] = _walk(rule, value, where, defaults) if section else rule(value, where)
        elif f.default is MISSING:
            raise ConfigError("required key missing", field=where)
        elif not section:
            defaults.append(where)
        elif f.default is not None:
            _walk(rule, {}, where, defaults)
            if f.metadata["record_absent"]:
                defaults.append(where)
    obj = cls(**kwargs)
    if hasattr(obj, "validate"):
        obj.validate(path)
    return obj


def config_from_dict(raw: dict) -> tuple[ExperimentConfig, list[str]]:
    """Parse and check a config mapping; returns (config, defaults applied)."""
    if type(raw) is dict and "schema_version" in raw:
        raw = dict(raw)
        _rule(lambda v: type(v) is int and v == SCHEMA_VERSION,
              str(SCHEMA_VERSION))(raw.pop("schema_version"), "schema_version")
    defaults: list[str] = []
    return _walk(ExperimentConfig, raw, "", defaults), defaults


# ---------------------------------------------------------------------------
# Result tables
# ---------------------------------------------------------------------------


@dataclass
class ResultTable:
    """Named columns plus provenance; serializes to CSV and JSON."""

    name: str
    columns: dict[str, list]
    provenance: dict[str, str]

    def __post_init__(self):
        lengths = {len(v) for v in self.columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"ragged columns: {sorted(lengths)}")
        if "config_hash" not in self.provenance:
            raise ValueError("provenance must carry a config hash")

    @property
    def n_rows(self) -> int:
        return len(next(iter(self.columns.values()))) if self.columns else 0

    def column(self, name: str) -> list:
        return self.columns[name]

    def to_csv(self) -> str:
        lines = [f"# {k}={self.provenance[k]}" for k in sorted(self.provenance)]
        names = list(self.columns)
        lines.append(",".join(names))
        for i in range(self.n_rows):
            lines.append(",".join(_format_cell(self.columns[n][i]) for n in names))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "name": self.name,
            "provenance": self.provenance,
            "columns": {
                k: [_json_cell(v) for v in vals] for k, vals in self.columns.items()
            },
        }
        return json.dumps(payload, sort_keys=True, indent=1)


def _format_cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def _json_cell(v):
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        v = float(v)
        return v if np.isfinite(v) else None
    return str(v)


def _provenance(experiment: str, config_hash: str, hbar: float, seed: int) -> dict[str, str]:
    return {
        "experiment": experiment,
        "config_hash": config_hash,
        "schema_version": str(SCHEMA_VERSION),
        "hbar": f"{hbar:.17g}",
        "seed": str(seed),
        "version": __version__,
    }


def _table(cfg: ExperimentConfig, name: str, columns: dict[str, list]) -> ResultTable:
    """A runner's table ``name``, with the config's provenance."""
    return ResultTable(name, columns, _provenance(name, cfg.config_hash(), cfg.constants.hbar,
                                                  cfg.seed))


# ---------------------------------------------------------------------------
# Model/state construction from configs
# ---------------------------------------------------------------------------


def build_system(model: ModelConfig, constants: PhysicalConstants) -> ModelSystem:
    if model.name == "qubit":
        return qubit_system()
    if model.name == "spin":
        return spin_system(model.j)
    params = RingParameters(model.sites, float(model.circumference), float(model.mass),
                            float(model.flight_time), model.winding)
    return ring_system(params, constants)


def _config_basis(system: ModelSystem, name: str, field: str) -> LabeledBasis:
    """``system.basis(name)`` for config field ``field``; its KeyError becomes a ConfigError."""
    try:
        return system.basis(name)
    except KeyError as err:
        raise ConfigError(err.args[0], field=field) from None


def _config_packet(basis: LabeledBasis, spec: StateSpec, role: str) -> StateVector:
    """``make_packet`` for a configured packet; a centre off the spectrum is a ConfigError."""
    try:
        return make_packet(basis, float(spec.packet_center), float(spec.packet_width))
    except ValueError as err:
        raise ConfigError(str(err), field=f"{role}.packet_center") from err


def _is_arrival(system: ModelSystem, spec: StateSpec, role: str) -> bool:
    """With an arrival map (the ring), a final state ("b") in position is an arrival event."""
    return system.arrival is not None and role == "b" and spec.basis == "position"


def build_state(system: ModelSystem, spec: StateSpec, role: str) -> StateVector:
    """Instantiate a configured state, a basis eigenstate or a packet.

    Arrival events (``_is_arrival``), eigenstates and packets alike, are
    carried back to the reference time over the configured flight time.
    """
    basis = _config_basis(system, spec.basis, f"{role}.basis")
    if spec.eigenvalue is not None:
        state = basis.state(_grid_index(basis, spec, spec.eigenvalue, f"{role}.eigenvalue"))
    else:
        state = _config_packet(basis, spec, role)
    return apply_diagonal(system.arrival, state) if _is_arrival(system, spec, role) else state


def _grid_index(basis: LabeledBasis, spec: StateSpec, x: float, field: str) -> int:
    """Index of the eigenvalue x on the grid of ``spec.basis``; off it, a
    ConfigError that names ``field``."""
    idx = basis.index_at(x)
    if abs(basis.eigenvalues[idx] - x) > 0.499 * basis.spacing_per_state()[idx]:
        raise ConfigError(f"eigenvalue {float(x)} not on the {spec.basis!r} grid "
                          f"(nearest is {basis.eigenvalues[idx]})", field=field)
    return idx


def profile_smoothing_for(cfg: ExperimentConfig, system: ModelSystem, basis: LabeledBasis) -> float:
    """Branch-filter width policy.

    A numeric config value wins; "auto" takes the model's filter width in
    median grid spacings (``ModelSystem.filter_spacings``), 0 for none.
    """
    if not isinstance(cfg.profile_smoothing, str):
        return float(cfg.profile_smoothing)
    if system.filter_spacings:
        return system.filter_spacings * float(np.median(basis.spacing))
    return 0.0


def _profile_for(cfg: ExperimentConfig):
    constants = cfg.constants
    system = build_system(cfg.model, constants)
    a = build_state(system, cfg.a, "a")
    b = build_state(system, cfg.b, "b")
    basis = _config_basis(system, cfg.intermediate, "intermediate")
    profile = _profile(a, basis, b, constants, profile_smoothing_for(cfg, system, basis))
    return system, a, b, basis, profile


def _profile(a, basis, b, constants, smoothing):
    """``action_profile``, whose refusal is a ConfigError (``_refusal``)."""
    try:
        return action_profile(a, basis, b, constants, smoothing=smoothing)
    except (UndefinedPhaseError, ProfileTooSparseError) as err:
        raise _refusal(err) from err


def _refusal(err: ValueError, pair: str | None = None, values=None) -> ConfigError:
    """A config with no usable profile names ``b`` when <b|a> vanishes and
    ``intermediate`` when too few phases are valid, or where given the
    emergence field ``pair`` and the pair's ``values``."""
    field = "b" if isinstance(err, UndefinedPhaseError) else "intermediate"
    return ConfigError(f"pair {values}: {err}" if pair else str(err), field=pair or field)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def run_profile(cfg: ExperimentConfig) -> ResultTable:
    """Action profile of the configured pair over the intermediate basis."""
    profile = _profile_for(cfg)[-1]
    return _table(cfg, "profile", {k: list(v) for k, v in profile.to_columns().items()})


def run_resolution_sweep(cfg: ExperimentConfig) -> ResultTable:
    """Disturbance and regime metrics per intermediate-measurement resolution."""
    system, a, b, basis, profile = _profile_for(cfg)
    points = stationary_points(profile)
    if cfg.sweep.units == "delta_x_m" and not points:
        raise ConfigError(
            "sweep in delta_x_m units needs a stationary point; none found",
            field="sweep.units",
        )
    final_basis = _config_basis(system, cfg.b.basis, "b.basis")
    if cfg.b.eigenvalue is None:
        raise ConfigError("resolution sweep needs an eigenstate b", field="b")
    if _is_arrival(system, cfg.b, "b"):
        # b is an arrival event, so every final outcome is read on arrival.
        final_basis = ring_arrival_basis(system)
    b_index = final_basis.index_at(float(cfg.b.eigenvalue))
    unit = points[0].delta_x_m if cfg.sweep.units == "delta_x_m" else 1.0
    stars = np.array([p.x_star for p in points]) if points else np.array([])
    # The action gradient at the dominant stationary point, read once for
    # every value's regime.
    gradient = profile.gradient_at(points[0].x_star) if points else np.nan

    # One call per value, so each value's arrays (its kernel, its joint
    # block) are freed before the next value builds its own; a plain loop
    # would hold two sets at once.
    def one(value: float) -> dict:
        delta = value * unit
        kernel = gaussian_kernel(basis, delta)
        joint = joint_distribution(a, final_basis, kernel)
        report = nondisturbance_check(kernel, profile, points)
        if points:
            regime = regime_classifier(kernel, gradient, profile.hbar).value
            argmax = joint.conditional_argmax(b_index)
            offset = float(np.min(np.abs(stars - argmax)))
        else:
            regime = "n/a"
            argmax = np.nan
            offset = np.nan
        return {
            "sweep_value": value,
            "delta_x_r": delta,
            "tv_disturbance": joint.total_variation,
            "factorization_residual": joint.factorization_residual,
            "nd_max_ratio": report.max_ratio,
            "nd_pass": report.passed,
            "regime_at_star": regime,
            "argmax_r": argmax,
            "argmax_offset": offset,
            "povm_deviation": kernel.completeness_deviation(),
            "total_probability": joint.total_probability,
            "delta_x_m": points[0].delta_x_m if points else np.nan,
            "delta_n": points[0].delta_n if points else np.nan,
        }

    return _table(cfg, "resolution_sweep", _rows_to_columns([one(v) for v in cfg.sweep.values]))


def run_emergence_experiment(cfg: ExperimentConfig) -> ResultTable:
    """Stationary intermediate values against the classical oracle.

    Every pair is put on its grids first, so a pair off them fails with its
    own ``emergence.pairs[i]`` field before any work.  The pairs then run in
    blocks of at most EMERGENCE_BLOCK, of near-equal sizes (so of two or
    more each, when there are): a block's b states take the arrival
    (``_is_arrival``) as one stack, then its b and its a states expand over
    the intermediate basis as two stacks, which the stacked core profiles
    (``action._profile_rows``) and refines (``action._points_of``) at once.  A
    classically forbidden pair whose <b|a> is the roundoff of a zero has
    no phases and no stationary point: its row says so, with NaN for the
    point.
    """
    constants = cfg.constants
    system = build_system(cfg.model, constants)
    basis = _config_basis(system, cfg.intermediate, "intermediate")
    pairs = cfg.emergence.pairs if cfg.emergence else _default_emergence_pairs(cfg, system)
    grid_step = float(np.median(basis.spacing))
    smoothing = profile_smoothing_for(cfg, system, basis)
    kernel = gaussian_kernel(basis, smoothing) if smoothing else None   # one filter, every block
    a_basis = _config_basis(system, cfg.a.basis, "a.basis")
    b_basis = _config_basis(system, cfg.b.basis, "b.basis")
    indices = []
    for i, (x_a, x_b) in enumerate(pairs):
        # A defaulted pair is on the grid, or is a's and b's own eigenvalues
        # and fails with their fields.
        pair = f"emergence.pairs[{i}]" if cfg.emergence else None
        indices.append((_grid_index(a_basis, cfg.a, x_a, pair or "a.eigenvalue"),
                        _grid_index(b_basis, cfg.b, x_b, pair or "b.eigenvalue")))

    def expanded(states, arrival: bool = False):
        # A block's states over the intermediate basis, through the arrival if given.
        if arrival:
            states = apply_diagonal(system.arrival, states)
        return expand(states, basis)

    # One call per block, so each block's stacks are freed before the next
    # block.  They go to the core as temporaries, b first, so at most three
    # stacks of one state per pair are alive at once, and the core drops
    # them once it has their products.
    def block_rows(block):
        a_index, b_index = zip(*(indices[i] for i in block))
        stack, errors = _profile_rows(
            amps_b=expanded(b_basis.states(b_index), _is_arrival(system, cfg.b, "b")),
            amps_a=expanded(a_basis.states(a_index)),
            basis=basis, hbar=constants.hbar, kernel=kernel)
        rows = []
        for i, points, error in zip(block, _points_of(stack), errors):
            x_a, x_b = pairs[i]
            predicted = system.classical_oracle(x_a, x_b)
            if error is not None and (predicted or not isinstance(error, UndefinedPhaseError)):
                # A model's default pair names the field that would replace it.
                pair = (f"emergence.pairs[{i}]" if cfg.emergence
                        else "emergence.pairs" if system.emergence_pairs else None)
                raise _refusal(error, pair, pairs[i]) from error
            template = dict.fromkeys(EMERGENCE_COLUMNS, np.nan)
            template.update(x_a=x_a, x_b=x_b, found=False, classically_allowed=bool(predicted))
            if not predicted:
                rows.append(dict(template, branch=0.0, found=len(points) > 0))
            for branch in predicted:
                row = dict(template, branch=float(np.sign(branch)), classical=branch)
                if points:
                    best = min(points, key=lambda p: abs(p.x_star - branch))
                    row.update(
                        x_star=best.x_star,
                        deviation_spacings=abs(best.x_star - branch) / grid_step,
                        delta_x_m=best.delta_x_m, delta_n=best.delta_n,
                        weak_value=best.weak_value_magnitude, curvature=best.curvature_at,
                        found=True,
                    )
                rows.append(row)
        return rows

    n = len(pairs)
    blocks = np.array_split(range(n), -(-n // EMERGENCE_BLOCK)) if n else []
    return _table(cfg, "emergence", _rows_to_columns(
        [row for block in blocks for row in block_rows(block)], EMERGENCE_COLUMNS))


def _default_emergence_pairs(cfg: ExperimentConfig, system: ModelSystem):
    """The model's default pairs, or else the configured a, b eigenvalue pair."""
    if system.emergence_pairs:
        return system.emergence_pairs
    for role, spec in (("a", cfg.a), ("b", cfg.b)):
        if spec.eigenvalue is None:
            raise ConfigError(f"emergence without pairs needs an eigenvalue for {role}", field=role)
    return ((float(cfg.a.eigenvalue), float(cfg.b.eigenvalue)),)


def run_propagation_time_experiment(cfg: ExperimentConfig) -> ResultTable:
    """Overlap-maximizing evolution parameter versus the action gradient.

    Narrow-band packets are carved out of the configured a and b states with
    a Gaussian window at each probe center; scanning the diagonal phase
    evolution exp(-i x_m t / hbar) locates the parameter t_peak that best
    maps one onto the other, which the action profile predicts as dS/dx at
    the window center.  Each scan is one small product (``_overlap_scan``).
    On the ring the states are a's energy amplitudes and those amplitudes
    times exp(-i E tau / hbar); ``b`` and ``intermediate`` are not read.
    """
    constants = cfg.constants
    system = build_system(cfg.model, constants)
    hbar = constants.hbar
    prop = cfg.propagation
    centers = prop.centers
    if system.energy_basis is not None:
        try:
            basis = system.energy_basis()
        except ValueError as err:
            raise ConfigError(str(err), field="model.sites") from err
        if cfg.a.basis != "energy" or cfg.a.packet_center is None:
            raise ConfigError(
                "ring propagation needs a = {basis: 'energy', packet_center, packet_width}",
                field="a",
            )
        a = expand(_config_packet(basis, cfg.a, "a"), basis)
        if centers is None:
            centers = (float(cfg.a.packet_center),)
        # The action steps by tau dE between levels; past the alias limit the
        # profile masks those steps and the gradient there is aliased.
        gaps = basis.spacing_per_state()
        for center in centers:
            turn = abs(prop.tau) * gaps[basis.index_at(center)] / hbar
            if turn >= ALIAS_LIMIT:
                raise ConfigError(f"{turn:.3g} rad per level at {center:g} reaches the alias "
                                  f"limit {ALIAS_LIMIT:.3g} rad", field="propagation.tau")
        b = a * np.exp(1j * (-basis.eigenvalues * prop.tau / hbar))
    else:
        basis = _config_basis(system, cfg.intermediate, "intermediate")
        a = build_state(system, cfg.a, "a")
        b = build_state(system, cfg.b, "b")
    profile = _profile(a, basis, b, constants, profile_smoothing_for(cfg, system, basis))
    support = profile.x_grid[np.isfinite(profile.gradient)]
    if not support.size:
        raise ConfigError("the action profile has no finite gradient; it needs three "
                          "contiguous phase-valid points", field="intermediate")
    step = float(np.median(basis.spacing))
    window = 4.0 * step if prop.window_width is None else prop.window_width
    if centers is None:
        # Each stationary point, and each probe 3 steps beside it that lies
        # inside the gradient's support.
        centers = []
        for pt in stationary_points(profile):
            probes = (pt.x_star - 3.0 * step, pt.x_star + 3.0 * step)
            centers += [pt.x_star, *(p for p in probes if support[0] <= p <= support[-1])]
        centers = centers or [float(profile.x_grid[profile.dim // 2])]
    rates = basis.eigenvalues / hbar
    rows = []
    for i, center in enumerate(centers):
        field = None if prop.centers is None else f"propagation.centers[{i}]"
        try:
            expected = profile.gradient_at(float(center))
        except ValueError as err:
            raise ConfigError(str(err), field=field) from err
        gauss = np.exp(-((basis.eigenvalues - center) ** 2) / (4.0 * window * window))
        # Window the (branch-filtered) contribution amplitudes: the scan is
        # then the windowed Fourier transform of one smooth action branch.
        weights = gauss * gauss * np.abs(profile.amp_product)
        norm = float(np.sum(weights))
        if norm < 1e-15:  # a defaulted centre names the width if that was set
            raise ConfigError(f"window at {center:g} captures no amplitude", field=field or (
                None if prop.window_width is None else "propagation.window_width"))
        windowed = gauss * gauss * profile.amp_product / norm
        half = prop.scan_halfwidth
        if half is None:
            half = 3.0 * abs(expected) + 12.0 * hbar / window
        elif abs(expected) >= half:
            raise ScanBoundaryError(f"scan half-width {half:g} does not reach the predicted peak "
                                    f"{expected:g} for center {center:g}; widen the scan",
                                    field="propagation.scan_halfwidth")
        # The overlap peak is hbar / sigma_E wide in t, sigma_E the rms energy
        # spread under the window; a coarser scan step aliases it.
        mean = weights @ rates / norm
        spread = float(np.sqrt(weights @ (rates - mean) ** 2 / norm))
        dt = 2.0 * half / (prop.scan_points - 1)
        if dt * spread > 1.0:
            raise ConfigError(
                f"scan step {dt:.3g} exceeds the overlap peak's width {1.0 / spread:.3g} "
                f"at center {center:g}; add scan points or narrow the scan",
                field="propagation.scan_points" if prop.scan_halfwidth is None
                else "propagation.scan_halfwidth")
        # The scan sums only the levels the window reaches (``_overlap_scan``).
        t_grid, overlap = _overlap_scan(windowed, rates, half, prop.scan_points)
        peak = int(np.argmax(overlap))
        if peak in (0, len(t_grid) - 1):
            raise ScanBoundaryError(
                f"overlap peak at scan boundary for center {center:g}; widen the scan",
                field="propagation.scan_halfwidth",
            )
        # Parabolic refinement of the peak.
        y0, y1, y2 = overlap[peak - 1], overlap[peak], overlap[peak + 1]
        denom = y0 - 2.0 * y1 + y2
        shift = 0.5 * (y0 - y2) / denom if denom != 0 else 0.0
        t_peak = float(t_grid[peak] + shift * (t_grid[1] - t_grid[0]))
        rows.append({
            "center": float(center),
            "window_width": window,
            "expected_gradient": expected,
            "t_peak": t_peak,
            "deviation": abs(t_peak - expected),
            "peak_overlap": float(overlap[peak]),
        })
    return _table(cfg, "propagation_time", _rows_to_columns(rows, PROPAGATION_COLUMNS))


def _overlap_scan(windowed: np.ndarray, rates: np.ndarray, half: float,
                  n: int) -> tuple[np.ndarray, np.ndarray]:
    """The grid t_k = -half + k dt (n points) and |sum_m exp(-i t_k w_m) windowed_m|.
    With k = q B + r, B = ceil(sqrt(n)), block rows exp(-i t_qB w) times offset
    rows exp(-i r dt w) make it one (Q x L)(L x B) product over the L levels in
    reach: (Q + B) L exponentials.

    The sum runs over the levels the window reaches: the contiguous span from
    the first to the last m with |windowed_m| >= (eps / d) sum |windowed|
    (d = windowed.size, eps the double rounding unit).  The d or fewer terms
    left out add up to at most eps sum |windowed|, which moves each overlap
    by less than the d eps sum |windowed| rounding bound its product has."""
    mags = np.abs(windowed)
    reach = np.flatnonzero(mags >= np.finfo(float).eps / windowed.size * np.sum(mags))
    span = slice(reach[0], reach[-1] + 1)
    windowed, rates = windowed[span], rates[span]
    t_grid, dt = np.linspace(-half, half, n, retstep=True)
    block = int(np.ceil(np.sqrt(n)))
    coarse = np.exp(-1j * np.outer(t_grid[::block], rates)) * windowed
    fine = np.exp(-1j * np.outer(dt * np.arange(block), rates))
    return t_grid, np.abs(coarse @ fine.T).ravel()[:n]


def _rows_to_columns(rows: list[dict], names: tuple[str, ...] = ()) -> dict[str, list]:
    if not rows:
        return {name: [] for name in names}
    return {key: [row[key] for row in rows] for key in rows[0]}


EMERGENCE_COLUMNS = (
    "x_a", "x_b", "branch", "classical", "x_star", "deviation_spacings",
    "delta_x_m", "delta_n", "weak_value", "curvature", "found",
    "classically_allowed",
)
PROPAGATION_COLUMNS = (
    "center", "window_width", "expected_gradient", "t_peak", "deviation", "peak_overlap",
)
