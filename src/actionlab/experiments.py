"""Reproducible experiment harness.

Four experiment families over the model systems, each returning a
``ResultTable`` with provenance (config hash, constants, code version):

* ``run_profile`` — action profile of one a -> b pair over an intermediate
  basis, ready for CSV/JSON dumps.
* ``run_resolution_sweep`` — disturbance, factorization and regime metrics
  against intermediate-measurement resolution.
* ``run_emergence_experiment`` — stationary intermediate values against the
  model's classical oracle over a grid of boundary conditions.
* ``run_propagation_time_experiment`` — overlap-maximizing evolution
  parameter of windowed packets against the action gradient.

``run_invariant_suite`` executes the library's exact identities and
calibrated regime checks, one row per check.

Randomized checks draw from the Philox (4x64) counter-based generator keyed
by the config seed and a per-purpose stream index, so runs are reproducible
bit-for-bit across platforms.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

import numpy as np

from . import __version__
from .action import (
    action_phase,
    action_profile,
    aligned_unitary,
    stationary_points,
    unwrap_segment,
)
from .errors import ConfigError, ScanBoundaryError
from .hilbert import (
    DiagonalUnitary,
    LabeledBasis,
    PhysicalConstants,
    StateVector,
    apply_diagonal,
    expand,
    frame_shift,
    inner,
    random_state,
)
from .measurement import (
    gaussian_kernel,
    joint_distribution,
    high_res_amplitude,
    nondisturbance_check,
    projective_kernel,
    regime_classifier,
)
from .models import (
    ModelSystem,
    RingParameters,
    angular_momentum_matrices,
    make_packet,
    positive_energy_basis,
    qubit_system,
    ring_arrival,
    ring_arrival_basis,
    ring_system,
    spin_system,
)

SCHEMA_VERSION = 1

# Branch filter for standing-wave intermediate profiles, in units of the
# local grid spacing; see action.action_profile for the physics.
SPIN_PROFILE_SMOOTHING_SPACINGS = 2.0


def philox_stream(seed: int, stream: int) -> np.random.Generator:
    """Philox-4x64 counter-based generator for (seed, purpose-stream).

    The key is ``seed + (stream << 32)``, so distinct (seed, stream) pairs get
    distinct keys only while seed < 2**32 (``SEED_RULE``).
    """
    return np.random.Generator(np.random.Philox(key=np.uint64(seed) + (np.uint64(stream) << np.uint64(32))))


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

# Size bounds: the largest models the experiments are sized for (spin j and
# ring N at the paper's semiclassical scale).  A t-scan holds (Q + B) d phases
# per centre (``_overlap_scan``): at both bounds 201 x 4095 complex, 13 MB.
MAX_J = 2000
MAX_SITES = 8192
MAX_SCAN_POINTS = 10001
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
    """A JSON list of values that pass ``item``, stored as a tuple; bad items are named by index."""
    whole = _rule(lambda v: type(v) is list and bool(v or not non_empty),
                  "a non-empty list" if non_empty else "a list")
    return lambda value, path: tuple(item(v, f"{path}[{i}]")
                                     for i, v in enumerate(whole(value, path)))


_SCALE = _number(MIN_SCALE)
# philox_stream packs the seed into the low 32 bits of its key.
SEED_RULE = _integer(0, 2**32 - 1)
# Module prefixes of the invariant suite's checks (``verify --scope``).
SCOPE_RULE = _list(_string("hilbert", "models", "action", "measurement"))


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
    j: float | None = _field(_number(0.5, MAX_J), None)
    sites: int | None = _field(_integer(2, MAX_SITES), None)
    circumference: float | None = _field(_SCALE, None)
    mass: float | None = _field(_SCALE, None)
    flight_time: float | None = _field(_SCALE, None)
    winding: int = _field(_integer(), 0)

    def validate(self, path: str):
        needs = {"spin": ("j",), "ring": ("sites", "circumference", "mass", "flight_time")}
        for key in needs.get(self.name, ()):
            if getattr(self, key) is None:
                raise ConfigError(f"{self.name} model needs {key}", field=f"{path}.{key}")


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
    seed: int = _field(SEED_RULE, 20260808)
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


def _provenance(cfg: ExperimentConfig, experiment: str) -> dict[str, str]:
    return {
        "experiment": experiment,
        "config_hash": cfg.config_hash(),
        "schema_version": str(SCHEMA_VERSION),
        "hbar": f"{cfg.constants.hbar:.17g}",
        "seed": str(cfg.seed),
        "version": __version__,
    }


# ---------------------------------------------------------------------------
# Model/state construction from configs
# ---------------------------------------------------------------------------


def build_system(model: ModelConfig, constants: PhysicalConstants) -> ModelSystem:
    if model.name == "qubit":
        return qubit_system()
    if model.name == "spin":
        return spin_system(model.j)
    params = RingParameters(
        sites=model.sites,
        circumference=float(model.circumference),
        mass=float(model.mass),
        flight_time=float(model.flight_time),
        winding=model.winding,
    )
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
    """On the ring, a final state ("b") in the position basis is an arrival event."""
    return system.name.startswith("ring") and role == "b" and spec.basis == "position"


def build_state(system: ModelSystem, spec: StateSpec, role: str) -> StateVector:
    """Instantiate a configured state, a basis eigenstate or a packet.

    Arrival events (``_is_arrival``), eigenstates and packets alike, are
    carried back to the reference time over the configured flight time.
    """
    basis = _config_basis(system, spec.basis, f"{role}.basis")
    if spec.eigenvalue is not None:
        x = float(spec.eigenvalue)
        idx = basis.index_at(x)
        local = basis.spacing_per_state()[idx]
        if abs(basis.eigenvalues[idx] - x) > 0.499 * local:
            raise ConfigError(
                f"eigenvalue {x} not on the {spec.basis!r} grid "
                f"(nearest is {basis.eigenvalues[idx]})",
                field=f"{role}.eigenvalue",
            )
        state = basis.state(idx)
    else:
        state = _config_packet(basis, spec, role)
    return ring_arrival(system, state) if _is_arrival(system, spec, role) else state


def profile_smoothing_for(cfg: ExperimentConfig, system: ModelSystem, basis: LabeledBasis) -> float:
    """Branch-filter width policy.

    Transverse spin eigenstates are standing waves in the z basis, so spin
    profiles default to a two-spacing Gaussian filter; qubit and ring
    profiles are running-wave and stay bare.  A numeric config value wins.
    """
    if not isinstance(cfg.profile_smoothing, str):
        return float(cfg.profile_smoothing)
    if system.name.startswith("spin") and system.dimension > 2:
        return SPIN_PROFILE_SMOOTHING_SPACINGS * float(np.median(basis.spacing))
    return 0.0


def _profile_for(cfg: ExperimentConfig):
    constants = cfg.constants
    system = build_system(cfg.model, constants)
    a = build_state(system, cfg.a, "a")
    b = build_state(system, cfg.b, "b")
    basis = _config_basis(system, cfg.intermediate, "intermediate")
    smoothing = profile_smoothing_for(cfg, system, basis)
    profile = action_profile(a, basis, b, constants, smoothing=smoothing)
    return system, a, b, basis, profile


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def run_profile(cfg: ExperimentConfig) -> ResultTable:
    """Action profile of the configured pair over the intermediate basis."""
    _, _, _, _, profile = _profile_for(cfg)
    cols = {k: list(v) for k, v in profile.to_columns().items()}
    return ResultTable(
        name="profile",
        columns=cols,
        provenance=_provenance(cfg, "profile"),
    )


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
    dominant_x = points[0].x_star if points else float(np.nan)

    # One call per value, so each value's d x d arrays are freed before the
    # next value builds its own; a plain loop would hold two sets at once.
    def one(value: float) -> dict:
        delta = value * unit
        kernel = gaussian_kernel(basis, delta)
        joint = joint_distribution(a, final_basis, kernel)
        report = nondisturbance_check(kernel, profile, points)
        if points:
            regime = regime_classifier(kernel, profile, dominant_x).value
            argmax = joint.conditional_argmax(b_index)
            offset = float(np.min(np.abs(stars - argmax)))
        else:
            regime = "n/a"
            argmax = float(np.nan)
            offset = float(np.nan)
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
            "delta_x_m": points[0].delta_x_m if points else float(np.nan),
            "delta_n": points[0].delta_n if points else float(np.nan),
        }

    return ResultTable(
        name="resolution_sweep",
        columns=_rows_to_columns([one(value) for value in cfg.sweep.values]),
        provenance=_provenance(cfg, "resolution_sweep"),
    )


def run_emergence_experiment(cfg: ExperimentConfig) -> ResultTable:
    """Stationary intermediate values against the classical oracle."""
    constants = cfg.constants
    system = build_system(cfg.model, constants)
    basis = _config_basis(system, cfg.intermediate, "intermediate")
    pairs = cfg.emergence.pairs if cfg.emergence else _default_emergence_pairs(cfg, system)
    grid_step = float(np.median(basis.spacing))
    smoothing = profile_smoothing_for(cfg, system, basis)
    rows = []
    for i, (x_a, x_b) in enumerate(pairs):
        try:
            a = build_state(system, StateSpec(cfg.a.basis, eigenvalue=x_a), "a")
            b = build_state(system, StateSpec(cfg.b.basis, eigenvalue=x_b), "b")
        except ConfigError as err:
            # Defaulted pairs are on the grid or are a's and b's own eigenvalues.
            if cfg.emergence is None or not err.field.endswith(".eigenvalue"):
                raise
            raise ConfigError(err.message, field=f"emergence.pairs[{i}]") from err
        profile = action_profile(a, basis, b, constants, smoothing=smoothing)
        points = stationary_points(profile)
        predicted = system.classical_oracle(x_a, x_b)
        template = dict.fromkeys(EMERGENCE_COLUMNS, float(np.nan))
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
    return ResultTable(
        name="emergence",
        columns=_rows_to_columns(rows, EMERGENCE_COLUMNS),
        provenance=_provenance(cfg, "emergence"),
    )


def _default_emergence_pairs(cfg: ExperimentConfig, system: ModelSystem):
    if system.name.startswith("spin"):
        j = system.metadata["j"]
        # Values at 0.3, 0.4, 0.5 of j keep every stationary point well away
        # from the spectral edge, where the semiclassical structure survives;
        # each is snapped onto the grid, which is half-integer for half-integer j.
        offset = j % 1
        vals = sorted({round(f * j - offset) + offset for f in (0.3, 0.4, 0.5)})
        return tuple((float(va), float(vb)) for va in vals for vb in vals)
    if system.name.startswith("ring"):
        if cfg.a.eigenvalue is None or cfg.b.eigenvalue is None:
            raise ConfigError("ring emergence needs eigenvalue specs for a and b", field="a")
        return ((float(cfg.a.eigenvalue), float(cfg.b.eigenvalue)),)
    return ((0.5, 0.5),)


def run_propagation_time_experiment(cfg: ExperimentConfig) -> ResultTable:
    """Overlap-maximizing evolution parameter versus the action gradient.

    Narrow-band packets are carved out of the configured a and b states with
    a Gaussian window at each probe center; scanning the diagonal phase
    evolution exp(-i x_m t / hbar) locates the parameter t_peak that best
    maps one onto the other, which the action profile predicts as dS/dx at
    the window center.  Each scan is one small product (``_overlap_scan``).
    """
    constants = cfg.constants
    system = build_system(cfg.model, constants)
    hbar = constants.hbar
    centers = cfg.propagation.centers
    if system.name.startswith("ring"):
        try:
            basis = positive_energy_basis(system)
        except ValueError as err:
            raise ConfigError(str(err), field="model.sites") from err
        spec_a = cfg.a
        if spec_a.basis != "energy" or spec_a.packet_center is None:
            raise ConfigError(
                "ring propagation needs a = {basis: 'energy', packet_center, packet_width}",
                field="a",
            )
        a = _config_packet(basis, spec_a, "a")
        tau = cfg.propagation.tau
        evolved = DiagonalUnitary(basis, -basis.eigenvalues * tau / hbar)
        b = apply_diagonal(evolved, a)
        if centers is None:
            centers = (float(spec_a.packet_center),)
    else:
        basis = _config_basis(system, cfg.intermediate, "intermediate")
        a = build_state(system, cfg.a, "a")
        b = build_state(system, cfg.b, "b")
    smoothing = profile_smoothing_for(cfg, system, basis)
    profile = action_profile(a, basis, b, constants, smoothing=smoothing)
    if not np.any(np.isfinite(profile.gradient)):
        raise ConfigError("the action profile has no finite gradient; it needs three "
                          "contiguous phase-valid points", field="intermediate")
    step = float(np.median(basis.spacing))
    window = cfg.propagation.window_width
    if window is None:
        window = 4.0 * step
    if centers is None:
        pts = stationary_points(profile)
        centers = []
        for pt in pts:
            centers.append(pt.x_star)
            for side in (-1.0, 1.0):
                probe = pt.x_star + side * 3.0 * step
                try:
                    profile.gradient_at(float(probe))
                except ValueError:
                    continue
                centers.append(probe)
        if not centers:
            centers = [float(profile.x_grid[profile.dim // 2])]
        centers = tuple(centers)
    rows = []
    for i, center in enumerate(centers):
        try:
            expected = profile.gradient_at(float(center))
        except ValueError as err:
            if cfg.propagation.centers is None:  # defaulted centres name no field
                raise
            raise ConfigError(str(err), field=f"propagation.centers[{i}]") from err
        gauss = np.exp(-((basis.eigenvalues - center) ** 2) / (4.0 * window * window))
        # Window the (branch-filtered) contribution amplitudes: the scan is
        # then the windowed Fourier transform of one smooth action branch.
        weights = gauss * gauss * np.abs(profile.amp_product)
        norm = float(np.sum(weights))
        if norm < 1e-15:  # a defaulted centre names the width if that was set, else no field
            field = None if cfg.propagation.window_width is None else "propagation.window_width"
            if cfg.propagation.centers is not None:
                field = f"propagation.centers[{i}]"
            raise ConfigError(f"window at {center:g} captures no amplitude", field=field)
        windowed = gauss * gauss * profile.amp_product / norm
        half = cfg.propagation.scan_halfwidth
        if half is None:
            half = 3.0 * abs(expected) + 12.0 * hbar / window
        t_grid, overlap = _overlap_scan(windowed, basis.eigenvalues / hbar, half,
                                        cfg.propagation.scan_points)
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
    return ResultTable(
        name="propagation_time",
        columns=_rows_to_columns(rows, PROPAGATION_COLUMNS),
        provenance=_provenance(cfg, "propagation_time"),
    )


def _overlap_scan(windowed: np.ndarray, rates: np.ndarray, half: float,
                  n: int) -> tuple[np.ndarray, np.ndarray]:
    """The grid t_k = -half + k dt (n points) and |sum_m exp(-i t_k w_m) windowed_m|.
    With k = q B + r, B = ceil(sqrt(n)), block rows exp(-i t_qB w) times offset
    rows exp(-i r dt w) make it one (Q x d)(d x B) product: (Q + B) d exponentials."""
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


# ---------------------------------------------------------------------------
# Invariant suite
# ---------------------------------------------------------------------------


def _reconstruction_metric(system: ModelSystem, rng: np.random.Generator, n: int = 10) -> float:
    worst = 0.0
    names = sorted(system.bases)
    for _ in range(n):
        a = random_state(system.dimension, rng)
        b = random_state(system.dimension, rng)
        for name in names:
            basis = system.bases[name]
            total = complex(np.sum(np.conj(expand(b, basis)) * expand(a, basis)))
            worst = max(worst, abs(total - inner(b, a)))
    return worst


def run_invariant_suite(scope: str | list[str] = "all", seed: int = 20260808) -> ResultTable:
    """Execute every library invariant; one row per check.

    ``scope`` filters by module prefix ("hilbert", "models", "action",
    "measurement").  Randomized checks use Philox streams derived from the
    seed.  Failures are data: the table records them and the CLI maps them
    to a nonzero exit status.
    """
    wanted = None if scope == "all" else set([scope] if isinstance(scope, str) else scope)
    rows: list[dict] = []

    def record(name: str, metric: float, threshold: float, larger_fails: bool = True):
        passed = metric < threshold if larger_fails else metric <= threshold
        rows.append({"check": name, "metric": float(metric), "threshold": float(threshold),
                     "passed": bool(passed)})

    def selected(module: str) -> bool:
        return wanted is None or module in wanted

    qubit = qubit_system()
    spin20 = spin_system(20.0)
    spin50 = spin_system(50.0)
    # The suite works in units of hbar = 1 (its provenance records that).
    unit = PhysicalConstants(hbar=1.0)
    ring = ring_system(RingParameters(256, 256.0, 1.0, 20.0), unit)
    ring_big = ring_system(RingParameters(401, 401.0, 1.0, 20.0), unit)
    jx50, jy50 = angular_momentum_matrices(50.0)
    if selected("action") or selected("measurement"):
        # The branch-filtered spin-50 x -> y profile over z, shared by both sections.
        prof50 = action_profile(spin50.basis("x").state_at(25.0), spin50.basis("z"),
                                spin50.basis("y").state_at(25.0), unit, smoothing=2.0)
        pts50 = stationary_points(prof50)

    if selected("hilbert"):
        rng = philox_stream(seed, 1)
        for label, system in (("qubit", qubit), ("spin20", spin20),
                              ("spin50", spin50), ("ring401", ring_big)):
            record(f"hilbert.reconstruction.{label}",
                   _reconstruction_metric(system, rng), 1e-12)
        # Frame shifts leave every transition probability alone.
        rng = philox_stream(seed, 2)
        z = spin20.basis("z")
        gen = DiagonalUnitary(z, -z.eigenvalues)
        worst = 0.0
        a = random_state(spin20.dimension, rng)
        b = random_state(spin20.dimension, rng)
        p0 = abs(inner(b, a)) ** 2
        for t in rng.uniform(-50, 50, size=100):
            at, bt = frame_shift(a, b, gen, float(t))
            worst = max(worst, abs(abs(inner(bt, at)) ** 2 - p0))
        record("hilbert.frame_shift.spin20", worst, 1e-12)
        rng = philox_stream(seed, 3)
        psi = random_state(spin50.dimension, rng)
        record("hilbert.parseval.spin50",
               abs(np.sum(np.abs(expand(psi, spin50.basis("x"))) ** 2) - 1.0), 1e-12)
        for label, mat, bname in (("jx", jx50, "x"), ("jy", jy50, "y")):
            basis = spin50.basis(bname)
            resid = np.max(np.abs(mat @ basis.vectors.T - basis.vectors.T * basis.eigenvalues))
            record(f"hilbert.eigen_residual.spin50_{label}", float(resid), 1e-9)

    if selected("models"):
        for label, system in (("qubit", qubit), ("spin20", spin20),
                              ("spin50", spin50), ("ring256", ring)):
            record(f"models.orthonormality.{label}", system.change_of_basis_residual(), 1e-10)
        bx = spin50.basis("x")
        rebuilt = (bx.vectors.T * bx.eigenvalues) @ bx.vectors.conj()
        record("models.tridiagonal_reconstruction.spin50",
               float(np.max(np.abs(rebuilt - jx50))), 1e-9)
        mom = ring.basis("momentum")
        rng = philox_stream(seed, 4)
        psi = random_state(ring.dimension, rng)
        coeffs = expand(psi, mom)
        back = mom.vectors.T @ coeffs
        record("models.ring_roundtrip.256",
               float(np.max(np.abs(back - psi.amplitudes))), 1e-12)
        z20 = spin20.basis("z")
        packet = make_packet(z20, 3.0, 5.0)
        weights = np.abs(expand(packet, z20)) ** 2
        mean = float(np.sum(z20.eigenvalues * weights))
        std = float(np.sqrt(np.sum((z20.eigenvalues - mean) ** 2 * weights)))
        record("models.packet_mean.spin20", abs(mean - 3.0), float(np.max(z20.spacing)))
        record("models.packet_std.spin20", abs(std - 5.0) / 5.0, 0.05)

    if selected("action"):
        rng = philox_stream(seed, 5)
        z = spin20.basis("z")
        a = spin20.basis("x").state_at(10.0)
        b = spin20.basis("y").state_at(10.0)
        s_ref = action_phase(a, z.state_at(5.0), b, unit)
        worst = 0.0
        for _ in range(50):
            phases = rng.uniform(0, 2 * np.pi, size=3)
            a2 = StateVector(a.amplitudes * np.exp(1j * phases[0]))
            b2 = StateVector(b.amplitudes * np.exp(1j * phases[1]))
            m2 = StateVector(z.state_at(5.0).amplitudes * np.exp(1j * phases[2]))
            worst = max(worst, abs(action_phase(a2, m2, b2, unit) - s_ref))
        record("action.gauge_invariance.spin20", worst, 1e-12)
        two_pi = 2.0 * np.pi
        fwd = action_phase(a, z.state_at(5.0), b, unit)
        rev = action_phase(b, z.state_at(5.0), a, unit)
        wrapped = abs((fwd + rev + np.pi) % two_pi - np.pi)
        record("action.antisymmetry.spin20", wrapped, 1e-12)
        spin10 = spin_system(10.0)
        a10 = spin10.basis("x").state_at(5.0)
        b10 = spin10.basis("y").state_at(5.0)
        z10 = spin10.basis("z")
        unitary, achieved = aligned_unitary(a10, z10, b10)
        tsum = float(np.sum(np.abs(np.conj(expand(b10, z10)) * expand(a10, z10))))
        record("action.triangle_equality.spin10", abs(achieved - tsum), 1e-12)
        rng = philox_stream(seed, 6)
        amp = np.conj(expand(b10, z10)) * expand(a10, z10)
        best_random = max(
            float(np.abs(np.sum(amp * np.exp(1j * rng.uniform(0, 2 * np.pi, size=z10.dim)))))
            for _ in range(1000)
        )
        record("action.triangle_maximality.spin10", best_random - achieved, 0.0, larger_fails=True)
        seg0 = np.flatnonzero(prof50.segment_id == 0)
        sl = slice(int(seg0[0]), int(seg0[-1]) + 1)
        raw = prof50.s_raw[sl]
        twopi = 2.0 * np.pi * prof50.hbar
        anchor = int(np.argmax(prof50.magnitude[sl]))
        base = unwrap_segment(raw, twopi, anchor)
        worst = 0.0
        for alt in (0, len(raw) // 2, len(raw) - 1):
            other = unwrap_segment(raw, twopi, alt)
            other -= twopi * np.round((other[anchor] - raw[anchor]) / twopi)
            worst = max(worst, float(np.max(np.abs(other - base))))
        record("action.unwrap_anchor_independence.spin50", worst, 1e-12)
        dom = pts50[0]
        record("action.cross_route_dn_wv.spin50",
               abs(dom.delta_n * dom.weak_value_magnitude - 1.0), 0.1)

    if selected("measurement"):
        z20 = spin20.basis("z")
        a = spin20.basis("x").state_at(10.0)
        y20 = spin20.basis("y")
        b = y20.state_at(10.0)
        prof = action_profile(a, z20, b, unit, smoothing=2.0)
        pts = stationary_points(prof)
        dxm = pts[0].delta_x_m
        worst_povm = worst_prob = 0.0
        tvs = []
        resid_last = 0.0
        for mult in (0.25, 1.0, 4.0, 16.0):
            ops = gaussian_kernel(z20, mult * dxm)
            joint = joint_distribution(a, y20, ops)
            worst_povm = max(worst_povm, ops.completeness_deviation())
            worst_prob = max(worst_prob, abs(joint.total_probability - 1.0))
            tvs.append(joint.total_variation)
            resid_last = joint.factorization_residual
        record("measurement.povm_completeness.spin20", worst_povm, 1e-10)
        record("measurement.total_probability.spin20", worst_prob, 1e-10)
        record("measurement.weak_limit_monotone.spin20",
               max(tvs[i + 1] - tvs[i] for i in range(3)), 0.0, larger_fails=True)
        record("measurement.factorization_decay.spin20", resid_last, 0.01)
        joint = joint_distribution(a, y20, projective_kernel(z20))
        amps_a = np.abs(expand(a, z20)) ** 2
        overlaps = np.abs(y20.vectors.conj() @ z20.vectors.T) ** 2
        textbook = overlaps.T * amps_a[:, np.newaxis]
        record("measurement.projective_limit.spin20",
               float(np.max(np.abs(joint.table - textbook))), 1e-10)
        narrow = gaussian_kernel(z20, float(np.min(z20.spacing)) / 100.0)
        joint_n = joint_distribution(a, y20, narrow)
        record("measurement.projective_narrow_kernel.spin20",
               float(np.max(np.abs(joint_n.table - textbook))), 1e-10)
        joint_mid = joint_distribution(a, y20, gaussian_kernel(z20, dxm))
        argmax = joint_mid.conditional_argmax(y20.index_at(10.0))
        record("measurement.selection_moderate.spin20",
               float(np.min(np.abs(np.array([p.x_star for p in pts]) - argmax))),
               2.0 * float(np.max(z20.spacing)), larger_fails=False)
        dom = [p for p in pts50 if p.x_star > 0][0]
        delta = 0.3 * dom.delta_x_m
        kern = gaussian_kernel(spin50.basis("z"), delta)
        hi_interior = float(prof50.x_grid[-1]) - 3.0 * delta
        worst = 0.0
        for offset in (2.0, 3.0, 4.0):
            r_val = dom.x_star + offset
            if r_val > hi_interior:
                continue
            h = high_res_amplitude(kern, prof50, r_val)
            worst = max(worst, abs(abs(h.fourier) - abs(h.closed_form)) / abs(h.closed_form))
        record("measurement.highres_fourier_vs_closed.spin50", worst, 0.02)

    scope_tag = scope if isinstance(scope, str) else ",".join(scope)
    fake_cfg_hash = hashlib.sha256(f"invariants:{scope_tag}:{seed}".encode()).hexdigest()[:16]
    return ResultTable(
        name="invariants",
        columns=_rows_to_columns(rows),
        provenance={
            "experiment": "invariants",
            "config_hash": fake_cfg_hash,
            "schema_version": str(SCHEMA_VERSION),
            "hbar": "1",
            "seed": str(seed),
            "version": __version__,
        },
    )
