"""Run configuration: typed dataclasses and a flat-section text format.

Config files are INI-style; SCHEMA below lists the sections in file order
and the RunConfig fields each one holds.  Scalars are written with repr so a
config round-trips losslessly, and eps is a comma-separated list.  Mode
tables are one mode per line, "comp k1 .. kd re im" (comp 0 for a
density); each line also deposits the conjugate at -k, so real fields list
one representative per pair.  One [phase.N] section per phase, at least
one, follows the schema's sections.
"""

from __future__ import annotations

import cmath
import configparser
import io
import math
from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .fields import EMState, electric_coeffs, init_em_state
from .multifluid import PhaseEnsemble
from .spectral import SpectralField, leray_project, mean

MODES = ("vp", "pair")  # what `vmvp simulate` runs: the VP side alone, or a VM/VP pair

# The file layout: each INI section, in file order, with the RunConfig fields
# it holds.  A field's file key is its name except where FILE_KEYS says
# otherwise.  Scalar types come from the RunConfig annotations.
SCHEMA = (
    ("run", ("dim", "cutoff", "eps_list", "t_final", "dt", "n_particles", "seed", "mode", "output_dir",
             "snapshot_every", "w2_subsample", "bootstrap_reps")),
    ("hypotheses", ("alpha", "moment_beta", "gamma1", "gamma2")),
    ("norms", ("delta0", "delta1", "eta", "loss_beta", "ck_n_iters", "ck_n_time")),
    ("fields", ("gamma", "e0_modes", "b0_modes")),
)
FILE_KEYS = {"eps_list": "eps"}
# The least value of each integer field.  Below it a run divides by zero
# (w2_subsample, snapshot_every), indexes past a one-sample time grid
# (ck_n_time), hands numpy a negative seed or array size, or is asked for a
# negative iteration count.  n_particles = 0 is the particle-free run.  dim
# is checked where a run needs it: only 2 and 3 have a field solver.
INT_FLOORS = {"n_particles": 0, "w2_subsample": 1, "snapshot_every": 1, "ck_n_time": 1,
              "seed": 0, "cutoff": 0, "bootstrap_reps": 0, "ck_n_iters": 0}


def schema_keys():
    """(section, field, file key) for every RunConfig field but phases, in file order."""
    for section, names in SCHEMA:
        for name in names:
            yield section, name, FILE_KEYS.get(name, name)


@dataclass
class PhaseSpec:
    mu: float
    rho_modes: list   # [(kvec, complex amp)]
    xi_modes: list    # [(comp, kvec, complex amp)]


@dataclass
class RunConfig:
    dim: int = 2
    cutoff: int = 16
    eps_list: list = field(default_factory=lambda: [0.2])
    t_final: float = 0.5
    dt: float = 1e-3
    phases: list = field(default_factory=list)
    e0_modes: list = field(default_factory=list)   # transverse extra part of E0
    b0_modes: list = field(default_factory=list)
    gamma: float = 0.0                             # E0,B0 extra parts scale as eps^-gamma
    n_particles: int = 4096
    seed: int = 20240801
    alpha: float = 0.5
    moment_beta: float = 0.0
    gamma1: float = 0.0
    gamma2: float = 0.0
    delta0: float = 1.4
    delta1: float = 1.15
    eta: float = 0.4
    loss_beta: float = 0.5
    ck_n_iters: int = 10
    ck_n_time: int = 256
    w2_subsample: int = 1024
    snapshot_every: int = 25
    bootstrap_reps: int = 8
    output_dir: str = "out"
    mode: str = "pair"

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}")
        for name, floor in INT_FLOORS.items():
            if getattr(self, name) < floor:
                raise ValidationError(f"{name} must be at least {floor}, got {getattr(self, name)}")
        for eps in self.eps_list:
            if not (0.0 < eps <= 1.0):
                raise ValidationError(f"eps must lie in (0,1], got {eps}")
        if not (self.delta0 > self.delta1 > 1.0):
            raise ValidationError("need delta0 > delta1 > 1")
        steps = self.t_final / self.dt if self.dt > 0 else 0.0
        n = round(steps) if math.isfinite(steps) else 0
        if n < 1 or abs(n * self.dt - self.t_final) > 1e-9 * max(1.0, self.t_final):
            raise ValidationError(f"dt = {self.dt} must be positive and divide T = {self.t_final}")
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValidationError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if not self.phases:
            raise ValidationError("a config needs at least one [phase.N] section")
        tables = {"e0_modes": self.e0_modes, "b0_modes": self.b0_modes}
        for i, ph in enumerate(self.phases, start=1):
            if not math.isfinite(ph.mu):
                raise ValidationError(f"phase.{i} mu must be finite, got {ph.mu}")
            tables[f"phase.{i} rho_modes"], tables[f"phase.{i} xi_modes"] = ph.rho_modes, ph.xi_modes
        for name, table in tables.items():
            if not all(cmath.isfinite(entry[-1]) for entry in table):
                raise ValidationError(f"{name} amplitudes must be finite")

    @property
    def n_steps(self) -> int:
        return round(self.t_final / self.dt)

    @property
    def kappa(self) -> float:
        """min(alpha - (beta + 2 gamma2), 1 - (gamma1 + gamma2))."""
        return min(self.alpha - (self.moment_beta + 2 * self.gamma2), 1.0 - (self.gamma1 + self.gamma2))


# ----------------------------------------------------------------------
# text forms
# ----------------------------------------------------------------------

def parse_eps_list(text: str) -> list:
    """The eps list from its text form: comma-separated floats."""
    return [float(v) for v in text.split(",")]


def _format_modes(entries) -> str:
    lines = []
    for comp, kvec, amp in entries:
        amp = complex(amp)
        ks = " ".join(str(int(k)) for k in kvec)
        lines.append(f"{int(comp)} {ks} {amp.real!r} {amp.imag!r}")
    return "\n" + ("\n".join(lines) if lines else "none")


def _parse_modes(text: str, dim: int):
    text = text.strip()
    if not text or text == "none":
        return []
    out = []
    for line in text.splitlines():
        parts = line.split()
        if len(parts) != dim + 3:
            raise ValidationError(f"mode line '{line}' should have comp, {dim} wavenumbers, re, im")
        comp = int(parts[0])
        kvec = tuple(int(p) for p in parts[1 : 1 + dim])
        amp = complex(float(parts[-2]), float(parts[-1]))
        out.append((comp, kvec, amp))
    return out


_SCALARS = {"int": int, "float": float, "str": str}
_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
# the fields that are not scalars: (to text, from text and dim)
_LIST_FORMS = {
    "eps_list": (lambda eps: ", ".join(repr(float(e)) for e in eps), lambda text, dim: parse_eps_list(text)),
    "e0_modes": (_format_modes, _parse_modes),
    "b0_modes": (_format_modes, _parse_modes),
}


def _to_text(name: str, value) -> str:
    if name in _LIST_FORMS:
        return _LIST_FORMS[name][0](value)
    return str(_SCALARS[_FIELD_TYPES[name]](value))  # str of a float is its repr


def _from_text(name: str, text: str, dim):
    if name in _LIST_FORMS:
        return _LIST_FORMS[name][1](text, dim)
    return _SCALARS[_FIELD_TYPES[name]](text)


def save_config(cfg: RunConfig, path) -> None:
    sections = {}
    for section, name, key in schema_keys():
        sections.setdefault(section, {})[key] = _to_text(name, getattr(cfg, name))
    for i, ph in enumerate(cfg.phases, start=1):
        sections[f"phase.{i}"] = {
            "mu": repr(float(ph.mu)),
            "rho_modes": _format_modes([(0, kv, a) for kv, a in ph.rho_modes]),
            "xi_modes": _format_modes(ph.xi_modes),
        }
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_dict(sections)
    buf = io.StringIO()
    cp.write(buf)
    Path(path).write_text(buf.getvalue(), encoding="utf-8")


def load_config(path) -> RunConfig:
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(Path(path).read_text(encoding="utf-8"))
        values = {}
        for section, name, key in schema_keys():  # dim comes first, before the mode tables need it
            values[name] = _from_text(name, cp[section][key], values.get("dim"))
        phases = []
        for name in (s for s in cp.sections() if s.startswith("phase.")):  # in file order
            sec = cp[name]
            rho = _parse_modes(sec["rho_modes"], values["dim"])
            if any(comp != 0 for comp, _, _ in rho):
                raise ValidationError(f"{name} rho_modes: a density has one component, 0")
            xi = _parse_modes(sec["xi_modes"], values["dim"])
            phases.append(PhaseSpec(mu=float(sec["mu"]), rho_modes=[(kv, a) for _, kv, a in rho], xi_modes=xi))
        cfg = RunConfig(phases=phases, **values)
    except KeyError as exc:
        raise ValidationError(f"config {path} is missing key {exc}") from exc
    except ValidationError:
        raise
    except (ValueError, configparser.Error) as exc:  # a value that does not parse, or malformed INI
        raise ValidationError(f"config {path} does not parse: {exc}") from exc
    return cfg


def resolve_config_path(name: str) -> Path:
    """Resolve 'bundled/<name>' against the packaged configs, else a file path."""
    if str(name).startswith("bundled/"):
        stem = str(name).split("/", 1)[1]
        ref = resources.files("vmvp") / "configs" / f"{stem}.cfg"
        with resources.as_file(ref) as p:
            if not p.exists():
                raise ValidationError(f"no bundled config named {stem}")
            return Path(p)
    p = Path(name)
    if not p.exists():
        raise ValidationError(f"config file {name} not found")
    return p


# ----------------------------------------------------------------------
# building initial states
# ----------------------------------------------------------------------

def build_ensemble(cfg: RunConfig, eps: float) -> PhaseEnsemble:
    rho = [SpectralField.from_modes(cfg.dim, cfg.cutoff, 1, [(0, kv, a) for kv, a in s.rho_modes]) for s in cfg.phases]
    xi = [SpectralField.from_modes(cfg.dim, cfg.cutoff, cfg.dim, s.xi_modes) for s in cfg.phases]
    return PhaseEnsemble(
        [s.mu for s in cfg.phases], np.stack([f.coeffs for f in rho]), np.stack([f.coeffs for f in xi]), eps
    )


def build_initial_fields(cfg: RunConfig, eps: float):
    """(E0, B0) for a given eps: longitudinal part from the Poisson solve of
    the total density, transverse/magnetic extras scaled by eps^-gamma."""
    ens = build_ensemble(cfg, eps)
    rho0 = ens.rho_total()
    e0 = SpectralField(cfg.dim, cfg.cutoff, electric_coeffs(rho0.coeffs, None, cfg.dim))
    scale = eps ** (-cfg.gamma) if cfg.gamma else 1.0
    if cfg.e0_modes:
        extra = SpectralField.from_modes(cfg.dim, cfg.cutoff, cfg.dim, cfg.e0_modes)
        proj = leray_project(extra)
        if np.abs(proj.coeffs - extra.coeffs).max() > 1e-10 * max(1.0, np.abs(extra.coeffs).max()):
            raise ValidationError("configured e0_modes must be divergence-free (transverse)")
        if np.abs(mean(extra)).max() > 1e-12:
            raise ValidationError("configured e0_modes must have zero mean")
        e0 = e0 + scale * extra
    b_comps = 1 if cfg.dim == 2 else cfg.dim
    if cfg.b0_modes:
        b0 = scale * SpectralField.from_modes(cfg.dim, cfg.cutoff, b_comps, cfg.b0_modes)
    else:
        b0 = SpectralField.zeros(cfg.dim, cfg.cutoff, b_comps)
    return rho0, e0, b0


def build_em_state(cfg: RunConfig, eps: float) -> EMState:
    rho0, e0, b0 = build_initial_fields(cfg, eps)
    ens = build_ensemble(cfg, eps)
    from .multifluid import moments

    return init_em_state(rho0, moments(ens).j_mean, e0, b0)
