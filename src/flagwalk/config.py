"""Experiment configuration: a flat schema with per-kind defaults.

Configs are plain JSON objects; unknown keys are rejected by name.  The
resolved form (all defaults filled in) is what gets written to the run
manifest, so a manifest alone reproduces the run bit for bit.
"""

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .boundary import StepMeasure
from .classifier import EmbeddingSpec, FlagConfig
from .errors import ConfigurationError
from .examples import default_measure, get_example
from .group_core import Sl2Triple

KINDS = ("classify", "walk", "lyapunov", "ldp", "renewal", "drift",
         "equidist", "decompose")

# per-kind numeric defaults; everything here lands in the manifest
_DEFAULTS = {
    "classify": {},
    "walk": {"n": 20000, "trials": 50, "cap": 1.0},
    "lyapunov": {"n": 10000, "trials": 1000},
    "ldp": {"trials": 100000},
    "renewal": {"t": 25.0, "trials": 20000},
    "drift": {"n": 60, "past_len": 60},
    "equidist": {"n": 100000, "trials": 200, "dt": 0.05, "cap": 1.0,
                 "ks_tol": 0.05, "corr_tol": 0.05},
    "decompose": {"n": 100000, "trials": 50, "cap": 1.0, "ks_tol": 0.05},
}

# numeric fields that must be numbers (not booleans) > 0 when set
_POSITIVE = ("n", "trials", "eps1", "t", "dt", "cap", "k_max", "ks_tol",
             "corr_tol", "past_len", "match_threshold")


@dataclass
class ExperimentConfig:
    kind: str
    seed: int = 0
    example: str = None
    mu: list = None          # [{"weight": w, "matrix": [[...], [...]]}]
    flag: dict = None        # {"n":, "dims":, "r0_simple_block":}
    embedding: dict = None   # {"e":, "x":, "f":, "group":}
    theta0: list = None
    n: int = None
    trials: int = None
    eps1: float = None
    n_grid: list = None
    t: float = None
    dt: float = None
    cap: float = None
    k_max: int = None
    ks_tol: float = None
    corr_tol: float = None
    past_len: int = None
    match_threshold: float = None
    words: dict = None       # {"a": [...], "a_prime": [...], "b": [...], "b_prime": [...]}

    def __setattr__(self, name, value):
        # checked on every assignment, CLI overrides included: fail before work
        if name in _POSITIVE and value is not None and \
                not (isinstance(value, (int, float)) and
                     not isinstance(value, bool) and value > 0):
            raise ConfigurationError(f"{name} must be a number > 0, "
                                     f"got {value!r}")
        super().__setattr__(name, value)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(
                f"unknown experiment kind {self.kind!r}; expected one of {KINDS}")
        self.seed = int(self.seed)
        if not (0 <= self.seed < 2 ** 64):
            raise ConfigurationError("seed must be an unsigned 64-bit integer")

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise ConfigurationError("config must be a JSON object")
        if "config" in data and "kind" not in data:
            # manifest round-trip: accept the emitted manifest directly
            data = data["config"]
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(f"unknown config key(s): {', '.join(unknown)}")
        if "kind" not in data:
            raise ConfigurationError("missing required key: kind")
        return cls(**data)

    @classmethod
    def from_file(cls, path):
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(f"invalid JSON in {path}: {exc}") from exc
        return cls.from_dict(data)

    def resolved(self):
        """Config dict of the set fields plus the measure (manifest form);
        run() has already filled the per-kind defaults."""
        out = {k: v for k, v in dataclasses.asdict(self).items() if v is not None}
        if self.mu is None and self.kind != "classify":
            out.setdefault("mu", _measure_to_spec(self.build_measure()))
        return out

    # ---- builders ----

    def build_measure(self):
        if self.mu is None:
            return default_measure()
        atoms = []
        for i, atom in enumerate(self.mu):
            if not isinstance(atom, dict) or set(atom) != {"weight", "matrix"}:
                raise ConfigurationError(
                    f"mu[{i}] must be an object with keys weight, matrix")
            atoms.append((float(atom["weight"]),
                          np.array(atom["matrix"], dtype=float)))
        return StepMeasure(tuple(atoms))

    def build_geometry(self):
        """(FlagConfig, EmbeddingSpec, expected_case or None)."""
        if self.example is not None:
            ex = get_example(self.example)
            return ex.flag, ex.embedding, ex.expected_case
        if self.flag is None or self.embedding is None:
            raise ConfigurationError(
                "classification needs either 'example' or both 'flag' and "
                "'embedding'")
        fkeys = set(self.flag) - {"n", "dims", "r0_simple_block"}
        if fkeys:
            raise ConfigurationError(f"unknown flag key(s): {', '.join(sorted(fkeys))}")
        fc = FlagConfig(int(self.flag["n"]), tuple(self.flag["dims"]),
                        self.flag.get("r0_simple_block"))
        ekeys = set(self.embedding) - {"e", "x", "f", "group"}
        if ekeys:
            raise ConfigurationError(
                f"unknown embedding key(s): {', '.join(sorted(ekeys))}")
        triple = Sl2Triple(e=np.array(self.embedding["e"], dtype=float),
                           x=np.array(self.embedding["x"], dtype=float),
                           f=np.array(self.embedding["f"], dtype=float))
        emb = EmbeddingSpec(triple, self.embedding.get("group", "SL2"))
        return fc, emb, None

    def apply_kind_defaults(self):
        """Fill unset numeric knobs from the per-kind default table."""
        for key, val in _DEFAULTS[self.kind].items():
            if getattr(self, key) is None:
                setattr(self, key, val)

    def apply_example_defaults(self):
        """Fold the example's default knobs into unset fields."""
        if self.example is None:
            return
        for key, val in get_example(self.example).defaults.items():
            if getattr(self, key, None) is None:
                setattr(self, key, val)


def _measure_to_spec(mu):
    return [{"weight": w, "matrix": [list(map(float, row)) for row in g]}
            for w, g in mu.atoms]
