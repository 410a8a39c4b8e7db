"""Experiment configuration: a flat schema with per-kind defaults.

Configs are plain JSON objects; unknown keys, and keys the kind never reads,
are rejected by name.  The resolved form (all defaults filled in) is what
gets written to the run manifest, so a manifest alone reproduces the run bit
for bit.  group_core's one rule for a 2x2 matrix reads the drift words
(finite_stack, naming the word) and, in StepMeasure, mu's atoms.
"""

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .boundary import StepMeasure
from .classifier import EmbeddingSpec, FlagConfig
from .errors import ConfigurationError
from .examples import EXAMPLE_NAMES, default_measure, get_example
from .group_core import Sl2Triple, finite_stack

KINDS = ("classify", "walk", "lyapunov", "ldp", "renewal", "drift",
         "equidist", "decompose")

# the fields each kind reads and their defaults (None: unset), which land in
# the manifest; a field outside these, kind, seed, mu and example is refused
_DEFAULTS = {
    "classify": {"flag": None, "embedding": None},
    "walk": {"n": 20000, "trials": 50, "cap": 1.0, "theta0": None},
    "lyapunov": {"n": 10000, "trials": 1000},
    "ldp": {"trials": 100000, "eps1": None, "n_grid": None},
    "renewal": {"t": 25.0, "trials": 20000, "k_max": None},
    "drift": {"n": 60, "past_len": 60, "words": None, "match_threshold": None},
    "equidist": {"n": 100000, "trials": 200, "cap": 1.0, "ks_tol": 0.05,
                 "corr_tol": 0.05, "theta0": None},
    "decompose": {"n": 100000, "trials": 50, "cap": 1.0, "ks_tol": 0.05},
}

# fields that must be integers > 0, and finite numbers > 0, when set (never
# booleans)
_COUNTS = ("n", "trials", "k_max", "past_len")
_POSITIVE = ("eps1", "t", "cap", "ks_tol", "corr_tol", "match_threshold")


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v):
    return _is_int(v) or isinstance(v, float)


def _expected(name, value):
    """What the field `name` must be, when `value` does not qualify; else
    None.  None is the unset value of every field but seed."""
    if name == "kind" and value not in KINDS:
        return f"one of {KINDS}"
    if name == "seed" and not (_is_int(value) and 0 <= value < 2 ** 64):
        return "an unsigned 64-bit integer"
    if value is None:
        return None
    if name in _COUNTS and not (_is_int(value) and value > 0):
        return "an integer > 0"
    if name in _POSITIVE and not (_is_number(value) and 0 < value < math.inf):
        return "a finite number > 0"
    if name == "n_grid" and not (
            isinstance(value, (list, tuple)) and value and
            all(_is_int(v) and v > 0 for v in value)):
        return "a non-empty list of integers > 0"
    if name == "example" and value not in EXAMPLE_NAMES:
        return f"a known example, one of {', '.join(EXAMPLE_NAMES)}"
    if name in ("flag", "embedding", "words") and not isinstance(value, dict):
        return "a JSON object"
    if name == "theta0" and not (
            isinstance(value, (list, tuple)) and len(value) == 2 and
            all(_is_number(v) and math.isfinite(v) for v in value) and
            any(v != 0 for v in value)):
        return "two finite numbers, not both zero"
    return None


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
    cap: float = None
    k_max: int = None
    ks_tol: float = None
    corr_tol: float = None
    past_len: int = None
    match_threshold: float = None
    words: dict = None       # {"a": [...], "a_prime": [...], "b": [...], "b_prime": [...]}

    def __setattr__(self, name, value):
        # run at every assignment (kind first), CLI overrides too: fail early
        expected = _expected(name, value)
        if expected:
            raise ConfigurationError(f"{name} must be {expected}, "
                                     f"got {value!r}")
        if name not in ("kind", "seed", "mu", "example") and \
                value is not None and name not in _DEFAULTS[self.kind]:
            raise ConfigurationError(f"{self.kind} does not read {name}")
        super().__setattr__(name, value)

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
        with open(path, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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
            try:
                atoms.append((float(atom["weight"]),
                              np.array(atom["matrix"], dtype=float)))
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(f"mu[{i}] needs a numeric weight "
                                         f"and matrix: {exc}") from exc
        return StepMeasure(tuple(atoms))

    def build_words(self):
        """The drift words {"a", "a_prime", "b", "b_prime"} as lists of
        matrices (nested lists), or None when unset."""
        if self.words is None:
            return None
        _check_keys("words", self.words, {"a", "a_prime", "b", "b_prime"},
                    set())
        words = {}
        for key, mats in self.words.items():
            if not isinstance(mats, (list, tuple)) or not mats:
                raise ConfigurationError(f"words[{key!r}] needs a non-empty "
                                         "list of 2x2 matrices")
            words[key] = finite_stack(mats, f"words[{key!r}]")
        return words

    def build_geometry(self):
        """(FlagConfig, EmbeddingSpec, expected_case or None)."""
        if self.example is not None:
            ex = get_example(self.example)
            return ex.flag, ex.embedding, ex.expected_case
        if self.flag is None or self.embedding is None:
            raise ConfigurationError(
                "classification needs either 'example' or both 'flag' and "
                "'embedding'")
        _check_keys("flag", self.flag, {"n", "dims"}, {"r0_simple_block"})
        try:
            fc = FlagConfig(int(self.flag["n"]), tuple(self.flag["dims"]),
                            self.flag.get("r0_simple_block"))
        except (TypeError, ValueError) as exc:
            raise ConfigurationError("flag needs an integer n, integer dims "
                                     f"and r0_simple_block: {exc}") from exc
        _check_keys("embedding", self.embedding, {"e", "x", "f"}, {"group"})
        try:
            triple = Sl2Triple(*(np.array(self.embedding[k], dtype=float)
                                 for k in ("e", "x", "f")))
            emb = EmbeddingSpec(triple, self.embedding.get("group", "SL2"))
        except (TypeError, ValueError) as exc:
            raise ConfigurationError("embedding needs square numeric "
                                     f"matrices e, x, f of one size: {exc}") \
                from exc
        return fc, emb, None

    def apply_kind_defaults(self):
        """Fill unset numeric knobs from the per-kind default table."""
        for key, val in _DEFAULTS[self.kind].items():
            if getattr(self, key) is None:
                setattr(self, key, val)


def _check_keys(name, obj, required, optional):
    """Name the unknown and the missing keys of the config object `name`."""
    for what, keys in (("unknown", set(obj) - required - optional),
                       ("missing", required - set(obj))):
        if keys:
            raise ConfigurationError(
                f"{what} {name} key(s): {', '.join(sorted(keys))}")


def _measure_to_spec(mu):
    return [{"weight": w, "matrix": [list(map(float, row)) for row in g]}
            for w, g in mu.atoms]
