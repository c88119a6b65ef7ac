"""Coefficient data: finite sequence windows and the (p, q, w) triple.

Infinite sequences are represented by finite windows with an explicit start
offset.  The convention throughout: p and q live on indices 0, 1, 2, ...
(offset 0) while w lives on 1, 2, 3, ... (offset 1).

`_integer` is the one rule for an integer argument (a size, seed, case count,
N, or window index via `Sequence.require`): a bool, a non-integer or a value
below its least is a ValidationError, and numpy integers pass.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, WindowError

__all__ = [
    "Sequence",
    "CoefficientSet",
    "load_coefficients",
    "make_preset",
    "check_preset",
    "serialize_coefficients",
    "PRESETS",
]


@dataclass(frozen=True)
class Sequence:
    """A finite window of a real (float64) or complex (complex128) sequence.

    ``offset`` is the index of the first stored entry; entry ``n`` is valid
    for ``offset <= n < offset + len(values)``.  Complex input stays complex
    and anything else is stored as float64; the array is made read-only.
    """

    offset: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values)
        vals = vals.astype(np.complex128 if np.iscomplexobj(vals) else np.float64, copy=False)
        if vals.ndim != 1 or vals.size < 1:
            raise ValidationError("sequence needs at least one entry")
        object.__setattr__(self, "offset", _integer(self.offset, "offset"))
        if not np.all(np.isfinite(vals)):
            raise ValidationError("sequence entries must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def end(self) -> int:
        """One past the last valid index."""
        return self.offset + len(self.values)

    def covers(self, lo: int, hi: int) -> bool:
        """True if every index in lo..hi (inclusive) is stored."""
        return self.offset <= lo and hi < self.end

    def require(self, lo: int, hi: int, what: str = "sequence"):
        """WindowError unless lo..hi is stored; lo and hi must be integers."""
        if not self.covers(_integer(lo, f"{what} index", None),
                           _integer(hi, f"{what} index", None)):
            raise WindowError(
                f"{what} window [{self.offset}, {self.end}) does not cover {lo}..{hi}"
            )

    def at(self, n: int):
        """Entry n as a numpy scalar of the stored dtype."""
        self.require(n, n)
        return self.values[n - self.offset]

    def window(self, lo: int, hi: int, what: str = "sequence") -> np.ndarray:
        """Entries lo..hi inclusive as an array view; `what` names the
        sequence in the WindowError."""
        self.require(lo, hi, what)
        return self.values[lo - self.offset : hi + 1 - self.offset]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return self.offset == other.offset and np.array_equal(self.values, other.values)

    def __hash__(self):
        # Equal windows, real or complex, have equal real parts; + 0.0 makes -0.0 into 0.0.
        return hash((self.offset, (self.values.real + 0.0).tobytes()))


def _integer(value, what: str, least: int | None = 0) -> int:
    """value as an int not below `least` (None: no bound), else a
    ValidationError naming `what`: a bool or a non-integer is no index,
    size, seed or count, while numpy integers pass."""
    try:
        n = operator.index(value)
    except TypeError:
        n = None
    if n is not None and not isinstance(value, bool) and (least is None or n >= least):
        return n
    bound = "" if least is None else f" >= {least}"
    raise ValidationError(f"{what} must be an integer{bound}, got {value!r}")


def _require(name: str, ok: np.ndarray, offset: int, what: str):
    """Raise ValidationError naming the first index, along axis 0, where ok fails."""
    if not np.all(ok):
        first = int(np.argmin(ok.reshape(len(ok), -1).all(axis=1)))
        raise ValidationError(f"{name}({first + offset}) {what}")


def _real(name: str, vals: np.ndarray) -> np.ndarray:
    """vals as real numbers: the real part of complex input whose imaginary
    part is zero, else ValidationError."""
    if not np.iscomplexobj(vals):
        return vals
    if np.any(vals.imag != 0.0):
        raise ValidationError(f"{name} must be real-valued")
    return vals.real


def _floats(what: str, value, scalar: bool = False):
    """value as a float64 array, or as a float if scalar, else ValidationError."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        arr = None
    if arr is None or (scalar and arr.ndim):
        raise ValidationError(f"{what} is not {'a number' if scalar else 'numeric'}: {value!r}")
    return float(arr) if scalar else arr


def _real_triple(p, q, w) -> CoefficientSet:
    """The CoefficientSet of float64 p and q from index 0 and w from index 1."""
    seqs = []
    for name, arr, offset in (("p", p, 0), ("q", q, 0), ("w", w, 1)):
        vals = _floats(name, arr)
        if vals.ndim != 1 or vals.size < 1:
            raise ValidationError(f"{name} must be a non-empty 1-d array")
        try:
            seqs.append(Sequence(offset, vals))
        except ValidationError:   # only a non-finite entry fails here: name the first
            _require(name, np.isfinite(vals), offset, "is not finite")
    return CoefficientSet(*seqs)


@dataclass(frozen=True)
class CoefficientSet:
    """The triple (p, q, w): p > 0 and q >= 0 on offset 0, w real on offset 1.

    The three are stored as float64 windows: a complex Sequence is accepted
    when its imaginary part is zero, and replaced by its real part.
    """

    p: Sequence
    q: Sequence
    w: Sequence
    q_nontrivial: bool = field(init=False)

    def __post_init__(self):
        if self.p.offset != 0 or self.q.offset != 0:
            raise ValidationError("p and q must start at index 0")
        if self.w.offset != 1:
            raise ValidationError("w must start at index 1")
        for name in ("p", "q", "w"):
            seq = getattr(self, name)
            if np.iscomplexobj(seq.values):
                object.__setattr__(self, name,
                                   Sequence(seq.offset, _real(name, seq.values)))
        _require("p", self.p.values > 0, 0, "not strictly positive")
        _require("q", self.q.values >= 0, 0, "negative")
        object.__setattr__(self, "q_nontrivial", bool(np.any(self.q.values > 0)))


# Each preset's parameters, with their defaults.
PRESETS = {
    "constant": {"p": 1.0, "q": 0.0, "w": 1.0},
    "power": {"p_exp": 1.0, "q_scale": 1.0, "q_exp": 0.0, "w_exp": 0.0},
    "periodic": {"p": (1.0, 2.0), "q": (0.0, 1.0), "w": (1.0, -1.0)},
    "random": {"p_range": (0.1, 10.0), "q_range": (0.0, 5.0), "w_range": (-5.0, 5.0)},
}


def check_preset(name, params) -> None:
    """ValidationError unless name is a preset and params a mapping of its keys."""
    if not isinstance(name, str) or name not in PRESETS:
        raise ValidationError(f"unknown preset {name!r}, choose from {', '.join(PRESETS)}")
    if not isinstance(params, dict):
        raise ValidationError(f"preset params must be an object, got {params!r}")
    for key in params:
        if key not in PRESETS[name]:
            raise ValidationError(f"preset {name!r} has no parameter {key!r}; "
                                  f"it takes {', '.join(PRESETS[name])}")


def make_preset(name: str, params: dict | None = None, length: int = 10,
                rng_seed: int = 0) -> CoefficientSet:
    """Build a named coefficient family of the given window length.

    Presets (parameter defaults in `PRESETS`):
      constant  p, q, w constant; params p, q, w
      power     p(n) = (n+1)**p_exp, q(n) = q_scale*n**q_exp, w(n) = (-1)**n * n**w_exp
      periodic  p, q, w cycle through the given lists (params p, q, w; a
                scalar is a one-entry cycle)
      random    uniform draws p in [0.1, 10], q in [0, 5], w in [-5, 5]; params
                p_range, q_range, w_range override these as (lo, hi) pairs
    """
    params = {} if params is None else params
    check_preset(name, params)
    length, rng_seed = _integer(length, "preset length", 2), _integer(rng_seed, "preset seed")
    n0 = np.arange(length, dtype=float)       # indices 0..length-1 for p, q
    n1 = np.arange(1, length + 1, dtype=float)  # indices 1..length for w

    def param(key, scalar=True):
        return _floats(f"{name} {key}", params.get(key, PRESETS[name][key]), scalar)

    if name == "constant":
        p, q, w = (np.full(length, param(key)) for key in "pqw")
    elif name == "power":
        p = (n0 + 1.0) ** param("p_exp")
        q = param("q_scale") * n0 ** param("q_exp")
        w = (-1.0) ** n1 * n1 ** param("w_exp")
    elif name == "periodic":
        def cycle(key, start):
            c = np.atleast_1d(param(key, scalar=False))
            if c.ndim != 1 or c.size == 0:
                raise ValidationError(f"periodic {key} must be a non-empty list")
            return c[np.arange(start, start + length) % c.size]
        p, q, w = cycle("p", 0), cycle("q", 0), cycle("w", 1)
    else:  # random
        def bounds(key):
            r = param(key, scalar=False)
            if r.shape != (2,):
                raise ValidationError(f"random {key} must be a (lo, hi) pair")
            if not math.isfinite(r[1].item() - r[0].item()):   # else rng.uniform overflows
                raise ValidationError(f"random {key} needs a finite hi - lo, got {r.tolist()}")
            return r
        rng = np.random.default_rng(rng_seed)
        ranges = [bounds(f"{k}_range") for k in "pqw"]
        if ranges[0][0] <= 0 or ranges[1][0] < 0:
            raise ValidationError("random ranges must keep p > 0 and q >= 0")
        p, q, w = (rng.uniform(lo, hi, length) for lo, hi in ranges)

    return _real_triple(p, q, w)


def _check_keys(mapping: dict, keys: tuple, what: str) -> None:
    """ValidationError naming the first key of mapping that is not in keys."""
    for key in mapping:
        if key not in keys:
            raise ValidationError(f"{what} takes {', '.join(keys)}, not {key!r}")


def load_coefficients(source) -> CoefficientSet:
    """Parse a coefficient document (JSON text, path-free) into a CoefficientSet.

    The document is either ``{"p": [...], "q": [...], "w": [...]}`` or
    ``{"preset": {"name": ..., "params": {...}, "length": ..., "seed": ...}}``;
    any other key is a ValidationError.
    """
    if isinstance(source, (str, bytes)):
        try:
            doc = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"malformed coefficient document: {exc}") from exc
    else:
        doc = source
    if not isinstance(doc, dict):
        raise ValidationError("coefficient document must be a JSON object")

    if "preset" in doc:
        _check_keys(doc, ("preset",), "a preset document")
        spec = doc["preset"]
        if not isinstance(spec, dict) or "name" not in spec:
            raise ValidationError("preset entry needs a 'name'")
        _check_keys(spec, ("name", "params", "length", "seed"), "a preset entry")
        return make_preset(spec["name"], spec.get("params"), length=spec.get("length", 10),
                           rng_seed=spec.get("seed", 0))

    _check_keys(doc, ("p", "q", "w"), "a coefficient document")
    missing = [k for k in ("p", "q", "w") if k not in doc]
    if missing:
        raise ValidationError(f"coefficient document missing keys: {missing}")
    return _real_triple(doc["p"], doc["q"], doc["w"])


def serialize_coefficients(coeffs: CoefficientSet) -> str:
    """Inverse of load_coefficients for explicit triples (bit-exact round trip)."""
    return json.dumps({
        "p": coeffs.p.values.tolist(),
        "q": coeffs.q.values.tolist(),
        "w": coeffs.w.values.tolist(),
    })
