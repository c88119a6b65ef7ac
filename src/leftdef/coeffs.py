"""Coefficient data: finite sequence windows and the (p, q, w) triple.

Infinite sequences are represented by finite windows with an explicit start
offset.  The convention throughout: p and q live on indices 0, 1, 2, ...
(offset 0) while w lives on 1, 2, 3, ... (offset 1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, WindowError

__all__ = [
    "Sequence",
    "CoefficientSet",
    "load_coefficients",
    "make_preset",
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
        if self.offset < 0:
            raise ValidationError("offset must be >= 0")
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
        if not self.covers(lo, hi):
            raise WindowError(
                f"{what} window [{self.offset}, {self.end}) does not cover {lo}..{hi}"
            )

    def at(self, n: int):
        """Entry n as a numpy scalar of the stored dtype."""
        self.require(n, n)
        return self.values[n - self.offset]

    def window(self, lo: int, hi: int) -> np.ndarray:
        """Entries lo..hi inclusive as an array view."""
        self.require(lo, hi)
        return self.values[lo - self.offset : hi + 1 - self.offset]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return self.offset == other.offset and np.array_equal(self.values, other.values)

    def __hash__(self):
        # Equal real and complex windows must hash alike, so hash the complex bytes.
        return hash((self.offset, self.values.astype(np.complex128, copy=False).tobytes()))


def _require(name: str, ok: np.ndarray, offset: int, what: str):
    """Raise ValidationError naming the first index, along axis 0, where ok fails."""
    if not np.all(ok):
        first = int(np.argmin(ok.reshape(len(ok), -1).all(axis=1)))
        raise ValidationError(f"{name}({first + offset}) {what}")


def _check_coefficients(p: np.ndarray, q: np.ndarray, w: np.ndarray):
    """p > 0, q >= 0 and p, q, w finite, along axis 0 (p, q from index 0, w from 1).

    Trailing axes hold separate instances; an error names the first index
    at which any of them fails.
    """
    for name, vals, offset in (("p", p, 0), ("q", q, 0), ("w", w, 1)):
        _require(name, np.isfinite(vals), offset, "is not finite")
    _require("p", p > 0, 0, "not strictly positive")
    _require("q", q >= 0, 0, "negative")


def _real(name: str, vals: np.ndarray) -> np.ndarray:
    """vals as real numbers: the real part of complex input whose imaginary
    part is zero, else ValidationError."""
    if not np.iscomplexobj(vals):
        return vals
    if np.any(vals.imag != 0.0):
        raise ValidationError(f"{name} must be real-valued")
    return vals.real


def _real_sequence(name: str, arr, offset: int) -> Sequence:
    vals = np.asarray(arr, dtype=float)
    if vals.ndim != 1 or vals.size < 1:
        raise ValidationError(f"{name} must be a non-empty 1-d array")
    _require(name, np.isfinite(vals), offset, "is not finite")
    return Sequence(offset, vals)


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
        _check_coefficients(self.p.values, self.q.values, self.w.values)
        object.__setattr__(self, "q_nontrivial", bool(np.any(self.q.values > 0)))


_RANDOM_RANGES = {"p": (0.1, 10.0), "q": (0.0, 5.0), "w": (-5.0, 5.0)}

PRESETS = ("constant", "power", "periodic", "random")


def make_preset(name: str, params: dict | None = None, length: int = 10,
                rng_seed: int = 0) -> CoefficientSet:
    """Build a named coefficient family of the given window length.

    Presets:
      constant  p, q, w constant; params p, q, w (defaults 1, 0, 1)
      power     p(n) = (n+1)**p_exp, q(n) = q_scale*n**q_exp, w(n) = (-1)**n * n**w_exp
      periodic  p, q, w cycle through the given lists (params p, q, w; a
                scalar is a one-entry cycle)
      random    uniform draws p in [0.1, 10], q in [0, 5], w in [-5, 5]; params
                p_range, q_range, w_range override these as (lo, hi) pairs
    """
    if name not in PRESETS:
        raise ValidationError(f"unknown preset {name!r}")
    params = dict(params or {})
    if length < 2:
        raise ValidationError("length must be >= 2")
    n0 = np.arange(length, dtype=float)       # indices 0..length-1 for p, q
    n1 = np.arange(1, length + 1, dtype=float)  # indices 1..length for w

    if name == "constant":
        p = np.full(length, float(params.get("p", 1.0)))
        q = np.full(length, float(params.get("q", 0.0)))
        w = np.full(length, float(params.get("w", 1.0)))
    elif name == "power":
        p = (n0 + 1.0) ** float(params.get("p_exp", 1.0))
        q = float(params.get("q_scale", 1.0)) * n0 ** float(params.get("q_exp", 0.0))
        w = (-1.0) ** n1 * n1 ** float(params.get("w_exp", 0.0))
    elif name == "periodic":
        def cycle(key, default, start):
            c = np.atleast_1d(np.asarray(params.get(key, default), dtype=float))
            if c.ndim != 1 or c.size == 0:
                raise ValidationError(f"periodic {key} must be a non-empty list")
            return c[np.arange(start, start + length) % c.size]
        p = cycle("p", [1.0, 2.0], 0)
        q = cycle("q", [0.0, 1.0], 0)
        w = cycle("w", [1.0, -1.0], 1)
    else:  # random
        def bounds(key):
            r = np.asarray(params.get(key, _RANDOM_RANGES[key[0]]), dtype=float)
            if r.shape != (2,):
                raise ValidationError(f"random {key} must be a (lo, hi) pair")
            return r
        if rng_seed < 0:
            raise ValidationError(f"random preset seed must be >= 0, got {rng_seed}")
        rng = np.random.default_rng(rng_seed)
        plo, phi = bounds("p_range")
        qlo, qhi = bounds("q_range")
        wlo, whi = bounds("w_range")
        if plo <= 0 or qlo < 0:
            raise ValidationError("random ranges must keep p > 0 and q >= 0")
        p = rng.uniform(plo, phi, length)
        q = rng.uniform(qlo, qhi, length)
        w = rng.uniform(wlo, whi, length)

    return CoefficientSet(
        p=_real_sequence("p", p, 0),
        q=_real_sequence("q", q, 0),
        w=_real_sequence("w", w, 1),
    )


def load_coefficients(source) -> CoefficientSet:
    """Parse a coefficient document (JSON text, path-free) into a CoefficientSet.

    The document is either ``{"p": [...], "q": [...], "w": [...]}`` or
    ``{"preset": {"name": ..., "params": {...}, "length": ..., "seed": ...}}``.
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
        spec = doc["preset"]
        if not isinstance(spec, dict) or "name" not in spec:
            raise ValidationError("preset entry needs a 'name'")
        return make_preset(
            spec["name"],
            spec.get("params"),
            length=int(spec.get("length", 10)),
            rng_seed=int(spec.get("seed", 0)),
        )

    missing = [k for k in ("p", "q", "w") if k not in doc]
    if missing:
        raise ValidationError(f"coefficient document missing keys: {missing}")
    return CoefficientSet(
        p=_real_sequence("p", doc["p"], 0),
        q=_real_sequence("q", doc["q"], 0),
        w=_real_sequence("w", doc["w"], 1),
    )


def serialize_coefficients(coeffs: CoefficientSet) -> str:
    """Inverse of load_coefficients for explicit triples (bit-exact round trip)."""
    return json.dumps({
        "p": coeffs.p.values.tolist(),
        "q": coeffs.q.values.tolist(),
        "w": coeffs.w.values.tolist(),
    })
