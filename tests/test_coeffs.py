import json
import re

import numpy as np
import pytest

from leftdef import (
    CoefficientSet,
    Sequence,
    ValidationError,
    load_coefficients,
    make_preset,
    serialize_coefficients,
)
from leftdef.coeffs import PRESETS


def test_sequence_rejects_nonfinite():
    with pytest.raises(ValidationError):
        Sequence(0, [1.0, np.nan])
    with pytest.raises(ValidationError):
        Sequence(0, [np.inf])
    with pytest.raises(ValidationError):
        Sequence(0, [])


def test_sequence_window_accessors():
    s = Sequence(1, [10, 20, 30])
    assert len(s) == 3
    assert s.end == 4
    assert s.at(2) == 20
    assert s.covers(1, 3)
    assert not s.covers(0, 3)
    np.testing.assert_array_equal(s.window(2, 3), [20, 30])


@pytest.mark.parametrize("build, match", [
    (lambda: Sequence(1.5, [1, 2, 3]), "offset must be an integer"),
    (lambda: Sequence(True, [1, 2]), "offset must be an integer"),
    pytest.param(lambda: make_preset("constant", length=5.5),
                 "preset length must be an integer >= 2, got 5.5", id="length-5.5"),
    pytest.param(lambda: make_preset("random", length=5, rng_seed=1.5),
                 "preset seed must be an integer >= 0, got 1.5", id="seed-1.5"),
    pytest.param(lambda: make_preset("random", length=5, rng_seed=True),
                 "preset seed must be an integer >= 0, got True", id="seed-True"),
    pytest.param(lambda: Sequence(-1, [1, 2]), "offset must be an integer >= 0, got -1",
                 id="offset--1"),
    pytest.param(lambda: make_preset("power", length=1),
                 "preset length must be an integer >= 2, got 1", id="length-1"),
    pytest.param(lambda: make_preset("periodic", length=np.float64(4)),
                 "preset length must be an integer >= 2, got " + re.escape(repr(np.float64(4))),
                 id="length-float64"),
])
def test_index_and_count_must_be_integers(build, match):
    with pytest.raises(ValidationError, match=match):
        build()


def test_numpy_integers_pass_as_index_and_count():
    s = Sequence(np.int64(1), [1.0, 2.0])
    assert s.offset == 1 and type(s.offset) is int
    np.testing.assert_array_equal(s.window(2, 2), [2.0])
    a = make_preset("random", length=np.int64(5), rng_seed=np.uint8(1))
    assert a.p == make_preset("random", length=5, rng_seed=1).p


def test_load_explicit_triple():
    c = load_coefficients('{"p": [1, 1, 1], "q": [0, 1, 0], "w": [1, -1]}')
    assert c.q_nontrivial
    assert c.p.offset == 0 and c.q.offset == 0 and c.w.offset == 1
    assert c.w.at(2) == -1


def test_load_takes_a_parsed_document_as_its_json_text():
    for doc in ({"p": [1, 2, 1], "q": [0, 1, 0], "w": [1, -1]},
                {"preset": {"name": "random", "length": 6, "seed": 2}}):
        assert load_coefficients(doc) == load_coefficients(json.dumps(doc))


def test_load_rejects_nonpositive_p_with_index():
    with pytest.raises(ValidationError, match=r"p\(1\) not strictly positive"):
        load_coefficients('{"p": [1, 0, 1], "q": [0, 0, 0], "w": [1, 1]}')


def test_load_rejects_negative_q_and_malformed():
    with pytest.raises(ValidationError, match=r"q\(2\)"):
        load_coefficients('{"p": [1, 1, 1], "q": [0, 0, -1], "w": [1, 1]}')
    with pytest.raises(ValidationError, match="malformed"):
        load_coefficients("{not json")
    with pytest.raises(ValidationError, match="missing"):
        load_coefficients('{"p": [1]}')


def test_preset_document():
    c = load_coefficients(json.dumps(
        {"preset": {"name": "constant", "params": {"p": 1, "q": 0, "w": 1},
                    "length": 10}}))
    assert len(c.p) == 10
    assert not c.q_nontrivial
    np.testing.assert_array_equal(c.p.values.real, np.ones(10))


def test_preset_document_negative_seed():
    for name in PRESETS:
        with pytest.raises(ValidationError, match="preset seed must be an integer >= 0, got -1"):
            load_coefficients(json.dumps({"preset": {"name": name, "seed": -1}}))
        with pytest.raises(ValidationError, match="preset seed must be an integer >= 0, got -7"):
            make_preset(name, length=4, rng_seed=-7)


def test_make_preset_constant():
    c = make_preset("constant", {"p": 2, "q": 1, "w": 1}, length=5)
    np.testing.assert_array_equal(c.p.values.real, [2, 2, 2, 2, 2])
    np.testing.assert_array_equal(c.q.values.real, [1, 1, 1, 1, 1])
    assert c.q_nontrivial


def test_make_preset_random_deterministic_and_in_range():
    a = make_preset("random", length=8, rng_seed=42)
    b = make_preset("random", length=8, rng_seed=42)
    assert a.p == b.p and a.q == b.q and a.w == b.w
    for seed in range(20):
        c = make_preset("random", length=8, rng_seed=seed)
        p = c.p.values.real
        assert np.all(p >= 0.1) and np.all(p <= 10.0) and np.all(p > 0)
        assert np.all(c.q.values.real >= 0) and np.all(c.q.values.real <= 5)
        assert np.all(np.abs(c.w.values.real) <= 5)


def test_make_preset_errors():
    with pytest.raises(ValidationError):
        make_preset("nope", length=4)
    with pytest.raises(ValidationError):
        make_preset("constant", length=1)
    with pytest.raises(ValidationError):
        make_preset("random", {"p_range": (-1, 1)}, length=4)
    with pytest.raises(ValidationError):
        make_preset("periodic", {"w": []}, length=4)


@pytest.mark.parametrize("name, params, key", [
    ("constant", {"P": 2}, "P"), ("power", {"p": 3}, "p"), ("random", {"seed": 5}, "seed"),
    ("periodic", {"p_exp": 1}, "p_exp"),
])
def test_make_preset_rejects_unknown_parameter(name, params, key):
    accepted = ", ".join(PRESETS[name])
    with pytest.raises(ValidationError, match=f"no parameter '{key}'; it takes {accepted}"):
        make_preset(name, params, length=4)
    doc = {"preset": {"name": name, "params": params, "length": 4}}
    with pytest.raises(ValidationError, match=f"no parameter '{key}'"):
        load_coefficients(json.dumps(doc))


@pytest.mark.parametrize("doc, match", [
    ({"preset": {"name": "constant", "params": {"p": [1, 2]}}}, "constant p is not a number"),
    ({"preset": {"name": "random", "length": None}},
     "preset length must be an integer >= 2, got None"),
    ({"preset": {"name": "random", "seed": "x"}},
     "preset seed must be an integer >= 0, got 'x'"),
    ({"p": {"a": 1}, "q": [0, 0, 0], "w": [1, 1, 1]}, "p is not numeric"),
    ({"preset": {"name": "periodic", "params": {"w": {"a": 1}}}}, "periodic w is not numeric"),
    ({"preset": {"name": "random", "params": {"q_range": ["a", 1]}}}, "random q_range"),
    ({"preset": {"name": "constant", "params": [1, 2]}}, "params must be an object"),
    ({"preset": {"name": ["constant"]}}, "unknown preset"),
    ({"preset": {"name": "random", "length": 12.7}},
     "preset length must be an integer >= 2, got 12.7"),
    ({"preset": {"name": "random", "seed": 3.9}},
     "preset seed must be an integer >= 0, got 3.9"),
    ({"preset": {"name": "random", "length": "12"}},
     "preset length must be an integer >= 2, got '12'"),
    ({"preset": {"name": "random", "length": True}},
     "preset length must be an integer >= 2, got True"),
    ({"preset": {"name": "random", "seed": False}},
     "preset seed must be an integer >= 0, got False"),
    ({"preset": {"name": "constant"}, "p": [1, 1], "q": [0, 0], "w": [1]},
     "a preset document takes preset, not 'p'"),
    ({"p": [1, 1], "q": [0, 0], "w": [1], "wx": [2]}, "takes p, q, w, not 'wx'"),
    ({"preset": {"name": "random", "lenght": 4}}, "a preset entry takes .*, not 'lenght'"),
    ({"preset": {"name": "periodic", "seed": -2}}, "preset seed must be an integer >= 0, got -2"),
    ({"preset": {"name": "constant", "length": 0}},
     "preset length must be an integer >= 2, got 0"),
    ([1, 2], "coefficient document must be a JSON object"),
    ({"preset": {"length": 4}}, "preset entry needs a 'name'"),
    ({"p": [], "q": [0], "w": [1]}, "p must be a non-empty 1-d array"),
    ({"p": [1, 1], "q": [[0, 0]], "w": [1]}, "q must be a non-empty 1-d array"),
    ({"preset": {"name": "random", "params": {"p_range": [1, 1e400]}, "length": 8}},
     r"^random p_range needs a finite hi - lo, got \[1.0, inf\]$"),
    ({"preset": {"name": "random", "params": {"w_range": [-1e308, 1e308]}, "length": 8}},
     r"^random w_range needs a finite hi - lo, got \[-1e\+308, 1e\+308\]$"),
])
def test_malformed_document_is_validation_error(doc, match):
    with pytest.raises(ValidationError, match=match):
        load_coefficients(json.dumps(doc))


@pytest.mark.parametrize("p_range", [1, [1, 2, 3]])
def test_preset_document_range_must_be_pair(p_range):
    doc = {"preset": {"name": "random", "params": {"p_range": p_range}, "length": 6}}
    with pytest.raises(ValidationError, match="p_range"):
        load_coefficients(json.dumps(doc))


def test_periodic_and_power_presets_validate():
    c = make_preset("periodic", {"p": [1, 3], "q": [0, 2], "w": [1, -1]}, length=6)
    np.testing.assert_array_equal(c.p.values.real, [1, 3, 1, 3, 1, 3])
    c2 = make_preset("power", {"p_exp": 2}, length=5)
    np.testing.assert_array_equal(c2.p.values.real, [1, 4, 9, 16, 25])


def test_serialize_round_trip_bit_exact():
    c = make_preset("random", length=16, rng_seed=7)
    c2 = load_coefficients(serialize_coefficients(c))
    assert c2.p == c.p and c2.q == c.q and c2.w == c.w


def test_coefficient_offsets_enforced():
    with pytest.raises(ValidationError):
        CoefficientSet(p=Sequence(1, [1.0]), q=Sequence(0, [0.0]),
                       w=Sequence(1, [1.0]))


@pytest.mark.parametrize("index", [3, 7])
def test_validation_names_first_bad_index_mid_and_last(index):
    n = 8
    p, q, w = np.ones(n), np.zeros(n), np.ones(n - 1)
    bad_p, bad_q, bad_w = p.copy(), q.copy(), w.copy()
    bad_p[index] = 0.0
    with pytest.raises(ValidationError, match=rf"^p\({index}\) not strictly positive$"):
        CoefficientSet(Sequence(0, bad_p), Sequence(0, q), Sequence(1, w))
    bad_q[index] = -1e-300
    bad_q[-1] = -1.0
    with pytest.raises(ValidationError, match=rf"^q\({index}\) negative$"):
        CoefficientSet(Sequence(0, p), Sequence(0, bad_q), Sequence(1, w))
    bad_w[index - 1] = np.nan
    doc = json.dumps({"p": p.tolist(), "q": q.tolist(), "w": bad_w.tolist()})
    with pytest.raises(ValidationError, match=rf"^w\({index}\) is not finite$"):
        load_coefficients(doc)


def test_preset_and_loaded_coefficients_are_float64():
    docs = [make_preset(name, length=12, rng_seed=3) for name in PRESETS]
    docs.append(load_coefficients('{"p": [1, 2, 3], "q": [0, 1, 0], "w": [1, -1]}'))
    for c in docs:
        for seq in (c.p, c.q, c.w):
            assert seq.values.dtype == np.float64
            assert isinstance(seq.at(seq.offset), np.float64)


def test_sequence_keeps_real_or_complex_dtype():
    assert Sequence(0, [1, 2]).values.dtype == np.float64
    u = Sequence(0, [1.0, 2 + 1j])
    assert u.values.dtype == np.complex128
    assert u.at(1) == 2 + 1j
    with pytest.raises(ValidationError, match="finite"):
        Sequence(0, [1.0, complex(0.0, np.inf)])


def test_real_and_complex_sequences_compare_and_hash_alike():
    real, cplx = Sequence(0, [1.0]), Sequence(0, [1 + 0j])
    assert real == cplx
    assert hash(real) == hash(cplx)
    zeros = [Sequence(0, [0.0, 1.0]), Sequence(0, [-0.0, 1.0]),
             Sequence(0, [0j, 1.0]), Sequence(0, [complex(-0.0, -0.0), 1.0])]
    for a in zeros:
        assert a == zeros[0] and hash(a) == hash(zeros[0])
    assert Sequence(0, [1.0, 2.0]) != Sequence(0, [1.0, 2 + 1e-300j])
    assert Sequence(0, [1.0]) != Sequence(1, [1 + 0j])
    assert (Sequence(0, [1.0]) == 1) is False


@pytest.mark.parametrize("name", ["p", "q", "w"])
def test_coefficient_set_rejects_imaginary_part(name):
    seqs = {"p": Sequence(0, [1.0, 2.0]), "q": Sequence(0, [0.0, 1.0]),
            "w": Sequence(1, [1.0, -1.0])}
    bad = seqs[name]
    seqs[name] = Sequence(bad.offset, bad.values + 1e-300j)
    with pytest.raises(ValidationError, match=rf"^{name} must be real-valued$"):
        CoefficientSet(**seqs)


def test_coefficient_set_stores_zero_imaginary_complex_as_float64():
    c = CoefficientSet(p=Sequence(0, [1 + 0j, 2 + 0j]), q=Sequence(0, [0j, 1 + 0j]),
                       w=Sequence(1, [1 + 0j, -1 + 0j]))
    assert [s.values.dtype for s in (c.p, c.q, c.w)] == [np.float64] * 3
    np.testing.assert_array_equal(c.w.values, [1.0, -1.0])
    assert c.q_nontrivial


def test_complex_solution_stays_complex128():
    from leftdef import InitKind, apply_L, solve_recurrence

    c = make_preset("random", length=20, rng_seed=1)
    sol = solve_recurrence(c, 0.5, InitKind.VALUE_PAIR, 0.0, 1.0, 10)
    assert sol.values.values.dtype == np.complex128
    assert apply_L(c, sol.values).values.dtype == np.complex128


@pytest.mark.parametrize("name", PRESETS)
def test_serialize_round_trip_bit_exact_every_preset(name):
    c = make_preset(name, length=33, rng_seed=5)
    text = serialize_coefficients(c)
    c2 = load_coefficients(text)
    for a, b in ((c.p, c2.p), (c.q, c2.q), (c.w, c2.w)):
        assert a.values.tobytes() == b.values.tobytes()
    assert serialize_coefficients(c2) == text
