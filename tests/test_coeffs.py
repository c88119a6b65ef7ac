import json

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


def test_load_explicit_triple():
    c = load_coefficients('{"p": [1, 1, 1], "q": [0, 1, 0], "w": [1, -1]}')
    assert c.q_nontrivial
    assert c.p.offset == 0 and c.q.offset == 0 and c.w.offset == 1
    assert c.w.at(2) == -1


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
    with pytest.raises(ValidationError, match="seed must be >= 0"):
        load_coefficients(json.dumps({"preset": {"name": "random", "seed": -1}}))


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


def test_block_validation_names_first_index_across_columns():
    from leftdef.coeffs import _check_coefficients

    p, q, w = np.ones((6, 3)), np.zeros((6, 3)), np.ones((6, 3))
    _check_coefficients(p, q, w)
    p[4, 0] = -1.0
    p[2, 2] = 0.0
    with pytest.raises(ValidationError, match=r"^p\(2\) not strictly positive$"):
        _check_coefficients(p, q, w)
    w[5, 1] = np.inf
    with pytest.raises(ValidationError, match=r"^w\(6\) is not finite$"):
        _check_coefficients(np.ones((6, 3)), q, w)


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
    assert Sequence(0, [1.0, 2.0]) != Sequence(0, [1.0, 2 + 1e-300j])
    assert Sequence(0, [1.0]) != Sequence(1, [1 + 0j])


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
