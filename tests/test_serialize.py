import json
import math

import numpy as np
import pytest

from nclp import serialize
from nclp.counterexample import verify_pipeline, witness_w
from nclp.cpmaps import amplify_apply, build_counterexample_maps
from nclp.errors import InvalidInputError
from nclp.vecnorm import Side, VecElem, alpha_certify, beta_certify
from nclp.yeadon import YeadonSpec

from conftest import random_complex


class TestMatrixPayload:
    def test_round_trip(self, rng):
        m = random_complex(rng, 2, 3)
        back = serialize.matrix_from_json(serialize.matrix_to_json(m))
        assert np.array_equal(back, m)

    def test_text_round_trip_preserves_bits(self, rng):
        m = random_complex(rng, 3, 3)
        text = serialize.dumps_canonical(serialize.matrix_to_json(m))
        back = serialize.matrix_from_json(json.loads(text))
        assert np.array_equal(back, m)  # 17 significant digits are lossless

    def test_length_mismatch_rejected(self):
        bad = {"rows": 2, "cols": 2, "re": [1.0, 2.0, 3.0], "im": [0.0] * 4}
        with pytest.raises(InvalidInputError):
            serialize.matrix_from_json(bad)

    def test_missing_field_rejected(self):
        with pytest.raises(InvalidInputError):
            serialize.matrix_from_json({"rows": 1, "cols": 1, "re": [1.0]})

    def test_nonfinite_rejected(self):
        bad = {"rows": 1, "cols": 1, "re": [math.inf], "im": [0.0]}
        with pytest.raises(InvalidInputError):
            serialize.matrix_from_json(bad)


class TestVecElemPayload:
    def test_round_trip(self, rng):
        y = VecElem(random_complex(rng, 3, 2, 2))
        back = serialize.vecelem_from_json(serialize.vecelem_to_json(y))
        assert np.array_equal(back.coords, y.coords)

    def test_coordinate_count_checked(self, rng):
        doc = serialize.vecelem_to_json(VecElem(random_complex(rng, 3, 2, 2)))
        doc["n"] = 2
        with pytest.raises(InvalidInputError):
            serialize.vecelem_from_json(doc)

    def test_coordinate_shape_checked(self, rng):
        doc = serialize.vecelem_to_json(VecElem(random_complex(rng, 2, 2, 2)))
        doc["k"] = 3
        with pytest.raises(InvalidInputError):
            serialize.vecelem_from_json(doc)


#: sizes that are not integral JSON numbers; ``int()`` truncated the first
#: two and accepted the next two
NON_INTEGRAL_SIZES = [1.9, 1.2, True, "3", None, [2], math.inf, math.nan]


class TestSizes:
    """``k``, ``n``, ``rows``, ``cols`` and the Yeadon ``n`` must be
    integral JSON numbers."""

    def test_fractional_element_sizes_rejected(self):
        doc = {"k": 1.9, "n": 1.2,
               "coords": [{"rows": 1, "cols": 1, "re": [1.0], "im": [0.0]}]}
        with pytest.raises(InvalidInputError):
            serialize.vecelem_from_json(doc)

    @pytest.mark.parametrize("bad", NON_INTEGRAL_SIZES, ids=repr)
    @pytest.mark.parametrize("key", ["k", "n"])
    def test_element(self, rng, key, bad):
        doc = serialize.vecelem_to_json(VecElem(random_complex(rng, 1, 1, 1)))
        doc[key] = bad
        with pytest.raises(InvalidInputError):
            serialize.vecelem_from_json(doc)

    @pytest.mark.parametrize("bad", NON_INTEGRAL_SIZES, ids=repr)
    @pytest.mark.parametrize("key", ["rows", "cols"])
    def test_matrix(self, key, bad):
        doc = {"rows": 1, "cols": 1, "re": [1.0], "im": [0.0]}
        doc[key] = bad
        with pytest.raises(InvalidInputError):
            serialize.matrix_from_json(doc)

    @pytest.mark.parametrize("bad", NON_INTEGRAL_SIZES, ids=repr)
    def test_yeadon(self, bad):
        with pytest.raises(InvalidInputError):
            serialize.yeadon_from_json({"n": bad, "rep_weights": [1.0], "p": 3.0})

    def test_integral_float_is_a_size(self, rng):
        y = VecElem(random_complex(rng, 2, 3, 3))
        doc = serialize.vecelem_to_json(y)
        doc["k"], doc["n"] = 3.0, 2.0
        doc["coords"][0]["rows"] = 3.0
        back = serialize.vecelem_from_json(doc)
        assert np.array_equal(back.coords, y.coords)


class TestYeadonPayload:
    def test_round_trip(self, rng):
        q, _ = np.linalg.qr(random_complex(rng, 4, 4))
        spec = YeadonSpec(n=2, rep_weights=(0.8,), antirep_weights=(0.3,), w=q)
        doc = serialize.yeadon_to_json(spec, 3.0)
        back, p = serialize.yeadon_from_json(doc)
        assert p == 3.0
        assert back.rep_weights == spec.rep_weights
        assert back.antirep_weights == spec.antirep_weights
        assert np.array_equal(back.w, q)

    def test_missing_p_rejected(self):
        with pytest.raises(InvalidInputError):
            serialize.yeadon_from_json({"n": 2, "rep_weights": [1.0]})


class TestCertificatePayload:
    def test_alpha_certificate_fields(self, rng):
        y = VecElem(random_complex(rng, 2, 2, 2))
        cert = alpha_certify(y, 3.0, Side.ELL_ROW)
        doc = serialize.certificate_to_json(cert)
        assert set(doc) >= {"upper", "lower", "converged", "iterations",
                            "factor_witness", "dual_witness"}
        assert doc["factor_witness"]["kind"] == "one_sided"
        assert doc["dual_witness"] is None and doc["dual_norm_bound"] == 0.0
        rho = serialize.matrix_from_json(doc["factor_witness"]["rho"])
        assert np.array_equal(rho, cert.factor_witness.rho)
        text = serialize.dumps_canonical(doc)
        json.loads(text)  # stays valid JSON

    def test_beta_certificate_split_witness(self, rng):
        y = VecElem(random_complex(rng, 2, 2, 2))
        cert = beta_certify(y, 3.0)
        doc = serialize.certificate_to_json(cert)
        assert doc["factor_witness"]["kind"] == "split"
        assert doc["dual_witness"] is not None


class TestCanonicalDumps:
    def test_float_formatting(self):
        assert serialize.dumps_canonical(0.1) == "0.10000000000000001"
        assert serialize.dumps_canonical(1.0) == "1"
        assert serialize.dumps_canonical([True, None, 3]) == "[true,null,3]"

    def test_deterministic(self, rng):
        doc = {"a": [1.5, 2.25], "b": {"c": 0.3333333333333333}}
        assert serialize.dumps_canonical(doc) == serialize.dumps_canonical(doc)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            serialize.dumps_canonical(float("nan"))


def recursive_dumps(obj) -> str:
    """The item-by-item formatter that ``dumps_canonical`` must match."""
    if obj is None or isinstance(obj, bool):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise InvalidInputError(f"cannot serialize non-finite value {obj!r}")
        return format(float(obj), ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(recursive_dumps(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(json.dumps(k) + ":" + recursive_dumps(v)
                              for k, v in obj.items()) + "}"
    raise InvalidInputError(f"cannot serialize object of type {type(obj).__name__}")


@pytest.fixture(scope="module")
def documents():
    rng = np.random.default_rng(3)
    y = VecElem(random_complex(rng, 3, 2, 2))
    q, _ = np.linalg.qr(random_complex(rng, 4, 4))
    spec = YeadonSpec(n=2, rep_weights=(0.8,), antirep_weights=(0.3,), w=q)
    scaled = random_complex(rng, 3, 3) * np.array([1e-300, 1.0, 1e300])
    return {
        "matrix": serialize.matrix_to_json(random_complex(rng, 2, 3)),
        "extreme-matrix": serialize.matrix_to_json(scaled),
        "element": serialize.vecelem_to_json(y),
        "yeadon": serialize.yeadon_to_json(spec, 3.0),
        "alpha": serialize.certificate_to_json(alpha_certify(y, 3.0, Side.ELL_ROW)),
        "alpha-two-sided": serialize.certificate_to_json(
            alpha_certify(y, 1.5, Side.R_COL)),
        "beta": serialize.certificate_to_json(beta_certify(y, 3.0)),
        "k18-certificate": serialize.certificate_to_json(
            beta_certify(amplify_apply(build_counterexample_maps(18, 3.0)[-1],
                                       witness_w(18)), 3.0)),
        "report": serialize.report_to_json(verify_pipeline(3, 3.0)),
        "mixed": {"a": [1.5, 2.25, -0.0, 5e-324], "b": {"c": 0.3333333333333333},
                  "d": [1, 2.5, True, None, "x"], "e": [np.float64(0.1), 0.2],
                  "f": [], "g": (0.5, 1e22)},
    }


DOCUMENTS = ("matrix", "extreme-matrix", "element", "yeadon", "alpha",
             "alpha-two-sided", "beta", "k18-certificate", "report", "mixed")


@pytest.mark.parametrize("name", DOCUMENTS)
def test_dumps_matches_recursive_formatter(documents, name):
    assert sorted(documents) == sorted(DOCUMENTS)
    doc = documents[name]
    assert serialize.dumps_canonical(doc) == recursive_dumps(doc)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_nonfinite_in_float_list_rejected(bad):
    with pytest.raises(InvalidInputError, match="non-finite"):
        serialize.dumps_canonical({"re": [1.0, bad, 2.0]})
