import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.linalg import _umath_linalg

import nclp
from nclp import cli, selfcheck, serialize
from nclp.cli import main
from nclp.errors import InvalidInputError
from nclp.vecnorm import VecElem, random_element
from nclp.yeadon import BoundReport, YeadonSpec, random_valid_weights


def run_cli(*argv):
    return main(list(argv))


#: a size past the largest index numpy takes
HUGE = str(10 ** 20)


@pytest.fixture
def elem_file(tmp_path, rng):
    y = VecElem.diagonal(rng.standard_normal(3))
    path = tmp_path / "elem.json"
    serialize.write_text(str(path),
                         serialize.dumps_canonical(serialize.vecelem_to_json(y)))
    return str(path)


class TestSweep:
    def test_row_count_and_columns(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--p", "3", "--kmin", "2", "--kmax", "6",
                       "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "k,p,formula_lb,numeric_lb,upper_w,threshold_pass"
        assert len(lines) == 6
        assert all(ln.count(",") == 5 for ln in lines)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert run_cli("sweep", "--p", "3", "--kmin", "2", "--kmax", "4",
                           "--out", str(path)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_numeric_cap_blanks(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--p", "3", "--kmin", "33", "--kmax", "34",
                       "--out", str(out)) == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert all(row.split(",")[3] == "" for row in rows)

    def test_numeric_cap_above_default(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--p", "3", "--kmin", "33", "--kmax", "33",
                       "--numeric-cap", "33", "--out", str(out)) == 0
        (row,) = out.read_text().strip().splitlines()[1:]
        numeric = row.split(",")[3]
        assert numeric != ""
        assert float(numeric) >= float(row.split(",")[2]) - 1e-12

    def test_json_format(self, tmp_path):
        # typed values; k = 33 is above the default numeric cap of 32
        out = tmp_path / "sweep.json"
        assert run_cli("sweep", "--p", "3", "--kmin", "31", "--kmax", "33",
                       "--format", "json", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert [row["k"] for row in doc["rows"]] == [31, 32, 33]
        assert doc["formula_threshold_k"] > 10 ** 8
        for row in doc["rows"]:
            assert type(row["k"]) is int and row["p"] == 3
            assert type(row["formula_lb"]) is float
            assert type(row["threshold_pass"]) is bool
            # upper_w is 1 exactly, which the canonical format writes as 1
            capped = row["k"] > 32
            for key in ("numeric_lb", "upper_w"):
                assert (row[key] is None) == capped
                assert capped or type(row[key]) in (int, float)
        # the same values as the CSV cells
        csv = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--p", "3", "--kmin", "31", "--kmax", "33",
                       "--out", str(csv)) == 0
        cells = [ln.split(",") for ln in csv.read_text().splitlines()[1:]]
        assert [[("" if v is None else serialize.dumps_canonical(v))
                 for v in row.values()] for row in doc["rows"]] == cells

    def test_bad_range(self):
        assert run_cli("sweep", "--p", "3", "--kmin", "4", "--kmax", "2") == 2


class TestDiag:
    def test_reports_closed_form(self, capsys):
        assert run_cli("diag", "--k", "4", "--p", "3") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["match"] is True
        assert doc["closed_form"] == pytest.approx(4.0 ** (1.0 / 3.0), rel=1e-14)
        assert doc["upper"] == pytest.approx(doc["closed_form"], rel=1e-3)
        assert doc["lower"] == pytest.approx(doc["closed_form"], abs=1e-9)

    def test_random_coefficients(self, capsys):
        assert run_cli("diag", "--k", "4", "--p", "3", "--random",
                       "--seed", "2") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["match"] is True
        assert doc["closed_form"] != pytest.approx(4.0 ** (1.0 / 3.0))


class TestOptimizerFlags:
    def test_tol_is_rejected(self, capsys, elem_file):
        """Both solvers stop on their certified gap: there is no --tol."""
        with pytest.raises(SystemExit) as exc:
            run_cli("norm", "--in", elem_file, "--p", "3", "--tol", "1e-6")
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err


class TestRemovedFlags:
    """Flags that changed no output are gone: passing one is a usage error."""

    @pytest.mark.parametrize("command, flags", [
        ("norm", {"--in", "--p", "--side", "--out"}),
        ("diag", {"--k", "--p", "--random", "--seed", "--out"}),
        ("counterexample", {"--k", "--p", "--out"}),
        ("sweep", {"--p", "--kmin", "--kmax", "--numeric-cap", "--format", "--out"}),
        ("yeadon", {"--in", "--samples", "--n", "--seed", "--out"}),
        ("selftest", {"--only"}),
    ])
    def test_declared_flags(self, command, flags):
        sub = next(action for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        declared = {opt for action in sub.choices[command]._actions
                    for opt in action.option_strings}
        assert declared == flags | {"-h", "--help"}

    @pytest.mark.parametrize("argv, flag", [
        (("norm", "--p", "3"), "--seed"),
        (("counterexample", "--k", "2", "--p", "3"), "--seed"),
        (("sweep", "--p", "3", "--kmin", "2", "--kmax", "3"), "--seed"),
        (("diag", "--k", "2", "--p", "3"), "--max-iters"),
        # every solve runs at the default budget, which bound no output
        (("norm", "--p", "3"), "--max-iters"),
        (("counterexample", "--k", "2", "--p", "3"), "--max-iters"),
        (("sweep", "--p", "3", "--kmin", "2", "--kmax", "3"), "--max-iters"),
        (("yeadon",), "--max-iters"),
    ])
    def test_usage_error(self, capsys, elem_file, argv, flag):
        if argv[0] in ("norm", "yeadon"):
            argv += ("--in", elem_file)
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, flag, "0")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: " + flag in err
        assert "Traceback" not in err


class TestSeedAndSizeChecks:
    @pytest.fixture
    def spec_file(self, tmp_path, rng):
        rw, aw = random_valid_weights(1, 1, 3.0, rng)
        path = tmp_path / "spec.json"
        serialize.write_text(str(path), serialize.dumps_canonical(
            serialize.yeadon_to_json(YeadonSpec(n=2, rep_weights=rw,
                                                antirep_weights=aw), 3.0)))
        return str(path)

    def _assert_invalid(self, capsys, argv, flag):
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid input: " + flag)
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("diag", "--k", "2", "--p", "3"),
        ("diag", "--k", "2", "--p", "3", "--random"),
    ])
    def test_negative_seed(self, capsys, argv):
        self._assert_invalid(capsys, argv + ("--seed", "-1"), "--seed")

    def test_negative_seed_yeadon(self, capsys, spec_file):
        self._assert_invalid(capsys, ("yeadon", "--in", spec_file,
                                      "--seed", "-1"), "--seed")

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_diag_size(self, capsys, k):
        self._assert_invalid(capsys, ("diag", "--k", k, "--p", "3"), "--k")

    @pytest.mark.parametrize("flag, value", [("--n", "0"), ("--n", "-2"),
                                             ("--samples", "0"), ("--samples", "-3")])
    def test_yeadon_sizes(self, capsys, spec_file, flag, value):
        self._assert_invalid(capsys, ("yeadon", "--in", spec_file, flag, value), flag)

    def test_seed_zero_runs(self, capsys):
        assert run_cli("diag", "--k", "1", "--p", "3", "--random",
                       "--seed", "0") == 0
        assert json.loads(capsys.readouterr().out)["match"] is True

    @pytest.mark.parametrize("argv", [
        ("diag", "--k", "100000", "--p", "3"),
        ("sweep", "--p", "3", "--kmin", "100000", "--kmax", "100000",
         "--numeric-cap", "100000"),
        ("diag", "--k", HUGE, "--p", "3"),
        ("sweep", "--p", "3", "--kmin", HUGE, "--kmax", HUGE, "--numeric-cap", HUGE),
    ])
    def test_unallocatable_size(self, capsys, argv):
        # k^3 complex coordinates, 14 PiB: numpy refuses them before
        # allocating; at 10^20 the size itself is past numpy's index range
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("invalid input: ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    def test_hilbert_size_past_the_index_range(self, capsys, spec_file):
        self._assert_invalid(capsys, ("yeadon", "--in", spec_file, "--n", HUGE,
                                      "--samples", "1"), "the sizes are too large")


class TestCounterexample:
    def test_report_flags(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli("counterexample", "--k", "2", "--p", "3",
                       "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        for flag in ("closed_form_match", "witness_norm_ok", "dominance_ok",
                     "cp_ok", "contraction_ok"):
            assert doc[flag] is True

    def test_json_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert run_cli("counterexample", "--k", "2", "--p", "3",
                           "--out", str(path)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_cap_is_invalid_input(self):
        assert run_cli("counterexample", "--k", "50", "--p", "3") == 2

    @pytest.mark.parametrize("p", ["600", "5000"])
    def test_large_exponent(self, tmp_path, p):
        out = tmp_path / "r.json"
        assert run_cli("counterexample", "--k", "2", "--p", p, "--out", str(out)) == 0
        assert json.loads(out.read_text())["dominance_ok"] is True


class TestPipelineExponent:
    """The pipeline needs p >= 2: below it the witness norm is not 1."""

    @pytest.mark.parametrize("argv", [
        ("counterexample", "--k", "2", "--p", "1.5"),
        ("sweep", "--p", "1.5", "--kmin", "2", "--kmax", "3"),
        ("sweep", "--p", "1.5", "--kmin", "40", "--kmax", "41"),
    ])
    def test_p_below_two_is_invalid_input(self, capsys, argv):
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("invalid input: ")
        assert "p >= 2" in captured.err
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("p", ["2", "2.5"])
    def test_p_from_two_runs(self, tmp_path, p):
        assert run_cli("counterexample", "--k", "2", "--p", p,
                       "--out", str(tmp_path / "r.json")) == 0
        assert run_cli("sweep", "--p", p, "--kmin", "2", "--kmax", "3",
                       "--out", str(tmp_path / "s.csv")) == 0


class TestNorm:
    def test_writes_certificate(self, elem_file, tmp_path):
        out = tmp_path / "cert.json"
        assert run_cli("norm", "--in", elem_file, "--p", "3",
                       "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["lower"] <= doc["upper"] * (1 + 1e-9)

    def test_r_side(self, elem_file, capsys):
        assert run_cli("norm", "--in", elem_file, "--p", "3",
                       "--side", "r") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["factor_witness"]["transposed"] is True

    def test_missing_file(self):
        assert run_cli("norm", "--in", "/nonexistent.json", "--p", "3") == 2

    def test_malformed_payload(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"k": 2}')
        assert run_cli("norm", "--in", str(bad), "--p", "3") == 2

    @pytest.mark.parametrize("payload", ['{"k": -1, "n": 0, "coords": []}',
                                         '{"k": 0, "n": -1, "coords": []}'])
    def test_negative_size_is_invalid_input(self, tmp_path, payload):
        bad = tmp_path / "bad.json"
        bad.write_text(payload)
        assert run_cli("norm", "--in", str(bad), "--p", "3") == 2

    @pytest.mark.parametrize("payload", [
        '{"k": 1.9, "n": 1.2, "coords": [{"rows": 1, "cols": 1, "re": [1.0], "im": [0.0]}]}',
        '{"k": true, "n": 0, "coords": []}',
        '{"k": "3", "n": 0, "coords": []}',
        '{"k": 1, "n": 1, "coords": [{"rows": 1.5, "cols": 1, "re": [1.0], "im": [0.0]}]}'])
    def test_non_integral_size_is_invalid_input(self, tmp_path, payload):
        bad = tmp_path / "bad.json"
        bad.write_text(payload)
        assert run_cli("norm", "--in", str(bad), "--p", "3") == 2

    def test_bad_exponent(self, elem_file):
        assert run_cli("norm", "--in", elem_file, "--p", "0.5") == 2

    @pytest.mark.parametrize("side", ["ell", "r"])
    @pytest.mark.parametrize("p", ["1.5", "3"])
    def test_byte_identical_reruns(self, tmp_path, rng, side, p):
        # a full random element: at p < 2 the r side takes the two-sided
        # descent in the transposed frame
        path = tmp_path / "elem.json"
        serialize.write_text(str(path), serialize.dumps_canonical(
            serialize.vecelem_to_json(random_element(3, 2, rng))))
        outs = [tmp_path / f"cert{i}.json" for i in range(2)]
        for out in outs:
            assert run_cli("norm", "--in", str(path), "--side", side,
                           "--p", p, "--out", str(out)) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        doc = json.loads(outs[0].read_text())
        assert doc["factor_witness"]["transposed"] is (side == "r")
        assert doc["factor_witness"]["kind"] == \
            ("two_sided" if p == "1.5" else "one_sided")


class TestClosedPipe:
    @pytest.mark.parametrize("command", ["norm", "selftest"])
    def test_quiet_exit_when_the_reader_is_gone(self, tmp_path, command):
        # `nclp ... | head -c 0`: the reader closes the pipe while the
        # command is still starting up, before it writes a byte
        path = tmp_path / "elem.json"
        serialize.write_text(str(path), serialize.dumps_canonical(
            serialize.vecelem_to_json(random_element(3, 2, np.random.default_rng(0)))))
        argv = {"norm": ["norm", "--in", str(path), "--side", "ell", "--p", "3"],
                "selftest": ["selftest", "--only", "threshold"]}[command]
        src = str(Path(nclp.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        with subprocess.Popen([sys.executable, "-m", "nclp.cli", *argv],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=env) as proc:
            proc.stdout.close()
            _, err = proc.communicate(timeout=300)
        assert proc.returncode == 0
        assert b"Traceback" not in err and b"Exception ignored" not in err


class TestYeadonCommand:
    def test_spec_report(self, tmp_path, rng, capsys):
        rw, aw = random_valid_weights(1, 1, 3.0, rng)
        spec = YeadonSpec(n=2, rep_weights=rw, antirep_weights=aw)
        path = tmp_path / "spec.json"
        serialize.write_text(str(path), serialize.dumps_canonical(
            serialize.yeadon_to_json(spec, 3.0)))
        assert run_cli("yeadon", "--in", str(path), "--samples", "3") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["isometry_worst_error"] < 1e-10
        assert doc["rep_part_violations"] == []
        assert doc["rigid_bound_violations"] == []

    def test_mixed_blocks_leave_the_rigid_bound_unchecked(self, tmp_path, rng, capsys):
        # W swaps the rep and antirep blocks, so every diagonal block of W is
        # zero and the composite with the partner (W = identity) has no
        # term: rigid_compose rejects it, the rigid bound reads null, and the
        # unchecked bound is a verification failure with one line on stderr
        rw, aw = random_valid_weights(1, 1, 3.0, rng)
        swap = np.zeros((4, 4), dtype=np.complex128)
        swap[:2, 2:] = swap[2:, :2] = np.eye(2)
        spec = YeadonSpec(n=2, rep_weights=rw, antirep_weights=aw, w=swap)
        path = tmp_path / "spec.json"
        serialize.write_text(str(path), serialize.dumps_canonical(
            serialize.yeadon_to_json(spec, 3.0)))
        assert run_cli("yeadon", "--in", str(path), "--samples", "2") == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("verification failure: the factor-4 "
                                       "rigid bound check did not run")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        doc = json.loads(captured.out)
        assert doc["isometry_worst_error"] < 1e-10
        assert doc["rep_part_violations"] == doc["antirep_part_violations"] == []
        assert doc["rigid_bound_violations"] is None

    @pytest.mark.parametrize("weight, message", [
        ("NaN", "block weights must be finite"),
        ("1e200", "differs from 1"),
    ])
    def test_hostile_weight_is_invalid_input(self, tmp_path, capsys, weight, message):
        path = tmp_path / "spec.json"
        path.write_text('{"n": 2, "rep_weights": [%s], "antirep_weights": [], '
                        '"p": 3.0, "W": null}' % weight)
        assert run_cli("yeadon", "--in", str(path), "--samples", "1") == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("n", ["2.5", "true", '"2"'])
    def test_non_integral_spec_size_is_invalid_input(self, tmp_path, capsys, n):
        path = tmp_path / "spec.json"
        path.write_text('{"n": %s, "rep_weights": [1.0], "antirep_weights": [], '
                        '"p": 3.0, "W": null}' % n)
        assert run_cli("yeadon", "--in", str(path), "--samples", "1") == 2
        assert "Traceback" not in capsys.readouterr().err


#: an integer JSON entry beyond the float range
BIG_INT = "1" + "0" * 400


class TestHostileInput:
    """An entry beyond the float range, and sizes past the largest array
    numpy can index, are invalid input: exit 2 with one line on stderr."""

    @staticmethod
    def _assert_invalid(capsys, argv):
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid input: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("command, payload", [
        ("norm", '{"k": 1, "n": 1, "coords": [{"rows": 1, "cols": 1, '
                 '"re": [%s], "im": [0]}]}' % BIG_INT),
        ("yeadon", '{"n": 2, "rep_weights": [%s], "antirep_weights": [], '
                   '"p": 3.0, "W": null}' % BIG_INT),
        ("norm", '{"k": 1000000000000, "n": 0, "coords": []}'),
        ("yeadon", '{"n": 100000000000, "rep_weights": [1.0], '
                   '"antirep_weights": [], "p": 3.0, "W": null}'),
        ("norm", '{"k": %d, "n": 0, "coords": []}' % 2 ** 63),
        ("yeadon", '{"n": %d, "rep_weights": [1.0], '
                   '"antirep_weights": [], "p": 3.0, "W": null}' % 2 ** 63),
    ], ids=["norm-entry", "yeadon-weight", "norm-size", "yeadon-size",
            "norm-size-2^63", "yeadon-size-2^63"])
    def test_input_file(self, tmp_path, capsys, command, payload):
        path = tmp_path / "input.json"
        path.write_text(payload)
        flags = ("--p", "3") if command == "norm" else ("--samples", "1")
        self._assert_invalid(capsys, (command, "--in", str(path)) + flags)

    def test_diag_size(self, capsys):
        # k^3 = 1e21 complex coordinates: refused before anything is allocated
        self._assert_invalid(capsys, ("diag", "--k", "10000000", "--p", "3"))

    def test_diag_size_allocates_nothing(self, capsys):
        # not even the k coefficients (80 MB at k = 1e7) are drawn
        tracemalloc.start()
        try:
            self._assert_invalid(capsys, ("diag", "--k", "10000000", "--p", "3"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20



#: what no field of a payload accepts as it is: the wrong type, NaN, an
#: infinity, an integer beyond the float range, a size past the index range
JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-10 ** 400, 10 ** 400),
    st.sampled_from([-1, 0, 2 ** 63 - 1, 2 ** 63, 10 ** 20, 10 ** 400, 2.5]),
    st.lists(st.floats(-2.0, 2.0), max_size=5),
    st.dictionaries(st.sampled_from(["k", "n", "rows", "re", "p"]),
                    st.integers(-2, 4), max_size=2))


def matrix_payload(rows, cols, entries):
    return {"rows": rows, "cols": cols, "re": entries[:rows * cols],
            "im": entries[rows * cols:]}


@st.composite
def element_payloads(draw):
    k, n = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    entries = st.lists(st.floats(-2.0, 2.0), min_size=2 * k * k, max_size=2 * k * k)
    return {"k": k, "n": n,
            "coords": [matrix_payload(k, k, draw(entries)) for _ in range(n)]}


@st.composite
def spec_payloads(draw):
    n = draw(st.integers(1, 2))
    rep, anti = draw(st.sampled_from([([1.0], []), ([], [1.0]),
                                      ([2 ** (-1 / 3)], [2 ** (-1 / 3)])]))
    blocks = len(rep) + len(anti)
    eye = np.eye(n * blocks).ravel().tolist()
    w = draw(st.sampled_from([None, matrix_payload(n * blocks, n * blocks,
                                                   eye + [0.0] * len(eye))]))
    return {"n": n, "rep_weights": rep, "antirep_weights": anti, "p": 3.0, "W": w}


@st.composite
def hostile(draw, payloads):
    """A valid payload with up to three of its values, at any depth, and
    perhaps the whole of it, replaced by junk."""
    payload = draw(payloads)
    slots = []

    def walk(node):
        for key in (range(len(node)) if isinstance(node, list) else list(node)):
            slots.append((node, key))
            if isinstance(node[key], (list, dict)):
                walk(node[key])

    walk(payload)
    for _ in range(draw(st.integers(0 if slots else 1, 3))):
        if not slots or draw(st.integers(0, 9)) == 0:
            return draw(JUNK)
        node, key = slots[draw(st.integers(0, len(slots) - 1))]
        node[key] = draw(JUNK)
    return payload


def run_quietly(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return run_cli(*argv)


class TestHostileJson:
    """Hostile element and isometry-spec files: exit 0, 1 or 2, and nothing
    else escapes ``cli.main``."""

    @settings(max_examples=150, deadline=None)
    @given(payload=hostile(element_payloads()), p=st.sampled_from(["1.5", "3"]))
    @example(payload={"k": 2 ** 63, "n": 0, "coords": []}, p="3")
    def test_element(self, tmp_path_factory, payload, p):
        path = tmp_path_factory.getbasetemp() / "hostile-element.json"
        path.write_text(json.dumps(payload))
        assert run_quietly(["norm", "--in", str(path), "--p", p]) in (0, 1, 2)

    @settings(max_examples=60, deadline=None)
    @given(payload=hostile(spec_payloads()))
    @example(payload={"n": 2 ** 63, "rep_weights": [1.0], "antirep_weights": [],
                      "p": 3.0, "W": None})
    def test_yeadon_spec(self, tmp_path_factory, payload):
        path = tmp_path_factory.getbasetemp() / "hostile-spec.json"
        path.write_text(json.dumps(payload))
        argv = ["yeadon", "--in", str(path), "--samples", "1", "--n", "1"]
        assert run_quietly(argv) in (0, 1, 2)


class TestSelftest:
    def test_single_criterion(self, capsys):
        assert run_cli("selftest", "--only", "schatten-exactness") == 0
        assert "[PASS] schatten-exactness" in capsys.readouterr().out

    def test_unknown_criterion(self, capsys):
        assert run_cli("selftest", "--only", "bogus") == 2
        assert "bogus" in capsys.readouterr().err

    def test_unknown_criterion_is_invalid_input(self):
        with pytest.raises(InvalidInputError):
            selfcheck.run_checks(names=["bogus"], printer=None)


class TestVerificationFailure:
    """A failed verification prints its report and exits 1 with one line on
    stderr."""

    @staticmethod
    def _failed_run(capsys, argv, line):
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(line)
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        return captured.out

    def test_diag(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "diagonal_closed_form", lambda lams, p: 2.0)
        out = self._failed_run(capsys, ("diag", "--k", "4", "--p", "3"),
                               "verification failure: certificate misses the "
                               "closed form")
        doc = json.loads(out)
        assert doc["closed_form"] == 2.0 and doc["match"] is False

    def test_diag_upper_below_closed_form(self, monkeypatch, capsys):
        # an inverted bracket, lower ~ closed form > upper, is no match
        certify = cli.alpha_certify

        def low_upper(y, p, side):
            cert = certify(y, p, side)
            cert.upper = cli.diagonal_closed_form(y.diagonal_coefficients(), p) - 1e-6
            return cert

        monkeypatch.setattr(cli, "alpha_certify", low_upper)
        out = self._failed_run(capsys, ("diag", "--k", "4", "--p", "3"),
                               "verification failure: certificate misses the "
                               "closed form")
        doc = json.loads(out)
        assert doc["match"] is False
        assert doc["upper"] < doc["closed_form"] == pytest.approx(doc["lower"], abs=1e-9)

    def test_counterexample(self, monkeypatch, capsys):
        monkeypatch.setattr(cli.cx, "contraction_upper_bound", lambda k, p: 0.5)
        out = self._failed_run(capsys, ("counterexample", "--k", "2", "--p", "3"),
                               "verification failure: sampled contraction ratio")
        doc = json.loads(out)
        assert doc["contraction_ok"] is False and doc["diagnostics"]

    def test_yeadon(self, monkeypatch, capsys, tmp_path, rng):
        rw, aw = random_valid_weights(1, 1, 3.0, rng)
        path = tmp_path / "spec.json"
        serialize.write_text(str(path), serialize.dumps_canonical(
            serialize.yeadon_to_json(YeadonSpec(n=2, rep_weights=rw,
                                                antirep_weights=aw), 3.0)))
        monkeypatch.setattr(cli, "rigid_bound_report", lambda u, p, **kw:
                            BoundReport(p=p, rows=[], violations=[0]))
        out = self._failed_run(capsys, ("yeadon", "--in", str(path), "--samples", "1"),
                               "verification failure in isometry reports")
        assert json.loads(out)["rigid_bound_violations"] == [0]

    def test_selftest(self, monkeypatch, capsys):
        monkeypatch.setattr(selfcheck, "CRITERIA",
                            (("threshold", lambda: (False, "forced failure")),))
        out = self._failed_run(capsys, ("selftest",),
                               "verification failure in: threshold")
        assert out.startswith("[FAIL] threshold (") and "forced failure" in out


class TestErrorExitCodes:
    def test_invalid_input_without_traceback(self, monkeypatch, capsys):
        exc = InvalidInputError("outside the documented preconditions")

        def failing(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_diag", failing)
        assert run_cli("diag", "--k", "2", "--p", "3") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(exc) in err
        assert "Traceback" not in err

    def test_failed_eigensolve_is_verification_failure(self, tmp_path, monkeypatch,
                                                       capsys):
        # a LAPACK solve that fails leaves NaN in the gufunc's outputs
        path = tmp_path / "elem.json"
        serialize.write_text(str(path), serialize.dumps_canonical(
            serialize.vecelem_to_json(random_element(3, 2, np.random.default_rng(0)))))
        monkeypatch.setattr(_umath_linalg, "eigh_lo", lambda h: (
            np.full(h.shape[-1], np.nan), np.full(h.shape, np.nan)))
        assert run_cli("norm", "--in", str(path), "--p", "3") == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "eigensolve failed" in err
        assert "Traceback" not in err

    def test_failed_lapack_solve_gives_one_line(self, tmp_path):
        # the real gufunc on an all-NaN matrix: LAPACK fails and sets the
        # invalid flag, and numpy's RuntimeWarning must not join the message
        path = tmp_path / "elem.json"
        serialize.write_text(str(path), serialize.dumps_canonical(
            serialize.vecelem_to_json(random_element(3, 2, np.random.default_rng(0)))))
        code = ("import sys, numpy as np; from numpy.linalg import _umath_linalg; "
                "from nclp import cli; solve = _umath_linalg.eigh_lo; "
                "_umath_linalg.eigh_lo = lambda h: solve(np.full_like(h, np.nan)); "
                "sys.exit(cli.main(sys.argv[1:]))")
        src = str(Path(nclp.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code, "norm", "--in", str(path),
                               "--p", "3"], capture_output=True, text=True, env=env,
                              timeout=300)
        assert proc.returncode == 1
        assert proc.stderr.count("\n") == 1 and "eigensolve failed" in proc.stderr

    def test_key_error_is_not_swallowed(self, monkeypatch):
        def failing(args):
            raise KeyError("a programming error")

        monkeypatch.setattr(cli, "cmd_diag", failing)
        with pytest.raises(KeyError):
            run_cli("diag", "--k", "2", "--p", "3")

    def test_other_value_error_is_not_swallowed(self, monkeypatch):
        # only numpy's refusal of a too large array is mapped to exit 2
        def failing(args):
            raise ValueError("a programming error")

        monkeypatch.setattr(cli, "cmd_diag", failing)
        with pytest.raises(ValueError, match="a programming error"):
            run_cli("diag", "--k", "2", "--p", "3")
