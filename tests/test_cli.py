import collections
import dataclasses
import json
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twistlab as tw
import twistlab.cli as cli
from twistlab.cli import main
from twistlab.files import (
    MAX_DENSE_BYTES,
    SPARSE_MAX_DENSITY,
    _cell_to_json,
    complex_from_json,
    element_to_json,
    idempotent_to_json,
    load_triple,
    matrix_from_json,
    matrix_to_json,
    pert_from_json,
    pert_to_json,
    triple_from_json,
    triple_to_json,
)
from twistlab.models import U1U2_SHAPE
from twistlab.morita import AlgebraMatrix, IdempotentData

from conftest import random_pert
from test_models import loop_draws, stacked


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli")
    rc = main(["model", "u1u2", "--kx", "1,0.5", "--ky", "0.7,-0.2",
               "--verify", "3", "--out", str(path / "u1u2.json")])
    assert rc == 0
    rng = np.random.default_rng(0)
    model = tw.build_u1u2(1 + 0.5j, 0.7 - 0.2j)
    p = random_pert(model.triple, rng, 2)
    (path / "pert.json").write_text(json.dumps(pert_to_json(p)))
    u = U1U2_SHAPE.random_unitary(rng)
    (path / "unitary.json").write_text(json.dumps(element_to_json(u.element)))
    h = 0.5 * U1U2_SHAPE.unit()
    e2 = IdempotentData(AlgebraMatrix(U1U2_SHAPE, ((h, h), (h, h))))
    (path / "idem.json").write_text(json.dumps(idempotent_to_json(e2)))
    rc = main(["model", "u1u2", "--kx", "1,0.5", "--ky", "0,0",
               "--verify", "3", "--out", str(path / "u1u2_ky0.json")])
    assert rc == 0
    return path


class TestRoundTrip:
    def test_matrix_json_roundtrip_exact(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        again = matrix_from_json(json.loads(json.dumps(matrix_to_json(m))))
        assert np.array_equal(m, again)

    def test_triple_roundtrip_exact(self, u1u2):
        doc = json.loads(json.dumps(triple_to_json(u1u2.triple)))
        t = triple_from_json(doc)
        assert np.array_equal(t.dirac, u1u2.triple.dirac)
        assert np.array_equal(t.grading, u1u2.triple.grading)
        assert np.array_equal(t.real.j.mat, u1u2.triple.real.j.mat)
        assert t.sigma.perm == u1u2.triple.sigma.perm
        assert t.real.epsilon_prime == 1

    def test_pert_roundtrip_exact(self, u1u2):
        rng = np.random.default_rng(2)
        p = random_pert(u1u2.triple, rng)
        again = pert_from_json(U1U2_SHAPE, json.loads(json.dumps(pert_to_json(p))))
        for (a, b), (a2, b2) in zip(p.pairs, again.pairs):
            assert a.defect(a2) == 0.0 and b.defect(b2) == 0.0


def seed_matrix_from_json(v, shape=None):
    """The per-entry conversion matrix_from_json used before its one-shot path."""
    if not isinstance(v, list) or not v or not all(isinstance(r, list) for r in v):
        raise ValueError("matrix must be a non-empty nested array")
    ncols = len(v[0])
    if any(len(r) != ncols for r in v):
        raise ValueError("matrix rows must have equal length")
    out = np.array([[complex_from_json(z) for z in row] for row in v])
    if shape is not None and out.shape != shape:
        raise ValueError(f"matrix of shape {out.shape} where {shape} expected")
    return out


class TestMatrixFromJson:
    @pytest.mark.parametrize("v, shape", [
        ([[[1.0, 2.0], [3, -4]], [[-0.0, 0.5], [1e300, -1e-300]]], None),
        ([[[1, 2]]], (1, 1)),
        ([[[float("inf"), float("nan")]]], None),
        ([[[2**60 + 1, 0]]], None),
        ([[(1.0, 2.0)]], None),
        ([[]], None),
    ])
    def test_values_match_the_per_entry_path(self, v, shape):
        got, want = matrix_from_json(v, shape), seed_matrix_from_json(v, shape)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(float), want.view(float), equal_nan=True)

    @pytest.mark.parametrize("v, shape", [
        ([[[1.0, True]]], None),
        ([[[1.0, 0.0], [1.0, "2"]]], None),
        ([[[1.0]]], None),
        ([[[1, 2, 3]]], None),
        ([[[1.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]]], None),
        ([[[1.0, 0.0]]], (2, 2)),
        ([[[1.0, None]]], None),
        ([[[10**400, 0]]], None),
        ([], None),
        ([[1.0, 0.0]], None),
    ], ids=["bool", "string", "short", "long", "ragged", "shape", "null", "huge", "empty", "flat"])
    def test_rejections_keep_their_messages(self, v, shape):
        with pytest.raises(Exception) as want:
            seed_matrix_from_json(v, shape)
        with pytest.raises(want.type) as got:
            matrix_from_json(v, shape)
        assert str(got.value) == str(want.value)


PARTS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310]), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def planted_matrices(draw):
    """Complex matrices whose parts include -0.0 and subnormals, with a drawn number of entries set to +0.0."""
    r, c = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    m = np.array(draw(st.lists(PARTS, min_size=2 * r * c, max_size=2 * r * c))).view(complex).reshape(r, c)
    zeros = draw(st.integers(0, r * c))
    m.reshape(-1)[draw(st.permutations(range(r * c)))[:zeros]] = 0.0
    return m


class TestSparseCells:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(planted_matrices())
    def test_round_trip_is_exact_to_the_bit(self, m):
        cell = json.loads(json.dumps(_cell_to_json(m)))
        nonzero = np.count_nonzero(m.view(np.uint64).reshape(m.shape + (2,)).any(axis=-1))
        assert isinstance(cell, dict) == (nonzero <= SPARSE_MAX_DENSITY * m.size)
        if not isinstance(cell, dict):
            assert cell == matrix_to_json(m)
        assert matrix_from_json(cell, m.shape).tobytes() == m.tobytes()

    def test_a_cell_of_no_expected_shape_is_bounded(self):
        with pytest.raises(ValueError, match="byte bound"):
            matrix_from_json({"shape": [10**7, 10**7], "ij": [], "v": []})
        assert matrix_from_json({"shape": [2, 3], "ij": [], "v": []}).shape == (2, 3)

    def test_dense_cells_match_the_per_entry_writer(self):
        m = np.array([[complex(1.5, -0.0), complex(-0.0, 2.0)], [complex(0.0, 5e-324), 1e300]])
        want = [[[complex(z).real, complex(z).imag] for z in row] for row in m]
        assert json.dumps(matrix_to_json(m)) == json.dumps(want)


class TestNumericOptions:
    """Out-of-range --samples and --tol are usage errors: exit 2, one error line, no traceback."""

    @pytest.mark.parametrize("extra", [
        ["check", "T", "--samples", "0"],
        ["check", "T", "--samples", "-3"],
        ["check", "T", "--samples", "two"],
        ["check", "T", "--tol", "-1"],
        ["check", "T", "--tol", "0"],
        ["check", "T", "--tol", "nan"],
        ["fluctuate", "T", "P", "--tol", "-1"],
        ["gauge", "T", "P", "U", "--tol", "0"],
        ["pert-mul", "T", "P", "P", "--tol", "-1"],
        ["model", "u1u2", "--kx", "1,0", "--ky", "1,0", "--tol", "-1"],
        ["morita", "T", "--self", "--omega", "P", "--tol", "-1"],
        ["model", "u1u2", "--kx", "1,0", "--ky", "1,0", "--verify", "0"],
        ["model", "u1u2", "--kx", "1,0", "--ky", "1,0", "--verify", "-3"],
    ])
    def test_exit_two_without_traceback(self, workdir, extra):
        files = {"T": "u1u2.json", "P": "pert.json", "U": "unitary.json"}
        argv = [str(workdir / files[a]) if a in files else a for a in extra]
        src = os.path.dirname(os.path.dirname(tw.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-m", "twistlab.cli", *argv], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert "error: argument" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


# integer fields of a triple file holding a value that is not a JSON integer: (section, key, value)
INTEGER_FIELD_MUTATIONS = {
    "perm_scalar": ("automorphism", "perm", 5),
    "perm_null": ("automorphism", "perm", [None, 4, 5, 0, 1, 2]),
    "perm_float": ("automorphism", "perm", [0.5, 1, 2, 3, 4, 5]),
    "blocks_null": ("algebra", "blocks", [None]),
    "blocks_bool": ("algebra", "blocks", [True, True, 2, True, True, 2]),
    "hilbert_dim_list": (None, "hilbert_dim", [8]),
}

# sections of a triple file holding a value that is not a JSON object: (section, value)
SECTION_MUTATIONS = {
    "automorphism_scalar": ("automorphism", 5),
    "algebra_list": ("algebra", [1]),
    "representation_scalar": ("representation", 7),
}


# sparse cells of a triple file that break the cell schema: key -> (cell key, value, error fragment)
SPARSE_CELL_MUTATIONS = {
    "shape_wrong": ("shape", [7, 8], "matrix of shape (7, 8) where (8, 8) expected"),
    "shape_float": ("shape", [8.0, 8], "shape must be a pair of positive JSON integers"),
    "shape_bool": ("shape", [True, 8], "shape must be a pair of positive JSON integers"),
    "shape_zero": ("shape", [0, 8], "shape must be a pair of positive JSON integers"),
    "shape_scalar": ("shape", 8, "shape must be a pair of positive JSON integers"),
    "index_negative": ("ij", [[-1, 0], [1, 1]], "out of range"),
    "index_out_of_range": ("ij", [[0, 0], [1, 8]], "out of range"),
    "index_huge": ("ij", [[0, 0], [2**70, 1]], "out of range"),
    "index_duplicated": ("ij", [[1, 1], [1, 1]], "twice"),
    "index_bool": ("ij", [[True, 0], [1, 1]], "pair of JSON integers"),
    "index_string": ("ij", [["0", 0], [1, 1]], "pair of JSON integers"),
    "index_float": ("ij", [[0.0, 0], [1, 1]], "pair of JSON integers"),
    "index_triple": ("ij", [[0, 0, 0], [1, 1]], "pair of JSON integers"),
    "ij_scalar": ("ij", 5, "JSON lists"),
    "value_bool": ("v", [[1.0, False], [1.0, 0.0]], "[re, im] pair"),
    "value_string": ("v", [[1.0, 0.0], ["1", 0.0]], "[re, im] pair"),
    "value_short": ("v", [[1.0, 0.0], [1.0]], "[re, im] pair"),
    "lengths_differ": ("v", [[1.0, 0.0]], "2 indices in ij but 1 values in v"),
    "unknown_key": ("nnz", 2, "exactly the keys shape, ij and v"),
    "value_nan": ("v", [[1.0, 0.0], [float("nan"), 0.0]], "finite"),
    "value_inf": ("v", [[1.0, float("-inf")], [1.0, 0.0]], "finite"),
}


class TestCheck:
    def test_exit_zero_with_first_order_violated(self, workdir, capsys):
        rc = main(["check", str(workdir / "u1u2.json")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "first_order" in out and "VIOLATED" in out

    def test_require_first_order_fails(self, workdir):
        assert main(["check", str(workdir / "u1u2.json"), "--require-first-order"]) == 1

    def test_require_first_order_passes_a_defect_within_the_tolerance(self, tmp_path):
        # first_order is the basis maximum |ky| = 7e-11, at most tol = 1e-10
        path = str(tmp_path / "near.json")
        assert main(["model", "u1u2", "--kx", "1,0", "--ky", "7e-11,0", "--verify", "1", "--out", path]) == 0
        assert main(["check", path, "--require-first-order"]) == 0

    def test_malformed_json_exits_two(self, workdir, capsys):
        bad = workdir / "bad.json"
        bad.write_text("{nope")
        assert main(["check", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_two(self, workdir):
        assert main(["check", str(workdir / "missing.json")]) == 2

    @pytest.mark.parametrize("mutation", ["no_perm", "short_conjugators", "empty_real_structure",
                                          *INTEGER_FIELD_MUTATIONS, *SECTION_MUTATIONS])
    def test_malformed_triple_exits_two(self, workdir, capsys, mutation):
        doc = json.loads((workdir / "u1u2.json").read_text())
        if mutation == "no_perm":
            del doc["automorphism"]["perm"]
        elif mutation == "short_conjugators":
            doc["automorphism"]["conjugators"] = doc["automorphism"]["conjugators"][:-1]
        elif mutation == "empty_real_structure":
            doc["real_structure"] = {}
        elif mutation in SECTION_MUTATIONS:
            section, value = SECTION_MUTATIONS[mutation]
            doc[section] = value
        else:
            section, key, value = INTEGER_FIELD_MUTATIONS[mutation]
            (doc[section] if section else doc)[key] = value
        bad = workdir / f"{mutation}.json"
        bad.write_text(json.dumps(doc))
        assert main(["check", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        if mutation in INTEGER_FIELD_MUTATIONS:
            key = INTEGER_FIELD_MUTATIONS[mutation][1]
            assert "JSON integer" in err and key in err and "missing" not in err
        if mutation in SECTION_MUTATIONS:
            section = SECTION_MUTATIONS[mutation][0]
            assert f"{section} must be a JSON object" in err and "missing" not in err

    @pytest.mark.parametrize("mutation", SPARSE_CELL_MUTATIONS)
    def test_malformed_sparse_cell_exits_two(self, workdir, capsys, mutation):
        doc = json.loads((workdir / "u1u2.json").read_text())
        cell = doc["representation"]["unit_images"]["0,0,0"]
        assert cell == {"shape": [8, 8], "ij": [[0, 0], [1, 1]], "v": [[1.0, 0.0], [1.0, 0.0]]}
        key, value, message = SPARSE_CELL_MUTATIONS[mutation]
        cell[key] = value
        bad = workdir / f"sparse_{mutation}.json"
        bad.write_text(json.dumps(doc))
        assert main(["check", str(bad)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
        assert message in err

    @pytest.mark.parametrize("dim", [10**7, 0, -3])
    def test_hilbert_dim_out_of_range_exits_two_before_allocating(self, workdir, capsys, dim):
        # every unit image an empty sparse cell of the declared size: a few bytes in the file
        doc = json.loads((workdir / "u1u2.json").read_text())
        doc["hilbert_dim"] = dim
        units = doc["representation"]["unit_images"]
        for key in units:
            units[key] = {"shape": [dim, dim], "ij": [], "v": []}
        bad = workdir / "hilbert_dim.json"
        bad.write_text(json.dumps(doc))
        tracemalloc.start()
        try:
            rc = main(["check", str(bad)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
        assert "hilbert_dim" in err
        assert peak < MAX_DENSE_BYTES // 64

    @pytest.mark.parametrize("schema", [1, 3, "2", 2.0, True, None])
    def test_unknown_schema_exits_two(self, workdir, capsys, schema):
        doc = json.loads((workdir / "u1u2.json").read_text())
        assert doc["schema"] == 2
        doc["schema"] = schema
        bad = workdir / "schema.json"
        bad.write_text(json.dumps(doc))
        assert main(["check", str(bad)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1 and "schema" in err

    def test_file_without_schema_loads_as_before(self, workdir, capsys):
        doc = json.loads((workdir / "u1u2.json").read_text())
        del doc["schema"]
        path = workdir / "no_schema.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path), "--json"]) == 0
        unversioned = capsys.readouterr().out
        assert main(["check", str(workdir / "u1u2.json"), "--json"]) == 0
        assert unversioned == capsys.readouterr().out

    @pytest.mark.parametrize("key", ["9,0,0", "x,y,z", "0,0,1", "2,2,0"])
    def test_unit_image_key_of_no_matrix_unit_exits_two(self, workdir, capsys, key):
        doc = json.loads((workdir / "u1u2.json").read_text())
        units = doc["representation"]["unit_images"]
        units[key] = units["0,0,0"]
        bad = workdir / "extra_unit_key.json"
        bad.write_text(json.dumps(doc))
        assert main(["check", str(bad)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
        assert repr(key) in err

    def test_json_output_ignores_samples_and_seed(self, workdir, capsys):
        outs = []
        for extra in (["--samples", "1", "--seed", "0"], ["--samples", "10", "--seed", "9"]):
            assert main(["check", str(workdir / "u1u2.json"), "--json", *extra]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        doc = json.loads(outs[0])
        assert doc["first_order"] == pytest.approx(abs(0.7 - 0.2j), rel=1e-12, abs=0.0)
        assert doc["first_order_witness"] == [[2, 0, 0], [3, 0, 0]]

    def test_json_output_deterministic(self, workdir, capsys):
        rc = main(["check", str(workdir / "u1u2.json"), "--json", "--seed", "3"])
        first = capsys.readouterr().out
        rc2 = main(["check", str(workdir / "u1u2.json"), "--json", "--seed", "3"])
        second = capsys.readouterr().out
        assert rc == rc2 == 0
        assert first == second
        doc = json.loads(first)
        assert doc["real"]["ko_dimension"] == 6
        assert doc["failures"] == []


class TestTolerance:
    """--tol reaches the KO signs detected when a triple file is loaded."""

    @pytest.fixture(scope="class")
    def perturbed(self, workdir):
        # D off from J D J^-1 = D by about 1e-8: a sign at --tol 1e-6, none at the default 1e-10
        doc = json.loads((workdir / "u1u2_ky0.json").read_text())
        rng = np.random.default_rng(3)
        h = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        doc["dirac"] = matrix_to_json(matrix_from_json(doc["dirac"]) + 1e-8 * (h + np.conj(h.T)))
        path = workdir / "u1u2_ky0_perturbed.json"
        path.write_text(json.dumps(doc))
        return path

    def test_loaded_signs_use_the_tolerance(self, perturbed):
        assert load_triple(str(perturbed)).real.epsilon_prime is None
        assert load_triple(str(perturbed), tw.Tolerance(1e-6)).real.epsilon_prime == 1

    def test_fluctuate_finds_eps_prime_at_tol(self, workdir, perturbed, capsys):
        args = ["fluctuate", str(perturbed), str(workdir / "pert.json")]
        assert main(args) == 2
        assert "holds for neither sign" in capsys.readouterr().err
        assert main(args + ["--tol", "1e-6"]) == 0
        assert main(["check", str(perturbed), "--tol", "1e-6"]) == 0


class TestFluctuate:
    def test_matches_library_bit_for_bit(self, workdir, capsys):
        rc = main(["fluctuate", str(workdir / "u1u2.json"), str(workdir / "pert.json"),
                   "--check-mu", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        t = load_triple(str(workdir / "u1u2.json"))
        p = pert_from_json(t.shape, json.loads((workdir / "pert.json").read_text()))
        f = tw.fluctuate(t, p)
        assert np.array_equal(matrix_from_json(doc["d_omega"]), f.d_omega)
        assert doc["mu_action_defect"] <= 1e-12

    def test_unit_pert_echoes_dirac(self, workdir, capsys, u1u2):
        unit = workdir / "unit_pert.json"
        unit.write_text(json.dumps(pert_to_json(tw.pert_unit(U1U2_SHAPE))))
        rc = main(["fluctuate", str(workdir / "u1u2.json"), str(unit), "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert np.allclose(matrix_from_json(doc["d_omega"]), u1u2.triple.dirac, atol=1e-13)

    def test_shape_mismatch_exits_two(self, workdir):
        bad = workdir / "badpert.json"
        bad.write_text(json.dumps([[[[[1.0, 0.0]]], [[[1.0, 0.0]]]]]))
        assert main(["fluctuate", str(workdir / "u1u2.json"), str(bad)]) == 2

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_entry_exits_two(self, workdir, capsys, value):
        # the loaders are the boundary: arithmetic after them is not re-validated
        e = U1U2_SHAPE.unit()
        doc = json.dumps(pert_to_json(tw.Perturbation(U1U2_SHAPE, ((e, e),))))
        text = doc.replace("[0.0, 0.0]", f"[0.0, {value}]", 1)     # the first zero entry
        bad = workdir / "nonfinite_pert.json"
        bad.write_text(text)
        assert main(["fluctuate", str(workdir / "u1u2.json"), str(bad)]) == 2
        err = capsys.readouterr().err
        assert "finite" in err and "Traceback" not in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_legs_exit_two_without_nan(self, workdir, capsys):
        # finite legs 1e200 e overflow in the products: the omega2 gate is NaN and must refuse, not print NaN
        e = U1U2_SHAPE.unit()
        big = workdir / "big_pert.json"
        big.write_text(json.dumps(pert_to_json(tw.Perturbation(U1U2_SHAPE, ((1e200 * e, 1e200 * e),)))))
        assert main(["fluctuate", str(workdir / "u1u2.json"), str(big), "--json"]) == 2
        out, err = capsys.readouterr()
        assert "NaN" not in out
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: omega2 formulas diverge (defect nan); order-zero condition is likely broken"]

    def test_zero_pairs_fluctuate_as_the_appended_unit_pair(self, workdir, capsys, u1u2):
        empty = workdir / "empty.json"
        empty.write_text("[]")
        assert main(["fluctuate", str(workdir / "u1u2.json"), str(empty), "--check-mu", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert np.allclose(matrix_from_json(doc["d_omega"]), u1u2.triple.dirac, atol=1e-13)
        assert doc["mu_action_defect"] <= 1e-12


class TestGaugeAndProduct:
    def test_gauge_defect_small(self, workdir, capsys):
        rc = main(["gauge", str(workdir / "u1u2.json"), str(workdir / "pert.json"),
                   str(workdir / "unitary.json")])
        assert rc == 0
        out = capsys.readouterr().out
        defect = float(out.split("covariance_defect:")[1].split()[0])
        assert defect <= 1e-10

    def test_gauge_unit_unitary(self, workdir, capsys):
        unit = workdir / "unit_unitary.json"
        unit.write_text(json.dumps(element_to_json(U1U2_SHAPE.unit())))
        rc = main(["gauge", str(workdir / "u1u2.json"), str(workdir / "pert.json"), str(unit)])
        assert rc == 0
        defect = float(capsys.readouterr().out.split("covariance_defect:")[1].split()[0])
        assert defect <= 1e-12

    def test_unitary_is_checked_at_the_command_tolerance(self, workdir, capsys):
        # a unitary times (1 + 1e-8) is unitary within 1e-6, not within the default 1e-10
        near = workdir / "near_unitary.json"
        u = U1U2_SHAPE.random_unitary(np.random.default_rng(3)).element
        near.write_text(json.dumps(element_to_json((1 + 1e-8) * u)))
        argv = ["gauge", str(workdir / "u1u2.json"), str(workdir / "pert.json"), str(near)]
        assert main(argv + ["--tol", "1e-6"]) == 0
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == ["error: element is not unitary: u u* = u* u = e fails"]

    def test_pert_mul(self, workdir, capsys):
        rc = main(["pert-mul", str(workdir / "u1u2.json"), str(workdir / "pert.json"),
                   str(workdir / "pert.json"), "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pairs"] == 4

    def test_pert_mul_of_empty_perturbations(self, workdir, capsys):
        empty = workdir / "empty.json"
        empty.write_text("[]")
        rc = main(["pert-mul", str(workdir / "u1u2.json"), str(empty), str(empty), "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pairs"] == 0 and doc["eta_norm"] == 0.0 and doc["product"] == []


class TestNormalisedInputs:
    """A normalised perturbation file is used as it is: no zero pair, and one fluctuation per perturbation."""

    @pytest.fixture(scope="class")
    def files(self, workdir):
        t = load_triple(str(workdir / "u1u2.json"))
        p = tw.normalize(t, random_pert(t, np.random.default_rng(7), 2))
        padj = tw.eta_adjoint_pairs(t, p)
        sym = tw.Perturbation(t.shape, tuple((0.5 * a, b) for a, b in p.pairs + padj.pairs))
        (workdir / "pert_norm3.json").write_text(json.dumps(pert_to_json(p)))
        (workdir / "pert_sym6.json").write_text(json.dumps(pert_to_json(sym)))
        return workdir

    @pytest.fixture
    def legs(self, monkeypatch):
        import twistlab.pert as pert

        counts = []
        def counted(t, pairs, _f=pert._legs):
            counts.append(len(pairs))
            return _f(t, pairs)
        monkeypatch.setattr(pert, "_legs", counted)
        return counts

    def test_gauge_fluctuates_the_pairs_of_a_normalised_file(self, files, capsys, legs):
        rc = main(["gauge", str(files / "u1u2.json"), str(files / "pert_norm3.json"),
                   str(files / "unitary.json")])
        assert rc == 0
        assert legs == [3, 3]

    def test_gauge_computes_each_fluctuation_once(self, files, capsys, legs):
        rc = main(["gauge", str(files / "u1u2.json"), str(files / "pert_sym6.json"),
                   str(files / "unitary.json"), "--json"])
        assert rc == 0
        assert "criterion_defect" in json.loads(capsys.readouterr().out)   # the criterion ran too
        assert legs == [6, 6]

    def test_morita_self_symmetrises_twice_the_pairs(self, files, capsys, monkeypatch):
        import twistlab.cli as cli

        symmetrised = []
        def counted(t, p, _f=cli.eta):
            symmetrised.append(len(p.pairs))
            return _f(t, p)
        monkeypatch.setattr(cli, "eta", counted)
        rc = main(["morita", str(files / "u1u2.json"), "--self", "--omega", str(files / "pert_norm3.json")])
        assert rc == 0
        assert symmetrised == [6]


class TestModelAndMorita:
    def test_model_verification(self, workdir, capsys):
        rc = main(["model", "u1u2", "--kx", "1,0", "--ky", "1,0", "--verify", "10", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["formula_max_defect"] <= 1e-10
        assert doc["first_order"] > 0.05

    def test_model_out_writes_the_sorted_compact_json_of_the_triple(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        rc = main(["model", "u1u2", "--kx", "1,0.5", "--ky", "0.7,-0.2", "--verify", "1", "--out", str(path)])
        assert rc == 0
        t = tw.build_u1u2(1 + 0.5j, 0.7 - 0.2j, seed=0).triple
        assert path.read_bytes() == json.dumps(triple_to_json(t), sort_keys=True).encode()

    def test_model_unwritable_out_exits_two(self, workdir, capsys):
        rc = main(["model", "u1u2", "--kx", "1,0.5", "--ky", "0.7,-0.2", "--verify", "1",
                   "--out", str(workdir / "no_such_dir" / "t.json")])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1 and "no_such_dir" in err

    def test_morita_self(self, workdir, capsys):
        rc = main(["morita", str(workdir / "u1u2.json"), "--self",
                   "--omega", str(workdir / "pert.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert float(out.split("d_r_equals_d_plus_omega:")[1].split()[0]) <= 1e-12

    def test_morita_idempotent(self, workdir, capsys):
        rc = main(["morita", str(workdir / "u1u2_ky0.json"),
                   "--idempotent", str(workdir / "idem.json"), "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["right_triple_passes"] and doc["real_triple_passes"]
        assert doc["real_ko_dimension"] == 6

    def test_morita_idempotent_refused_without_first_order(self, workdir, capsys):
        rc = main(["morita", str(workdir / "u1u2.json"),
                   "--idempotent", str(workdir / "idem.json"), "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert "first order" in doc.get("left_triple_error", "")
        assert "first-order" in doc.get("real_triple_error", "")

    def test_morita_rejected_idempotent_still_reports_its_defects(self, workdir, capsys):
        h = 0.5 * U1U2_SHAPE.unit()
        bad = IdempotentData(AlgebraMatrix(U1U2_SHAPE, ((h, 0.3 * h), (0.3 * h, h))))
        (workdir / "idem_bad.json").write_text(json.dumps(idempotent_to_json(bad)))
        rc = main(["morita", str(workdir / "u1u2_ky0.json"),
                   "--idempotent", str(workdir / "idem_bad.json"), "--json"])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["idempotent_defect"] > 0.1 and "not a selfadjoint idempotent" in doc["construction_error"]

    def test_morita_connection_file(self, workdir, capsys, u1u2_ky0):
        from twistlab.pert import eta_adjoint_pairs, normalize

        t = u1u2_ky0.triple
        rng = np.random.default_rng(5)
        p = normalize(t, random_pert(t, rng, 2))
        padj = eta_adjoint_pairs(t, p)
        sym = tw.Perturbation(t.shape, tuple((0.5 * a, b) for a, b in p.pairs)
                              + tuple((0.5 * a, b) for a, b in padj.pairs))
        (workdir / "conn.json").write_text(json.dumps([[pert_to_json(sym)]]))
        e1 = IdempotentData(AlgebraMatrix(U1U2_SHAPE, ((U1U2_SHAPE.unit(),),)))
        (workdir / "idem1.json").write_text(json.dumps(idempotent_to_json(e1)))
        rc = main(["morita", str(workdir / "u1u2_ky0.json"),
                   "--idempotent", str(workdir / "idem1.json"),
                   "--connection", str(workdir / "conn.json"), "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["right_triple_passes"] and doc["real_triple_passes"]

    def test_morita_missing_connection_file_exits_two(self, workdir, capsys):
        rc = main(["morita", str(workdir / "u1u2_ky0.json"), "--idempotent", str(workdir / "idem.json"),
                   "--connection", str(workdir / "no_such_connection.json")])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == "" and "error:" in err and "no_such_connection.json" in err

    @pytest.mark.parametrize("cells", [[[5, 5], [5, 5]], [[[], []], [[], [5]]]], ids=["numbers", "one_cell"])
    def test_morita_malformed_connection_cell_exits_two(self, workdir, capsys, cells):
        (workdir / "conn_bad_cell.json").write_text(json.dumps(cells))
        rc = main(["morita", str(workdir / "u1u2_ky0.json"), "--idempotent", str(workdir / "idem.json"),
                   "--connection", str(workdir / "conn_bad_cell.json")])
        assert rc == 2
        out, err = capsys.readouterr()
        bad = "(0, 0)" if cells[0][0] == 5 else "(1, 1)"
        assert out == "" and "conn_bad_cell.json" in err and f"cell {bad}" in err and "Traceback" not in err

    def test_morita_wrong_size_connection_is_a_construction_error(self, workdir, capsys):
        (workdir / "conn_1x1.json").write_text(json.dumps([[[]]]))
        rc = main(["morita", str(workdir / "u1u2_ky0.json"), "--idempotent", str(workdir / "idem.json"),
                   "--connection", str(workdir / "conn_1x1.json"), "--json"])
        assert rc == 1
        assert "n x n" in json.loads(capsys.readouterr().out)["construction_error"]

    @staticmethod
    def _unit_idempotent(workdir, n):
        """The n x n identity over U(1)xU(2), written to a file: B = M_n(A) has 12 n^2 units."""
        one, zero = U1U2_SHAPE.unit(), U1U2_SHAPE.zero()
        e = IdempotentData(AlgebraMatrix(U1U2_SHAPE, [[one if i == j else zero for j in range(n)] for i in range(n)]))
        path = workdir / f"unit{n}.json"
        path.write_text(json.dumps(idempotent_to_json(e)))
        return str(path)

    @staticmethod
    def _traced(argv):
        """main(argv) and the peak of the bytes it allocated."""
        tracemalloc.start()
        try:
            rc = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return rc, peak

    def test_morita_over_the_dense_bound_exits_two_before_allocating(self, workdir, capsys):
        # each operator of the real export of a 33 x 33 idempotent on M_33(H) is (33^2 * 8)^2 * 16 bytes, 1.2 GB,
        # from a file of under 250 kB
        e = IdempotentData(AlgebraMatrix(U1U2_SHAPE, [[U1U2_SHAPE.zero()] * 33] * 33))
        (workdir / "zero33.json").write_text(json.dumps(idempotent_to_json(e)))
        assert os.path.getsize(workdir / "zero33.json") < 250_000
        rc, peak = self._traced(["morita", str(workdir / "u1u2_ky0.json"), "--idempotent",
                                 str(workdir / "zero33.json")])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
        assert f"{MAX_DENSE_BYTES}-byte bound" in err
        assert peak < MAX_DENSE_BYTES // 32

    @pytest.mark.parametrize("triple, n", [("u1u2.json", 4), ("u1u2_ky0.json", 3), ("u1u2_ky0.json", 4)],
                             ids=["right-n4", "real-n3", "real-n4"])
    def test_morita_verifies_the_unit_idempotents_in_chunks(self, workdir, capsys, triple, n):
        # the exports of e = 1_n are compressed one chunk of the 12 n^2 units of B = M_n(A) at a time, to H^n
        # (d' = 8 n) and for the real one to M_n(H) (d' = 8 n^2: 192 units on d' = 128 at n = 4): the verdicts are
        # those of the identity, every defect 0, and no ambient pair grid forms
        rc, peak = self._traced(["morita", str(workdir / triple), "--idempotent", self._unit_idempotent(workdir, n),
                                 "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["right_triple_passes"] and doc["right_bracket_defect"] == 0.0
        assert doc.get("real_triple_passes", True) and doc.get("left_triple_passes", True)
        assert ("real_triple_passes" in doc) == (triple == "u1u2_ky0.json")
        assert peak < MAX_DENSE_BYTES // 8

    def test_morita_checks_a_rank_one_projection_over_a_large_block_in_chunks(self, workdir, capsys):
        # A = M_10(C) on C^10 (N = 100) and e = E_00 (x) E^0_00 in M_16(A): the 10 basis vectors of e A^n and the
        # 100 units of A make 1000 pairs of 16 x 16 matrices over A, 410 MB at once; only the 100 pairs with
        # x E_u != 0 are compared, in chunks
        shape = tw.AlgebraShape((10,))
        images = np.einsum("ik,jl->ijkl", np.eye(10), np.eye(10)).astype(complex)    # pi(E_ij) = E_ij
        dirac = np.diag(np.arange(10.0)).astype(complex) + np.diag(np.ones(9), 1) + np.diag(np.ones(9), -1)
        t = tw.TwistedTriple(shape, tw.Representation(shape, 10, (images,)), dirac, tw.identity_automorphism(shape))
        (workdir / "m10.json").write_text(json.dumps(triple_to_json(t)))
        zero = shape.zero()
        entries = [[shape.matrix_unit(0, 0, 0) if i == j == 0 else zero for j in range(16)] for i in range(16)]
        e = IdempotentData(AlgebraMatrix(shape, entries))
        (workdir / "rank1.json").write_text(json.dumps(idempotent_to_json(e)))
        rc, peak = self._traced(["morita", str(workdir / "m10.json"), "--idempotent", str(workdir / "rank1.json"),
                                 "--json"])
        assert rc == 0 and json.loads(capsys.readouterr().out)["right_triple_passes"]
        assert peak < MAX_DENSE_BYTES // 8


class TestModelDraws:
    """`model --verify n` draws its n perturbations as the one-by-one loop did and verifies them as one stack."""

    @pytest.fixture
    def drawn(self, monkeypatch):
        stacks = []
        def recorded(model, p, *args, _f=cli.verify_fluctuation_formula):
            stacks.append(p)
            return _f(model, p, *args)
        monkeypatch.setattr(cli, "verify_fluctuation_formula", recorded)
        return stacks

    def _model(self, seed, n, kx="1,0.5", ky="0.7,-0.2"):
        return main(["model", "u1u2", f"--kx={kx}", f"--ky={ky}", "--seed", str(seed), "--verify", str(n), "--json"])

    @pytest.mark.parametrize("seed, n", [(0, 1), (4, 7), (11, 20)])
    def test_the_draws_are_those_of_the_loop(self, drawn, capsys, seed, n):
        assert self._model(seed, n) == 0
        [got] = drawn
        want = stacked(loop_draws(U1U2_SHAPE, np.random.default_rng(seed), n))
        for x, y in ((got.first, want.first), (got.second, want.second)):
            assert all(np.array_equal(bx, by) for bx, by in zip(x.blocks, y.blocks))

    def test_the_first_draws_do_not_depend_on_the_count(self, drawn, capsys):
        assert self._model(3, 12) == 0 and self._model(3, 5) == 0
        many, few = drawn
        m = few.first.blocks[0].shape[1]
        for x, y in ((many.first, few.first), (many.second, few.second)):
            for bx, by in zip(x.blocks, y.blocks):
                assert np.array_equal(bx[:5, :m], by) and not bx[:5, m:].any()

    def test_overflowing_parameters_print_one_error_line(self, workdir):
        rc, out, err = _cli(["model", "u1u2", "--kx=1e200,0", "--ky=1e200,0", "--verify", "5"], workdir)
        assert (rc, out) == (2, "")
        assert err.splitlines() == [
            "error: omega2 formulas diverge (defect nan); order-zero condition is likely broken"]

    def test_the_zero_dirac_operator_passes(self, capsys):
        assert self._model(0, 5, kx="0,0", ky="0,0") == 0
        assert json.loads(capsys.readouterr().out)["formula_max_defect"] == 0.0

    def test_the_omega2_gate_runs_at_tol_as_in_fluctuate(self, workdir):
        # the two omega2 formulas agree to about 1e-16, so a tolerance of 1e-18 refuses them in both commands
        argvs = (["model", "u1u2", "--kx=1,0.5", "--ky=0.7,-0.2", "--verify", "5"],
                 ["fluctuate", str(workdir / "u1u2.json"), str(workdir / "pert.json")])
        for argv in argvs:
            assert _cli(argv, workdir)[0] == 0
            rc, out, err = _cli(argv + ["--tol", "1e-18"], workdir)
            assert (rc, out) == (2, "")
            assert len(err.splitlines()) == 1 and err.startswith("error: omega2 formulas diverge")


@pytest.mark.parametrize("argv", [["check", "T"], ["fluctuate", "T", "P", "--check-mu"], ["gauge", "T", "P", "U"],
                                  ["pert-mul", "T", "P", "P"], ["morita", "K", "--idempotent", "I"],
                                  ["morita", "T", "--self", "--omega", "P"],
                                  ["morita", "K", "--idempotent", "I", "--connection", "C"]])
def test_seed_is_read_only_by_model_and_morita(workdir, capsys, argv):
    """Every command but `model` accepts --seed and ignores it: the same bytes under two seeds.

    `morita` decides its checks on bases. The hermitian connection on the half idempotent is a case
    whose rounding-level `right_bracket_defect` differs from one random draw of b to another.
    """
    files = {"T": workdir / "u1u2.json", "P": workdir / "pert.json", "U": workdir / "unitary.json",
             "K": workdir / "u1u2_ky0.json", "I": workdir / "idem.json", "C": workdir / "conn_hermitian.json"}
    t = tw.build_u1u2(1 + 0.5j, 0.0).triple
    p = tw.normalize(t, random_pert(t, np.random.default_rng(0), 2))
    pairs = p.pairs + tw.eta_adjoint_pairs(t, p).pairs
    sym = pert_to_json(tw.Perturbation(t.shape, tuple((0.5 * a, b) for a, b in pairs)))
    files["C"].write_text(json.dumps([[sym, sym], [sym, sym]]))
    argv = [str(files[a]) if a in files else a for a in argv]
    outs = []
    for extra in (["--seed", "0"], ["--seed", "7"], ["--seed", "0", "--json"], ["--seed", "7", "--json"]):
        assert main(argv + extra) == 0
        outs.append(capsys.readouterr())
    assert outs[0] == outs[1] and outs[2] == outs[3]


class TestMoritaCallCounts:
    """One lift per command and one verification per export, counted through both module names."""

    @pytest.fixture
    def calls(self, monkeypatch):
        import twistlab.cli as cli
        import twistlab.morita as morita

        counts = collections.Counter()
        for name in ("lift_maps", "check_morita_triple", "check_real_triple"):
            def counted(*args, _name=name, _f=getattr(morita, name), **kwargs):
                counts[_name] += 1
                return _f(*args, **kwargs)
            monkeypatch.setattr(morita, name, counted)
            monkeypatch.setattr(cli, name, counted, raising=False)
        return counts

    def test_idempotent_builds_one_lift_and_checks_each_export_once(self, workdir, capsys, calls):
        rc = main(["morita", str(workdir / "u1u2_ky0.json"), "--idempotent", str(workdir / "idem.json")])
        assert rc == 0
        assert calls == {"lift_maps": 1, "check_morita_triple": 2, "check_real_triple": 1}

    def test_idempotent_runs_the_first_order_gate_once(self, workdir, capsys, monkeypatch):
        import twistlab.morita as morita

        scans = []
        def counted(t, _f=morita._basis_pair_scans):
            scans.append(t)
            return _f(t)
        monkeypatch.setattr(morita, "_basis_pair_scans", counted)
        rc = main(["morita", str(workdir / "u1u2_ky0.json"), "--idempotent", str(workdir / "idem.json")])
        assert rc == 0
        assert len(scans) == 1

    def test_idempotent_checks_each_connection_once(self, workdir, capsys, monkeypatch):
        # the right and real builders share the right connection, whose hermiticity is checked once
        import twistlab.morita as morita

        sides = []
        def counted(t, conn, *args, _f=morita.check_hermitian, **kwargs):
            sides.append(conn.side)
            return _f(t, conn, *args, **kwargs)
        monkeypatch.setattr(morita, "check_hermitian", counted)
        rc = main(["morita", str(workdir / "u1u2_ky0.json"), "--idempotent", str(workdir / "idem.json")])
        assert rc == 0
        assert sorted(sides) == ["left", "right"]

    def test_self_builds_one_lift(self, workdir, capsys, calls):
        rc = main(["morita", str(workdir / "u1u2.json"), "--self", "--omega", str(workdir / "pert.json")])
        assert rc == 0
        assert calls["lift_maps"] == 1

    def test_self_exits_one_when_an_export_fails_its_check(self, workdir, capsys, monkeypatch):
        import twistlab.cli as cli
        import twistlab.morita as morita

        def failing(*args, _f=morita.check_morita_triple, **kwargs):
            return dataclasses.replace(_f(*args, **kwargs), selfadjoint_defect=1.0)
        monkeypatch.setattr(morita, "check_morita_triple", failing)
        monkeypatch.setattr(cli, "check_morita_triple", failing)
        rc = main(["morita", str(workdir / "u1u2.json"), "--self", "--omega", str(workdir / "pert.json")])
        assert rc == 1
        out, err = capsys.readouterr()
        assert "d_r_equals_d_plus_omega" in out
        assert "error: exported right triple fails verification" in err
        assert "error: exported left triple fails verification" in err


def densified(doc):
    """The document with every sparse matrix cell rewritten as a dense nested array."""
    if isinstance(doc, dict):
        if doc.keys() == {"shape", "ij", "v"}:
            return matrix_to_json(matrix_from_json(doc))
        return {key: densified(value) for key, value in doc.items()}
    if isinstance(doc, list):
        return [densified(x) for x in doc]
    return doc


class TestDenseAgainstSparse:
    """A triple file and its all-dense rewrite are the same triple: same arrays, byte-identical output."""

    @pytest.fixture(scope="class")
    def dense(self, workdir):
        for name in ("u1u2", "u1u2_ky0"):
            text = (workdir / f"{name}.json").read_text()
            assert '"ij"' in text
            dense = json.dumps(densified(json.loads(text)), sort_keys=True)
            assert '"ij"' not in dense and '"schema": 2' in dense
            (workdir / f"{name}_dense.json").write_text(dense)
        return workdir

    @pytest.mark.parametrize("name", ["u1u2", "u1u2_ky0"])
    def test_both_files_load_to_equal_arrays(self, dense, name):
        s, d = (load_triple(str(dense / f"{name}{suffix}.json")) for suffix in ("", "_dense"))
        assert np.array_equal(s.rep.stack, d.rep.stack)
        assert np.array_equal(s.dirac, d.dirac) and np.array_equal(s.grading, d.grading)
        assert np.array_equal(s.real.j.mat, d.real.j.mat)
        assert s.sigma.perm == d.sigma.perm
        assert all(np.array_equal(a, b) for a, b in zip(s.sigma.conjugators, d.sigma.conjugators))
        assert s.real.epsilon_prime == d.real.epsilon_prime == 1

    @pytest.mark.parametrize("argv", [
        ["check", "T"],
        ["check", "T", "--json"],
        ["fluctuate", "T", "P", "--check-mu", "--json"],
        ["gauge", "T", "P", "U", "--json"],
        ["morita", "T0", "--idempotent", "E", "--json"],
    ], ids=["check", "check_json", "fluctuate", "gauge", "morita"])
    def test_stdout_is_byte_identical(self, dense, capsys, argv):
        outputs = []
        for suffix in ("", "_dense"):
            files = {"T": f"u1u2{suffix}.json", "T0": f"u1u2_ky0{suffix}.json", "P": "pert.json",
                     "U": "unitary.json", "E": "idem.json"}
            rc = main([str(dense / files[a]) if a in files else a for a in argv])
            outputs.append((rc, capsys.readouterr().out))
        assert outputs[0] == outputs[1] and outputs[0][0] == 0


# one command of each report shape; T, T0, P, U and E name the workdir's files
LAYOUT_COMMANDS = {
    "check": ["check", "T"],
    "fluctuate": ["fluctuate", "T", "P", "--check-mu"],
    "gauge": ["gauge", "T", "P", "U"],
    "pert_mul": ["pert-mul", "T", "P", "P"],
    "model": ["model", "u1u2", "--kx", "1,0.5", "--ky", "0.7,-0.2", "--verify", "1"],
    "model_out": ["model", "u1u2", "--kx", "1,0.5", "--ky", "0.7,-0.2", "--verify", "1", "--out", "OUT"],
    "morita_self": ["morita", "T", "--self", "--omega", "P"],
    "morita_idempotent": ["morita", "T0", "--idempotent", "E"],
}


@pytest.mark.parametrize("name", LAYOUT_COMMANDS)
def test_one_output_layout(workdir, tmp_path, capsys, name):
    """--json prints one line, compact with sorted keys; the text form prints the same keys in that order."""
    files = {"T": workdir / "u1u2.json", "T0": workdir / "u1u2_ky0.json", "P": workdir / "pert.json",
             "U": workdir / "unitary.json", "E": workdir / "idem.json", "OUT": tmp_path / "t.json"}
    argv = [str(files[a]) if a in files else a for a in LAYOUT_COMMANDS[name]]
    assert main(argv + ["--json"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert out == json.dumps(doc, sort_keys=True) + "\n"
    if name == "model_out":
        assert files["OUT"].read_text() == json.dumps(json.loads(files["OUT"].read_text()), sort_keys=True)
    if name == "check":   # check keeps its per-axiom table
        return
    assert main(argv) == 0
    keys = re.findall(r"^(\w+): ", capsys.readouterr().out, flags=re.MULTILINE)
    assert keys == list(doc)


class TestParser:
    """The parser is built once per process; each call parses as a fresh parser would."""

    def test_built_once(self):
        assert cli._parser() is cli._parser()

    def test_version_twice(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["--version"])
            assert exc.value.code == 0
            assert capsys.readouterr().out == f"twistlab {tw.__version__}\n"

    def test_back_to_back_calls_see_only_their_own_arguments(self, workdir, capsys, monkeypatch):
        seen = []
        for name in ("cmd_check", "cmd_gauge", "cmd_model"):
            monkeypatch.setattr(cli, name, lambda args: seen.append(vars(args)) or 0)
        t = str(workdir / "u1u2.json")
        calls = [
            ["check", t, "--samples", "3", "--json", "--seed", "5", "--require-first-order"],
            ["gauge", t, "P", "U", "--tol", "1e-6"],
            ["model", "u1u2", "--kx", "1,0", "--ky", "0,0", "--out", "x.json"],
            ["check", t],
        ]
        for argv in calls:
            assert main(argv) == 0
        assert seen == [vars(cli._parser.__wrapped__().parse_args(argv)) for argv in calls]
        assert seen[3]["samples"] == 10 and not seen[3]["json"] and seen[3]["seed"] == 0

    def test_usage_errors_exit_two_between_calls(self, workdir, capsys):
        t = str(workdir / "u1u2.json")
        assert main(["check", t, "--json", "--seed", "3"]) == 0
        first = capsys.readouterr().out
        for argv in (["check"], ["nope", t], ["check", t, "--samples", "0"], ["gauge", t, "--tol", "-1"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            out, err = capsys.readouterr()
            assert out == "" and "error:" in err
        assert main(["check", t, "--json", "--seed", "3"]) == 0
        assert capsys.readouterr().out == first


def _cli(argv, cwd):
    """`python -m twistlab.cli argv` in a fresh process: (exit code, stdout, stderr)."""
    src = os.path.dirname(os.path.dirname(tw.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "twistlab.cli", *map(str, argv)], capture_output=True,
                          text=True, env=env, cwd=cwd, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


class TestNaNDefects:
    """A defect that overflows to NaN fails its verdict, and numpy warnings stay off stderr."""

    @pytest.fixture(scope="class")
    def huge(self, workdir):
        with np.errstate(all="ignore"):
            doc = triple_to_json(tw.build_u1u2(1e200, 1e200).triple)
        path = workdir / "huge_u1u2.json"
        path.write_text(json.dumps(doc))
        return path

    def test_require_first_order_fails_on_a_nan_first_order(self, huge, capsys):
        assert main(["check", str(huge), "--require-first-order", "--json"]) == 1
        out, err = capsys.readouterr()
        doc = json.loads(out)
        assert doc["failures"] == ["first_order"]
        assert np.isnan(doc["first_order"]) and '"first_order": NaN' in out
        assert err == ""

    def test_check_prints_nothing_on_stderr(self, huge, workdir):
        rc, out, err = _cli(["check", huge, "--require-first-order"], workdir)
        assert rc == 1
        assert "first_order: nan VIOLATED" in out
        assert err == ""

    def test_overflowing_legs_print_one_error_line(self, workdir):
        e = U1U2_SHAPE.unit()
        big = workdir / "big_legs.json"
        big.write_text(json.dumps(pert_to_json(tw.Perturbation(U1U2_SHAPE, ((1e200 * e, 1e200 * e),)))))
        rc, out, err = _cli(["fluctuate", workdir / "u1u2.json", big], workdir)
        assert (rc, out) == (2, "")
        assert err.splitlines() == [
            "error: omega2 formulas diverge (defect nan); order-zero condition is likely broken"]

    def test_overflowing_unitary_prints_one_error_line(self, workdir):
        big = workdir / "big_unitary.json"
        big.write_text(json.dumps(element_to_json(1e200 * U1U2_SHAPE.unit())))
        rc, out, err = _cli(["gauge", workdir / "u1u2.json", workdir / "pert.json", big], workdir)
        assert (rc, out) == (2, "")
        assert err.splitlines() == ["error: element is not unitary: u u* = u* u = e fails"]


class TestFailingAxioms:
    """Files that break one mandatory axiom exit 1 and name it in `failures`."""

    def _check(self, workdir, capsys, name, mutate):
        doc = json.loads((workdir / "u1u2.json").read_text())
        mutate(doc)
        path = workdir / name
        path.write_text(json.dumps(doc))
        assert main(["check", str(path), "--json"]) == 1
        return json.loads(capsys.readouterr().out)["failures"]

    def test_non_selfadjoint_dirac(self, workdir, capsys):
        def mutate(doc):
            doc["dirac"][0][1] = [1.0, 0.0]     # D[0, 1] = 1 while D[1, 0] = 0
        assert "dirac_selfadjoint" in self._check(workdir, capsys, "dirac_not_sa.json", mutate)

    def test_unit_image_that_is_neither_one_nor_a_projection(self, workdir, capsys):
        def mutate(doc):
            cell = doc["representation"]["unit_images"]["0,0,0"]
            cell["v"] = [[3.0 * re, 3.0 * im] for re, im in cell["v"]]     # pi(1) = diag(3, 3, 1, ..., 1)
        assert "rep_unital" in self._check(workdir, capsys, "unit_scaled.json", mutate)
