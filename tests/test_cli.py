import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import E11, E12, WORKED_B, WORKED_S, load_workloads
from doubles import SkewedLevelCone
from matorder import cli as cli_mod
from matorder import similarity as sim_mod
from matorder.algebra import DEFAULT_STRUCTURE_TOL, generate_algebra
from matorder.case_studies import FunctionPullbackCone
from matorder.cli import run
from matorder.cones import DEFAULT_TOL_PSD, StandardCone, estimate_main_constants
from matorder.errors import SchemaError
from matorder.order_norms import DEFAULT_BISECT_TOL
from matorder.serialization import (
    algebra_from_obj,
    algebra_to_obj,
    canonical_json,
    cone_from_obj,
    cone_to_obj,
    matrix_from_obj,
    matrix_to_obj,
)
from references import audit_to_obj_17g, canonical_json_17g
from test_similarity import _diagonal_cone, _rotated_commutative_algebra


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    m2 = generate_algebra([E12], include_adjoints=True)
    span = generate_algebra([E11])
    worked = generate_algebra([WORKED_B])
    (root / "m2.json").write_text(canonical_json(algebra_to_obj(m2)))
    (root / "span_e11.json").write_text(canonical_json(algebra_to_obj(span)))
    (root / "std_cone.json").write_text(canonical_json(
        {"variant": "standard", "algebra": "m2.json", "tol_psd": 1e-9}))
    (root / "sim_cone.json").write_text(canonical_json(
        {"variant": "similarity", "algebra": algebra_to_obj(worked),
         "S": matrix_to_obj(WORKED_S), "tol_psd": 1e-9}))
    (root / "elem.json").write_text(canonical_json(
        matrix_to_obj(np.diag([3.0, -1.0]).astype(complex))))
    (root / "nonsa.json").write_text(canonical_json(matrix_to_obj(E12)))
    (root / "gens.json").write_text(canonical_json([matrix_to_obj(E12)]))
    (root / "S.json").write_text(canonical_json(matrix_to_obj(WORKED_S)))
    return root


def _run(workdir, args, capsys):
    code = run(args + ["--out", str(workdir / "out.json")])
    return code, json.loads((workdir / "out.json").read_text())


# -- serialization roundtrips ------------------------------------------------

def test_matrix_roundtrip():
    x = np.array([[1 + 2j, 3], [0, -1j]], dtype=complex)
    np.testing.assert_allclose(matrix_from_obj(matrix_to_obj(x)), x)


def test_algebra_roundtrip(m2_full):
    again = algebra_from_obj(algebra_to_obj(m2_full))
    assert again.dim == m2_full.dim
    assert again.star_closed == m2_full.star_closed


def test_cone_roundtrip(std_m2):
    again = cone_from_obj(cone_to_obj(std_m2))
    assert isinstance(again, StandardCone)
    assert again.member(1, np.eye(2, dtype=complex))


def test_schema_error_pointer():
    with pytest.raises(SchemaError) as err:
        matrix_from_obj({"dim": 2, "entries": [[[0, 0], [0, 0]], [[0, 0]]]}, "/m")
    assert err.value.pointer.startswith("/m/entries/1")


def test_canonical_json_shortest_round_trip():
    assert canonical_json({"x": 1.0 / 3.0}) == '{"x":0.3333333333333333}\n'
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})


# -- CLI verbs ----------------------------------------------------------------

def test_close_algebra_cmd(workdir, capsys):
    code, rep = _run(workdir, ["close-algebra", "--generators",
                               str(workdir / "gens.json"), "--include-adjoints"],
                     capsys)
    assert code == 0
    assert rep["result"]["dim"] == 4
    assert rep["result"]["star_closed"] is True


def test_order_norm_cmd(workdir, capsys):
    code, rep = _run(workdir, ["order-norm", "--cone", str(workdir / "std_cone.json"),
                               "--element", str(workdir / "elem.json")], capsys)
    assert code == 0
    assert rep["result"]["report"]["value"] == pytest.approx(3.0, abs=1e-7)


def test_check_cones_cmd(workdir, capsys):
    code, rep = _run(workdir, ["check-cones", "--cone",
                               str(workdir / "std_cone.json"),
                               "--samples", "10"], capsys)
    assert code == 0
    assert rep["result"]["passed"] is True
    assert {a["audit"] for a in rep["result"]["audits"]} == {
        "algebraically-admissible", "matrix-ordered", "star-admissible"}


def test_check_cones_validates_the_algebra_at_structure_tol(workdir, capsys):
    obj = algebra_to_obj(generate_algebra([E12], include_adjoints=True))
    for b in obj["basis"]:
        b["entries"] = [[[round(v, 6) for v in z] for z in row] for row in b["entries"]]
    (workdir / "m2_rounded.json").write_text(canonical_json(
        {"variant": "standard", "algebra": obj, "tol_psd": 1e-9}))
    args = ["check-cones", "--cone", str(workdir / "m2_rounded.json"), "--samples", "10"]
    code, rep = _run(workdir, args, capsys)
    assert code == 3
    assert rep["error"]["type"] == "MembershipError"
    code, rep = _run(workdir, args + ["--structure-tol", "1e-4"], capsys)
    assert code == 0
    assert rep["config"]["structure_tol"] == 1e-4
    assert rep["result"]["passed"] is True


def test_similarity_cmd(workdir, capsys):
    code, rep = _run(workdir, ["similarity", "--cone",
                               str(workdir / "sim_cone.json")], capsys)
    assert code == 0
    cert = rep["result"]["certificate"]
    assert np.sqrt(cert["cond"]) == pytest.approx(1 + np.sqrt(2), abs=1e-3)
    assert cert["cond"] <= np.linalg.cond(WORKED_S.conj().T @ WORKED_S) + 1e-6
    assert rep["result"]["sandwich_ok"] is True
    # Level 1 closes the worked sandwich, so the default ceiling N is not reached.
    assert rep["result"]["cb_level"] == 1


def test_kadison_demo_cmd(workdir, capsys):
    code, rep = _run(workdir, ["kadison-demo", "--algebra",
                               str(workdir / "span_e11.json"),
                               "--similarity", str(workdir / "S.json"),
                               "--samples", "12"], capsys)
    assert code == 0
    assert rep["result"]["passed"] is True
    assert rep["result"]["cb_level"] == 1


def test_check_cones_similarity_cmd(workdir, capsys):
    code, rep = _run(workdir, ["check-cones", "--cone",
                               str(workdir / "sim_cone.json"),
                               "--samples", "8", "--levels", "1,2"], capsys)
    assert code == 0
    assert rep["result"]["passed"] is True
    assert rep["result"]["constants"]["r1"] > 0


def test_order_norm_amplified_level(workdir, capsys, tmp_path):
    elem = tmp_path / "elem4.json"
    elem.write_text(canonical_json(matrix_to_obj(
        np.diag([3.0, -1.0, 0.5, 0.0]).astype(complex))))
    code, rep = _run(workdir, ["order-norm", "--cone",
                               str(workdir / "std_cone.json"),
                               "--element", str(elem), "--level", "2"], capsys)
    assert code == 0
    assert rep["result"]["report"]["value"] == pytest.approx(3.0, abs=1e-7)


def test_involution_cmd(workdir, capsys):
    code, rep = _run(workdir, ["involution", "--cone",
                               str(workdir / "sim_cone.json"),
                               "--levels", "1,2", "--samples", "8"], capsys)
    assert code == 0
    assert len(rep["result"]["images"]) == 2
    assert all(c["passed"] for c in rep["result"]["entrywise_comparisons"])
    assert [(c["level"], c["rank"], c["need"]) for c in rep["result"]["entrywise_comparisons"]] \
        == [(2, 8, 8)]


def test_involution_certifies_each_level_once(workdir, capsys, monkeypatch):
    verify = cli_mod.involution.verify_matrix_involution
    levels = []

    def counted(cone, n, *args, **kwargs):
        levels.append(n)
        return verify(cone, n, *args, **kwargs)

    monkeypatch.setattr(cli_mod.involution, "verify_matrix_involution", counted)
    code, rep = _run(workdir, ["involution", "--cone", str(workdir / "sim_cone.json"),
                               "--level", "2", "--levels", "1,2,3", "--samples", "8"], capsys)
    assert code == 0
    assert sorted(levels) == [2, 3]
    comparisons = rep["result"]["entrywise_comparisons"]
    assert [c["level"] for c in comparisons] == [2, 3]
    assert all(c["passed"] for c in comparisons)


def test_cached_parser_reports_match_fresh_interpreters(workdir, tmp_path):
    # Two subcommands back to back in one process share one parser; each
    # report must be byte-identical to a fresh interpreter's and to one
    # written after the cache is cleared.
    commands = {
        "check-cones": ["check-cones", "--cone", str(workdir / "std_cone.json"),
                        "--samples", "5", "--seed", "3"],
        "order-norm": ["order-norm", "--cone", str(workdir / "std_cone.json"),
                       "--element", str(workdir / "elem.json"), "--kind", "precstar"],
    }
    cli_mod._build_parser.cache_clear()
    for name, argv in commands.items():
        assert run(argv + ["--out", str(tmp_path / f"{name}.warm.json")]) == 0
    assert cli_mod._build_parser.cache_info().misses == 1
    src = os.path.dirname(os.path.dirname(cli_mod.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for name, argv in commands.items():
        cli_mod._build_parser.cache_clear()
        assert run(argv + ["--out", str(tmp_path / f"{name}.cleared.json")]) == 0
        subprocess.run([sys.executable, "-m", "matorder.cli", *argv,
                        "--out", str(tmp_path / f"{name}.fresh.json")], env=env, check=True)
        warm = (tmp_path / f"{name}.warm.json").read_bytes()
        assert warm == (tmp_path / f"{name}.cleared.json").read_bytes()
        assert warm == (tmp_path / f"{name}.fresh.json").read_bytes()


def test_cb_norm_cmd(workdir, capsys, tmp_path):
    m2 = generate_algebra([E12], include_adjoints=True)
    images = tmp_path / "transpose.json"
    images.write_text(canonical_json(
        [matrix_to_obj(b.T) for b in m2.basis]))
    code, rep = _run(workdir, ["cb-norm", "--algebra", str(workdir / "m2.json"),
                               "--images", str(images), "--level", "2"], capsys)
    assert code == 0
    assert rep["result"]["cb_lower_bound"] >= 2.0 - 1e-3


def test_c1_example_cmd(workdir, capsys):
    code, rep = _run(workdir, ["c1-example", "--samples", "50",
                               "--frequencies", "4,8"], capsys)
    assert code == 0
    assert rep["result"]["golden_ratio_norm"] == pytest.approx(
        (1 + np.sqrt(5)) / 2, abs=1e-10)


@pytest.mark.parametrize("flag,value,pointer", [
    ("--frequencies", "0", "/frequencies"),
    ("--frequencies", "4,-3", "/frequencies"),
    ("--grid-size", "0", "/grid-size"),
    ("--grid-size", "-5", "/grid-size"),
])
def test_c1_example_rejects_bad_sizes_with_a_schema_report(workdir, capsys, flag, value, pointer):
    code, rep = _run(workdir, ["c1-example", "--samples", "5", flag, value], capsys)
    assert code == 4 and "result" not in rep
    assert rep["error"]["type"] == "SchemaError" and rep["error"]["pointer"] == pointer


def test_c1_example_runs_on_a_one_point_grid(workdir, capsys):
    code, rep = _run(workdir, ["c1-example", "--samples", "5", "--grid-size", "1",
                               "--frequencies", "1"], capsys)
    assert code == 0 and rep["result"]["grid_size"] == 1


def test_c1_example_takes_no_svd(workdir, capsys, monkeypatch):
    # The 2x2 block norms of the embedding cross-check are closed form: a
    # LAPACK call per block (or per stack of blocks) fails here.
    svd, calls = np.linalg.svd, []

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    code, rep = _run(workdir, ["c1-example", "--grid-size", "64",
                               "--frequencies", "4,8,16,32", "--samples", "10"], capsys)
    assert code == 0 and rep["result"]["passed"]
    assert calls == []


def test_exit_code_typed_error(workdir, capsys):
    code, rep = _run(workdir, ["order-norm", "--cone",
                               str(workdir / "std_cone.json"),
                               "--element", str(workdir / "nonsa.json")], capsys)
    assert code == 3
    assert rep["error"]["type"] == "NotSelfAdjoint"


@pytest.fixture
def pullback_cone(tmp_path):
    path = tmp_path / "pullback.json"
    path.write_text(canonical_json({"variant": "pullback", "grid": [0, 0.5, 1]}))
    return path


@pytest.mark.parametrize("kind", ["seminorm", "precstar"])
def test_order_norm_on_a_pullback_cone_is_a_typed_error(workdir, capsys, tmp_path,
                                                        pullback_cone, kind):
    # The cone's elements are C1Samples, not the matrix the command reads.
    element = tmp_path / "one.json"
    element.write_text(canonical_json(matrix_to_obj(np.eye(1, dtype=complex))))
    code, rep = _run(workdir, ["order-norm", "--cone", str(pullback_cone),
                               "--element", str(element), "--kind", kind], capsys)
    assert code == 3
    assert rep["error"]["type"] == "MatOrderError"
    assert "C1Sample" in rep["error"]["message"]


def test_check_cones_on_a_pullback_cone_reports_its_level_one_constants(workdir, capsys,
                                                                        pullback_cone):
    code, rep = _run(workdir, ["check-cones", "--cone", str(pullback_cone),
                               "--samples", "8", "--seed", "3"], capsys)
    assert code == 0
    r1, alpha = estimate_main_constants(FunctionPullbackCone(np.array([0.0, 0.5, 1.0])),
                                        (1,), samples=8, seed=3)
    assert rep["result"] == {"cone": {"variant": "pullback", "tol_psd": 1e-9},
                             "constants": {"r1": r1.value, "alpha": alpha.value}}


@pytest.mark.parametrize("base, extra, pointer", [
    ("std_cone.json", {"S": matrix_to_obj(np.eye(2))}, "/S"),
    ("std_cone.json", {"grid": [0, 1]}, "/grid"),
    ("sim_cone.json", {"grid": [0, 1]}, "/grid"),
    ({"variant": "pullback", "grid": [0, 0.5, 1]}, {"algebra": "m2.json"}, "/algebra"),
    ({"variant": "pullback", "grid": [0, 0.5, 1]}, {"S": matrix_to_obj(np.eye(2))}, "/S"),
])
def test_a_cone_file_with_a_field_of_another_variant_exits_4(workdir, capsys, base, extra,
                                                            pointer):
    if isinstance(base, str):
        base = json.loads((workdir / base).read_text())
    path = workdir / "stray_cone.json"
    path.write_text(canonical_json(dict(base, **extra)))
    code, rep = _run(workdir, ["check-cones", "--cone", str(path), "--samples", "5"], capsys)
    assert code == 4 and "result" not in rep
    assert rep["error"]["type"] == "SchemaError" and rep["error"]["pointer"] == pointer


@pytest.mark.parametrize("path, extra, pointer", [
    ("std_cone.json", {"tol-psd": 1e-3}, "/tol-psd"),
    ("sim_cone.json", {"tolpsd": 1e-3}, "/tolpsd"),
    ("std_cone.json", {"a/b~c": 1}, "/a~1b~0c"),
    ("m2.json", {"starclosed": True}, "/algebra/starclosed"),
])
def test_a_file_with_an_unknown_key_exits_4_at_that_key(workdir, capsys, path, extra,
                                                        pointer):
    # Read as a default, a misspelled "tol-psd": 1e-3 would give tol_psd 1e-9.
    cone = json.loads((workdir / "std_cone.json").read_text())
    if path == "m2.json":
        cone["algebra"] = dict(json.loads((workdir / path).read_text()), **extra)
    else:
        cone = dict(json.loads((workdir / path).read_text()), **extra)
    (workdir / "unknown_key_cone.json").write_text(canonical_json(cone))
    code, rep = _run(workdir, ["check-cones", "--cone", str(workdir / "unknown_key_cone.json"),
                               "--samples", "5"], capsys)
    assert code == 4 and "result" not in rep
    assert rep["error"]["type"] == "SchemaError" and rep["error"]["pointer"] == pointer


def test_an_algebra_file_with_an_unknown_key_exits_4(workdir, tmp_path, capsys):
    obj = dict(json.loads((workdir / "m2.json").read_text()), unit=[1, 0])
    (tmp_path / "m2.json").write_text(canonical_json(obj))
    code, rep = _run(workdir, ["kadison-demo", "--algebra", str(tmp_path / "m2.json"),
                               "--similarity", str(workdir / "S.json")], capsys)
    assert code == 4 and rep["error"]["pointer"] == "/unit"


def test_every_benchmark_input_file_loads(tmp_path, monkeypatch):
    load_workloads(monkeypatch).build_cli_session(np.random.default_rng(0), 2, str(tmp_path))
    files = sorted(tmp_path.glob("*.json"))
    assert len(files) == 10
    for path in files:
        obj = json.loads(path.read_text())
        if path.name.endswith(".algebra.json"):
            algebra_from_obj(obj)
        elif path.name.endswith((".std.json", ".sim.json")):
            cone_from_obj(obj, base_dir=str(tmp_path))


def test_parser_defaults_are_the_run_config_and_library_defaults():
    args = cli_mod._build_parser().parse_args(["check-cones", "--cone", "c.json"])
    config = cli_mod.RunConfig()
    for name in ("seed", "samples", "tol_psd", "bisect_tol", "cert_tol", "structure_tol",
                 "out"):
        assert getattr(args, name) == getattr(config, name)
    assert args.levels == "1,2" and config.levels == (1, 2)
    assert (config.tol_psd, config.bisect_tol, config.cert_tol, config.structure_tol) == (
        DEFAULT_TOL_PSD, DEFAULT_BISECT_TOL, sim_mod.DEFAULT_CERT_TOL, DEFAULT_STRUCTURE_TOL)
    assert cone_from_obj({"variant": "pullback", "grid": [0, 1]}).tol_psd == DEFAULT_TOL_PSD


def test_exit_code_schema_error(workdir, capsys):
    code, rep = _run(workdir, ["order-norm", "--cone",
                               str(workdir / "std_cone.json"),
                               "--element", str(workdir / "gens.json")], capsys)
    assert code == 4
    assert rep["error"]["type"] == "SchemaError"


def test_exit_code_bad_flags(capsys):
    assert run(["no-such-command"]) == 4


def test_exit_code_bad_config(workdir, capsys):
    code, rep = _run(workdir, ["check-cones", "--cone",
                               str(workdir / "std_cone.json"),
                               "--samples", "0"], capsys)
    assert code == 4
    assert rep["error"]["pointer"] == "/config/samples"


def test_report_embeds_config(workdir, capsys):
    code, rep = _run(workdir, ["order-norm", "--cone",
                               str(workdir / "std_cone.json"),
                               "--element", str(workdir / "elem.json"),
                               "--seed", "7", "--samples", "3"], capsys)
    assert rep["config"]["seed"] == 7
    assert rep["config"]["samples"] == 3
    assert rep["config"]["levels"] == [1, 2]


def test_determinism_byte_identical(workdir, capsys):
    args = ["check-cones", "--cone", str(workdir / "std_cone.json"),
            "--samples", "8", "--seed", "5"]
    run(args + ["--out", str(workdir / "a.json")])
    run(args + ["--out", str(workdir / "b.json")])
    assert (workdir / "a.json").read_bytes() == (workdir / "b.json").read_bytes()


def test_audit_failure_exit_code(workdir, capsys, tmp_path):
    # A cone file over a non-star-closed algebra: the standard-cone audits
    # cannot run classically, which surfaces as a typed error (exit 3).
    worked = generate_algebra([WORKED_B])
    bad = tmp_path / "bad_cone.json"
    bad.write_text(canonical_json(
        {"variant": "standard", "algebra": algebra_to_obj(worked),
         "tol_psd": 1e-9}))
    code = run(["check-cones", "--cone", str(bad),
                "--out", str(tmp_path / "out.json")])
    assert code == 3


def test_audit_failure_maps_to_exit_2(workdir, tmp_path, monkeypatch):
    # Honest wire inputs describe admissible cones, so force a failing
    # verdict to check the exit-code wiring.
    import matorder.cli as cli_mod
    from matorder.cones import AxiomCheck, ConeAuditReport

    failing = ConeAuditReport("star-admissible", (1,), 1, 0,
                              [AxiomCheck("unit-in-C1", "fail", "forced")])
    monkeypatch.setattr(cli_mod.cones, "audit_star_admissible",
                        lambda *a, **k: failing)
    code = run(["check-cones", "--cone", str(workdir / "std_cone.json"),
                "--samples", "5", "--out", str(tmp_path / "out.json")])
    assert code == 2
    rep = json.loads((tmp_path / "out.json").read_text())
    assert rep["result"]["passed"] is False


# -- typed errors for levels and numeric schema fields --------------------------

@pytest.mark.parametrize("args", [
    ["order-norm", "--cone", "std_cone.json", "--element", "elem.json", "--level", "-1"],
    ["order-norm", "--cone", "std_cone.json", "--element", "elem.json", "--level", "0",
     "--kind", "precstar"],
    ["cb-norm", "--algebra", "m2.json", "--images", "images.json", "--level", "-1"],
    ["cb-norm", "--algebra", "m2.json", "--images", "images.json", "--level", "0"],
    ["involution", "--cone", "std_cone.json", "--level", "0"],
])
def test_level_below_one_is_a_schema_error(workdir, capsys, args):
    m2 = algebra_from_obj(json.loads((workdir / "m2.json").read_text()))
    (workdir / "images.json").write_text(canonical_json([matrix_to_obj(b) for b in m2.basis]))
    args = [str(workdir / a) if a.endswith(".json") else a for a in args]
    code, rep = _run(workdir, args, capsys)
    assert code == 4
    assert rep["error"]["pointer"] == "/level"


def test_involution_level_past_eight_fails_before_sampling(workdir, capsys, monkeypatch):
    # --level has the 1..8 range of --levels: nothing is drawn at level 9.
    def no_draw(self, n, k, rng):
        raise AssertionError("sampled past level 8")
    monkeypatch.setattr(StandardCone, "sample_many", no_draw)
    code, rep = _run(workdir, ["involution", "--cone", str(workdir / "std_cone.json"),
                               "--level", "9"], capsys)
    assert code == 4
    assert rep["error"]["pointer"] == "/level"


def test_one_max_level_caps_levels_and_the_involution_level(workdir, capsys, monkeypatch):
    # Both caps keep their messages at 8 and move together with MAX_LEVEL.
    assert cli_mod.MAX_LEVEL == 8
    cone = ["involution", "--cone", str(workdir / "std_cone.json")]
    for args, pointer, message in ((["--levels", "1,9"], "/config/levels",
                                    "levels must lie in 1..8"),
                                   (["--level", "9"], "/level", "must lie in 1..8")):
        code, rep = _run(workdir, cone + args, capsys)
        assert code == 4
        assert rep["error"] == {"type": "SchemaError", "pointer": pointer, "message": message}
    monkeypatch.setattr(cli_mod, "MAX_LEVEL", 2)
    with pytest.raises(SchemaError, match=r"levels must lie in 1\.\.2"):
        cli_mod.RunConfig(levels=(1, 3)).validate()
    cli_mod.RunConfig(levels=(1, 2)).validate()
    code, rep = _run(workdir, cone + ["--level", "3"], capsys)
    assert code == 4
    assert rep["error"]["message"] == "must lie in 1..2"


def test_involution_on_a_skewed_level_cone_fails_certification(workdir, capsys, monkeypatch):
    m2 = algebra_from_obj(json.loads((workdir / "m2.json").read_text()))
    monkeypatch.setattr(cli_mod, "_load_cone", lambda path, config: SkewedLevelCone(m2))
    code, rep = _run(workdir, ["involution", "--cone", str(workdir / "std_cone.json"),
                               "--level", "2"], capsys)
    assert code == 3
    assert rep["error"]["type"] == "CertificationFailed"


@pytest.mark.parametrize("flag", ["--tol-psd", "--bisect-tol", "--cert-tol", "--structure-tol"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_float_flags_must_be_finite_and_positive(workdir, capsys, flag, value):
    code, rep = _run(workdir, ["order-norm", "--cone", str(workdir / "std_cone.json"),
                               "--element", str(workdir / "elem.json"), flag, value], capsys)
    assert code == 4
    assert rep["error"]["type"] == "SchemaError"
    assert rep["error"]["pointer"] == "/config/" + flag[2:]


def test_a_bisect_tol_of_one_or_more_is_a_schema_error(workdir, capsys):
    # 1e200 ** 2 overflowed inside the order-norm search: a traceback, no report.
    for value in ("1e200", "1"):
        code, rep = _run(workdir, ["order-norm", "--cone", str(workdir / "std_cone.json"),
                                   "--element", str(workdir / "elem.json"),
                                   "--kind", "precstar", "--bisect-tol", value], capsys)
        assert code == 4
        assert rep["error"] == {"type": "SchemaError", "pointer": "/config/bisect-tol",
                                "message": "must be < 1"}


@pytest.mark.parametrize("levels", ["1,,2", "one", ""])
def test_malformed_levels_write_a_schema_report(workdir, capsys, levels):
    code, rep = _run(workdir, ["check-cones", "--cone", str(workdir / "std_cone.json"),
                               "--levels", levels], capsys)
    assert code == 4
    assert rep["error"] == {"type": "SchemaError", "pointer": "/config/levels",
                            "message": "must be a comma-separated list of integers"}


@pytest.mark.parametrize("obj, pointer", [
    ({"dim": True, "entries": [[[1, 0]]]}, "/dim"),
    ({"dim": 1.0, "entries": [[[1, 0]]]}, "/dim"),
    ({"dim": 1, "entries": [[[True, False]]]}, "/entries/0/0/0"),
    ({"dim": 1, "entries": [[[1, "0"]]]}, "/entries/0/0/1"),
    ({"dim": 1, "entries": [[[float("inf"), 0]]]}, "/entries/0/0/0"),
    ({"dim": 1, "entries": [[[1, None]]]}, "/entries/0/0/1"),
])
def test_matrix_numbers_must_be_finite_non_boolean(obj, pointer):
    with pytest.raises(SchemaError) as err:
        matrix_from_obj(obj)
    assert err.value.pointer == pointer


@pytest.mark.parametrize("patch, pointer", [
    ({"tol_psd": True}, "/tol_psd"),
    ({"tol_psd": float("nan")}, "/tol_psd"),
    ({"tol_psd": "1e-9"}, "/tol_psd"),
    ({"algebra": {"ambient_dim": True}}, "/algebra/ambient_dim"),
    ({"variant": "pullback", "grid": ["a", "b"]}, "/grid/0"),
    ({"variant": "pullback", "grid": [0, None, 1]}, "/grid/1"),
    ({"variant": "pullback", "grid": [0, float("inf")]}, "/grid/1"),
])
def test_cone_numbers_must_be_finite_non_boolean(m2_full, patch, pointer):
    obj = dict(cone_to_obj(StandardCone(m2_full)), **patch)
    with pytest.raises(SchemaError) as err:
        cone_from_obj(obj)
    assert err.value.pointer == pointer


def test_boolean_tol_psd_is_a_schema_error_not_a_norm(workdir, capsys, tmp_path):
    cone = tmp_path / "bool_tol.json"
    cone.write_text(json.dumps({"variant": "standard", "algebra": str(workdir / "m2.json"),
                                "tol_psd": True}))
    code, rep = _run(workdir, ["order-norm", "--cone", str(cone),
                               "--element", str(workdir / "elem.json")], capsys)
    assert code == 4
    assert rep["error"]["pointer"] == "/tol_psd"


def test_kadison_demo_passes_cert_tol_to_the_reconstruction(workdir, capsys):
    args = ["kadison-demo", "--algebra", str(workdir / "m2.json"),
            "--similarity", str(workdir / "S.json"), "--samples", "12"]
    code, rep = _run(workdir, args, capsys)
    assert code == 0 and rep["result"]["certificate"]["residual_star"] > 1e-30
    code, rep = _run(workdir, args + ["--cert-tol", "1e-30"], capsys)
    assert code == 3
    assert rep["error"]["type"] == "CertificationFailed"


def test_similarity_passes_samples_to_the_star_rep(workdir, capsys, monkeypatch):
    seen = []
    build = sim_mod.build_star_rep

    def spy(*args, **kwargs):
        seen.append(kwargs["samples"])
        return build(*args, **kwargs)

    monkeypatch.setattr(sim_mod, "build_star_rep", spy)
    code, _ = _run(workdir, ["similarity", "--cone", str(workdir / "sim_cone.json"),
                             "--samples", "5"], capsys)
    assert code == 0
    assert seen == [5]


@pytest.fixture(scope="module")
def tiny_s_inputs(workdir):
    """S = diag(1e-320, 1): finite, but LAPACK's S^-1 holds inf."""
    tiny = np.diag([1e-320, 1.0]).astype(complex)
    (workdir / "tiny_S.json").write_text(canonical_json(matrix_to_obj(tiny)))
    (workdir / "tiny_cone.json").write_text(canonical_json(
        {"variant": "similarity", "algebra": "m2.json", "S": matrix_to_obj(tiny),
         "tol_psd": 1e-9}))
    return workdir


@pytest.mark.parametrize("args", [
    ["check-cones", "--cone", "tiny_cone.json", "--samples", "4"],
    ["order-norm", "--cone", "tiny_cone.json", "--element", "elem.json"],
    ["kadison-demo", "--algebra", "m2.json", "--similarity", "tiny_S.json", "--samples", "4"],
], ids=lambda args: args[0])
def test_similarity_with_a_non_finite_inverse_exits_3(tiny_s_inputs, capsys, args):
    args = [str(tiny_s_inputs / a) if a.endswith(".json") else a for a in args]
    code, rep = _run(tiny_s_inputs, args, capsys)
    assert code == 3
    assert rep["error"] == {"type": "DimensionMismatch", "message": "similarity is singular"}


def test_cb_norm_with_the_wrong_number_of_images_exits_4(workdir, capsys, tmp_path):
    images = tmp_path / "one_image.json"
    images.write_text(canonical_json([matrix_to_obj(np.eye(2))]))
    code, rep = _run(workdir, ["cb-norm", "--algebra", str(workdir / "m2.json"),
                               "--images", str(images)], capsys)
    assert code == 4
    assert rep["error"]["type"] == "SchemaError"
    assert "4 matrices" in rep["error"]["message"]


def _no_ascent(*args, **kwargs):
    raise AssertionError("cb_lower_bound ran on inputs that fail their checks")


def test_cb_norm_with_images_of_mixed_sizes_exits_4_before_any_ascent(
        workdir, capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(sim_mod, "cb_lower_bound", _no_ascent)
    images = tmp_path / "mixed.json"
    images.write_text(canonical_json([matrix_to_obj(np.eye(n)) for n in (2, 2, 3, 2)]))
    code, rep = _run(workdir, ["cb-norm", "--algebra", str(workdir / "m2.json"),
                               "--images", str(images)], capsys)
    assert code == 4 and "result" not in rep
    assert rep["error"]["type"] == "SchemaError" and rep["error"]["pointer"] == "/2/dim"


@pytest.mark.parametrize("level", ["3", "9"])
def test_cb_norm_level_above_the_image_size_exits_4_before_any_ascent(
        workdir, capsys, tmp_path, monkeypatch, level):
    # Smith's lemma: a map into M_2 has its cb norm at level 2.
    monkeypatch.setattr(sim_mod, "cb_lower_bound", _no_ascent)
    m2 = algebra_from_obj(json.loads((workdir / "m2.json").read_text()))
    images = tmp_path / "identity.json"
    images.write_text(canonical_json([matrix_to_obj(b) for b in m2.basis]))
    code, rep = _run(workdir, ["cb-norm", "--algebra", str(workdir / "m2.json"),
                               "--images", str(images), "--level", level], capsys)
    assert code == 4 and "result" not in rep
    assert rep["error"]["type"] == "SchemaError" and rep["error"]["pointer"] == "/level"


def test_similarity_reads_the_source_algebra_from_its_own_file(workdir, capsys, tmp_path):
    cone = json.loads((workdir / "sim_cone.json").read_text())
    source = tmp_path / "worked.json"
    source.write_text(canonical_json(cone["algebra"]))
    args = ["similarity", "--cone", str(workdir / "sim_cone.json"), "--samples", "5"]
    code, plain = _run(workdir, args, capsys)
    assert code == 0
    code, given = _run(workdir, args + ["--algebra", str(source)], capsys)
    assert code == 0
    assert given["result"] == plain["result"]


def test_similarities_are_inverted_only_by_the_checked_pair(workdir, capsys, monkeypatch):
    # Every S^-1 comes from algebra._frame, once per distinct S in a task (the
    # frame is carried from the cone to the certificate); the barrier's inverse
    # Cholesky factors are the one other inversion in the package.
    callers, frames = [], []
    inv = np.linalg.inv

    def recording(*args, **kwargs):
        frame = sys._getframe(1)
        callers.append((frame.f_globals.get("__name__"), frame.f_code.co_name))
        if callers[-1] == ("matorder.algebra", "_frame"):
            frames.append(np.asarray(args[0]).tobytes())
        return inv(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "inv", recording)
    for args, distinct in (
            (["check-cones", "--cone", str(workdir / "sim_cone.json"), "--samples", "4"], 1),
            (["similarity", "--cone", str(workdir / "sim_cone.json"), "--samples", "4"], 2),
            (["kadison-demo", "--algebra", str(workdir / "m2.json"),
              "--similarity", str(workdir / "S.json"), "--samples", "4"], 3)):
        callers.clear()
        frames.clear()
        code, _ = _run(workdir, args, capsys)
        assert code in (0, 2)
        assert set(callers) <= {("matorder.algebra", "_frame"),
                                ("matorder.similarity", "inverse_factors")}
        assert len(set(frames)) == distinct
        assert len(frames) == distinct, f"{args[0]}: {len(frames)} inversions of {distinct} S"


# -- the report writer against the 17-digit writer it replaced ------------------

REPORTS = {
    "close-algebra": ["close-algebra", "--generators", "gens.json", "--include-adjoints"],
    "check-cones": ["check-cones", "--cone", "std_cone.json", "--samples", "8", "--seed", "5"],
    "check-cones-similarity": ["check-cones", "--cone", "sim_cone.json", "--samples", "8"],
    "check-cones-pullback": ["check-cones", "--cone", "pullback.json", "--samples", "8"],
    "order-norm": ["order-norm", "--cone", "std_cone.json", "--element", "elem.json"],
    "order-norm-precstar": ["order-norm", "--cone", "sim_cone.json", "--element", "elem.json",
                            "--kind", "precstar", "--level", "2"],
    "involution": ["involution", "--cone", "sim_cone.json", "--levels", "1,2,3",
                   "--samples", "8", "--level", "2"],
    "similarity": ["similarity", "--cone", "sim_cone.json", "--samples", "5"],
    "cb-norm": ["cb-norm", "--algebra", "m2.json", "--images", "transpose.json", "--level", "2"],
    "kadison-demo": ["kadison-demo", "--algebra", "span_e11.json", "--similarity", "S.json",
                     "--samples", "12"],
    "kadison-demo-m2": ["kadison-demo", "--algebra", "m2.json", "--similarity", "S.json",
                        "--samples", "6"],
    "c1-example": ["c1-example", "--samples", "20", "--frequencies", "4,8", "--grid-size", "16"],
    "typed-error": ["order-norm", "--cone", "std_cone.json", "--element", "nonsa.json"],
    "schema-error": ["check-cones", "--cone", "std_cone.json", "--levels", "0"],
}


@pytest.mark.parametrize("argv", list(REPORTS.values()), ids=list(REPORTS))
def test_reports_decode_as_the_17_digit_writers(workdir, capsys, monkeypatch, argv):
    m2 = generate_algebra([E12], include_adjoints=True)
    (workdir / "transpose.json").write_text(canonical_json([b.T for b in m2.basis]))
    (workdir / "pullback.json").write_text(canonical_json(
        {"variant": "pullback", "grid": [0, 0.25, 1]}))
    argv = [str(workdir / a) if a.endswith(".json") else a for a in argv]
    code, report = _run(workdir, argv, capsys)
    monkeypatch.setattr(cli_mod, "canonical_json", canonical_json_17g)
    monkeypatch.setattr(cli_mod, "audit_to_obj", audit_to_obj_17g)
    assert _run(workdir, argv, capsys) == (code, report)


# -- a claimed star-closure is checked against the basis ------------------------

def _claiming(algebra, star_closed):
    obj = algebra_to_obj(algebra)
    obj["star_closed"] = star_closed
    return obj


def test_an_m3_file_that_says_not_star_closed_is_a_schema_error(workdir, capsys, tmp_path):
    # M_3 is star-closed: the file's false is refused on load, before the
    # audits or the doubling could raise SourceNotStarClosed (exit 3) on it.
    m3 = generate_algebra([np.diag([1.0, 2.0, 3.0]), np.roll(np.eye(3), 1, axis=0)],
                          include_adjoints=True)
    assert m3.dim == 9 and m3.star_closed
    (tmp_path / "m3.json").write_text(canonical_json(_claiming(m3, False)))
    (tmp_path / "cone.json").write_text(canonical_json(
        {"variant": "standard", "algebra": "m3.json", "tol_psd": 1e-9}))
    (tmp_path / "S.json").write_text(canonical_json(matrix_to_obj(np.eye(3))))
    for args, pointer in (
            (["check-cones", "--cone", str(tmp_path / "cone.json")], "/algebra/star_closed"),
            (["kadison-demo", "--algebra", str(tmp_path / "m3.json"),
              "--similarity", str(tmp_path / "S.json")], "/star_closed")):
        code, rep = _run(workdir, args + ["--samples", "5"], capsys)
        assert code == 4
        assert rep["error"]["type"] == "SchemaError"
        assert rep["error"]["pointer"] == pointer
        assert "star_closed = True" in rep["error"]["message"]


def test_a_t2_file_that_says_star_closed_is_a_schema_error(workdir, capsys, tmp_path):
    # span{I, E12} is an algebra whose adjoint E21 leaves it: the file's true is
    # refused on load, before the audits could meet E21 (MembershipError, exit 3).
    t2 = generate_algebra([E12])
    assert t2.dim == 2 and not t2.star_closed
    (tmp_path / "cone.json").write_text(canonical_json(
        {"variant": "standard", "algebra": _claiming(t2, True), "tol_psd": 1e-9}))
    code, rep = _run(workdir, ["check-cones", "--cone", str(tmp_path / "cone.json"),
                               "--samples", "5"], capsys)
    assert code == 4
    assert rep["error"]["type"] == "SchemaError"
    assert rep["error"]["pointer"] == "/algebra/star_closed"
    assert "star_closed = False" in rep["error"]["message"]
    with pytest.raises(SchemaError) as err:
        algebra_from_obj(_claiming(t2, True), "/a")
    assert err.value.pointer == "/a/star_closed"


def test_similarity_with_an_algebra_outside_the_cones_names_it(workdir, capsys, tmp_path):
    (tmp_path / "cone.json").write_text(canonical_json(cone_to_obj(_diagonal_cone())))
    (tmp_path / "rotated.json").write_text(canonical_json(
        algebra_to_obj(_rotated_commutative_algebra())))
    code, rep = _run(workdir, ["similarity", "--cone", str(tmp_path / "cone.json"),
                               "--algebra", str(tmp_path / "rotated.json"), "--samples", "5"],
                     capsys)
    assert code == 3
    assert rep["error"]["type"] == "MembershipError"


# -- CLI paths of the schema-error exit ----------------------------------------

def test_out_into_a_missing_directory_writes_one_line_to_stderr(workdir, capsys):
    out = workdir / "no-such-dir" / "out.json"
    code = run(["close-algebra", "--generators", str(workdir / "gens.json"), "--out", str(out)])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"cannot write {out}: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert not out.parent.exists()


def test_close_algebra_on_an_empty_list_is_a_schema_error(workdir, capsys, tmp_path):
    (tmp_path / "empty.json").write_text("[]")
    code, rep = _run(workdir, ["close-algebra", "--generators", str(tmp_path / "empty.json")],
                     capsys)
    assert code == 4
    assert rep["error"]["type"] == "SchemaError"
    assert rep["error"]["pointer"] == ""


def test_a_seed_past_64_bits_is_a_schema_error(workdir, capsys):
    code, rep = _run(workdir, ["close-algebra", "--generators", str(workdir / "gens.json"),
                               "--seed", str(2 ** 64)], capsys)
    assert code == 4
    assert rep["error"]["pointer"] == "/config/seed"
    assert "config" not in rep
