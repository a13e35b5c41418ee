import json
import random
import time

import pytest

from covjac.cli import main

TRIANGLE = {"vertices": 3, "edges": [{"u": 0, "v": 1}, {"u": 1, "v": 2}, {"u": 2, "v": 0}]}
THETA = {"vertices": 2, "edges": [{"u": 0, "v": 1}, {"u": 1, "v": 1}, {"u": 0, "v": 1}]}

C3_COVER = {"graph": TRIANGLE, "group": {"orders": [3]},
            "voltages": [[1], [0], [0]]}
KLEIN_COVER = {"graph": THETA, "group": {"orders": [2, 2]},
               "voltages": [[1, 1], [1, 0], [0, 0]]}
DISCONNECTED_COVER = {"graph": THETA, "group": {"orders": [2, 2]},
                      "voltages": [[0, 1], [1, 0], [1, 1]]}
TOWER = {"graph": {"vertices": 1, "edges": [{"u": 0, "v": 0}, {"u": 0, "v": 0}]},
         "prime": 2, "voltages": [1, 0]}
KIDA = {"graph": {"vertices": 1, "edges": [{"u": 0, "v": 0}, {"u": 0, "v": 0}]},
        "prime": 2, "voltages": [0, 1],
        "kida": {"orders": [2], "voltages": [[1], [0]]}}


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_jacobian_report(tmp_path, capsys):
    path = write(tmp_path, "g.json", TRIANGLE)
    code, out, err = run(capsys, ["jacobian", path])
    assert code == 0
    assert json.loads(out) == {"invariant_factors": [3], "trees": 3}
    assert err.strip() == "OK"


def test_derive_report(tmp_path, capsys):
    path = write(tmp_path, "c.json", C3_COVER)
    code, out, err = run(capsys, ["derive", path])
    assert code == 0
    rep = json.loads(out)
    assert rep["base_vertices"] == 3
    assert rep["group_order"] == 3
    assert rep["connected"] is True
    assert rep["cover"]["vertices"] == 9


def test_derive_deep_tree(tmp_path, capsys):
    # a 1500-vertex path with a loop at its far end, C2 voltages
    n = 1500
    edges = [{"u": v, "v": v + 1} for v in range(n - 1)] + [{"u": n - 1, "v": n - 1}]
    cover = {"graph": {"vertices": n, "edges": edges}, "group": {"orders": [2]},
             "voltages": [[0]] * (n - 1) + [[1]]}
    path = write(tmp_path, "path.json", cover)
    code, out, err = run(capsys, ["derive", path])
    assert code == 0, err
    rep = json.loads(out)
    assert rep["connected"] is True
    assert rep["cover"]["vertices"] == 2 * n


def test_verify_main_pass(tmp_path, capsys):
    path = write(tmp_path, "c.json", C3_COVER)
    code, out, err = run(capsys, ["verify-main", path])
    assert code == 0
    assert json.loads(out)["passed"] is True
    assert err.strip() == "PASS"


def test_verify_duality_counterexample_fails(tmp_path, capsys):
    path = write(tmp_path, "k.json", KLEIN_COVER)
    code, out, err = run(capsys, ["verify-duality", path])
    assert code == 1
    rep = json.loads(out)
    assert rep["passed"] is False
    assert rep["details"]["quotient_fitting_matches"] is False
    assert rep["details"]["kernel_fitting_matches"] is True
    assert err.strip() == "FAIL"


def test_verify_norm_pass(tmp_path, capsys):
    path = write(tmp_path, "k.json", KLEIN_COVER)
    code, out, err = run(capsys, ["verify-norm", path])
    assert code == 0
    assert err.strip() == "PASS"


def test_malformed_input_exit_two(tmp_path, capsys):
    path = write(tmp_path, "bad.json", {"nope": 1})
    code, _, err = run(capsys, ["jacobian", path])
    assert code == 2
    assert "bad input" in err
    # unreadable file
    code, _, _ = run(capsys, ["jacobian", str(tmp_path / "missing.json")])
    assert code == 2
    # disconnected cover
    path = write(tmp_path, "disc.json", DISCONNECTED_COVER)
    code, _, _ = run(capsys, ["verify-main", path])
    assert code == 2


def test_resource_cap_exit_three(tmp_path, capsys):
    path = write(tmp_path, "c.json", C3_COVER)
    code, _, err = run(capsys, ["zeta", path, "--truncate", "13"])
    assert code == 3
    assert "resource cap" in err


def test_zeta_dense_base_exit_three(tmp_path, capsys):
    # complete graph on 18 vertices, random C3 voltages: the 18 x 18
    # three-term determinant would hold far more partial minors than the
    # engine's budget, and the CLI stops at the budget
    rng = random.Random(18)
    edges = [{"u": i, "v": j} for i in range(18) for j in range(i + 1, 18)]
    cover = {"graph": {"vertices": 18, "edges": edges}, "group": {"orders": [3]},
             "voltages": [[rng.randrange(3)] for _ in edges]}
    path = write(tmp_path, "k18.json", cover)
    t0 = time.time()
    code, out, err = run(capsys, ["zeta", path])
    assert code == 3
    assert out == ""
    assert "partial minors" in err
    assert time.time() - t0 < 60


def test_kida_window_too_short_exits_2(tmp_path, capsys):
    # the lifted tower has lambda = 29; a stable fit needs layers up to
    # n = 5 (1458 vertices), beyond the 600-vertex default window
    tower = {"graph": {"vertices": 2, "edges": [{"u": 0, "v": 1}, {"u": 1, "v": 0},
                                                {"u": 0, "v": 0}]},
             "prime": 3, "voltages": [1, -2, -8],
             "kida": {"orders": [3], "voltages": [[0], [2], [0]]}}
    path = write(tmp_path, "k.json", tower)
    t0 = time.time()
    code, out, err = run(capsys, ["kida", path])
    assert code == 2
    assert out == ""
    assert "lambda = 29" in err and "n = 5" in err
    assert time.time() - t0 < 30


def test_zeta_pass(tmp_path, capsys):
    path = write(tmp_path, "c.json", C3_COVER)
    code, out, err = run(capsys, ["zeta", path, "--truncate", "6"])
    assert code == 0
    rep = json.loads(out)
    assert rep["truncation"] == 6
    assert rep["passed"] is True


def test_fitt_shift(capsys):
    code, out, _ = run(capsys, ["fitt-shift", "--orders", "2,2"])
    assert code == 0
    rep = json.loads(out)
    assert rep["orders"] == [2, 2]
    assert rep["match"] is True
    code, _, err = run(capsys, ["fitt-shift", "--orders", "2,x"])
    assert code == 2


def test_iwasawa_cli(tmp_path, capsys):
    path = write(tmp_path, "t.json", TOWER)
    code, out, _ = run(capsys, ["iwasawa", path, "--layers", "4"])
    assert code == 0
    rep = json.loads(out)
    assert rep["fitted"] == {"lambda": 1, "mu": 0, "nu": 0, "n0": 0}
    # -p overrides the prime in the file
    code, out, _ = run(capsys, ["iwasawa", path, "-p", "3", "--layers", "4"])
    assert code == 0
    assert json.loads(out)["prime"] == 3
    # missing prime entirely
    bare = dict(TOWER)
    del bare["prime"]
    path2 = write(tmp_path, "bare.json", bare)
    code, _, _ = run(capsys, ["iwasawa", path2])
    assert code == 2


def test_iwasawa_short_window_exits_2(tmp_path, capsys):
    # layers 0..2 are too few to fit: bad input, not a failed verification
    path = write(tmp_path, "t.json", TOWER)
    code, out, err = run(capsys, ["iwasawa", path, "--layers", "2"])
    assert code == 2
    assert out == ""
    assert "four layers" in err
    path = write(tmp_path, "k.json", KIDA)
    code, out, err = run(capsys, ["kida", path, "--layers", "2"])
    assert code == 2
    assert out == ""


def test_iwasawa_huge_prime_exits_2(tmp_path, capsys):
    # 2^61 - 1 is prime but past the deterministic Miller-Rabin range;
    # trial division once ran for minutes on it
    path = write(tmp_path, "t.json", dict(TOWER, prime=2**61 - 1))
    t0 = time.time()
    code, out, err = run(capsys, ["iwasawa", path])
    assert code == 2
    assert out == ""
    assert "deterministic primality range" in err
    assert time.time() - t0 < 10


def test_iwasawa_cap_truncated_window_exits_3(tmp_path, capsys):
    # at p = 601 layer 1 already exceeds the 600-vertex cap: the tower is
    # valid, but the cap leaves too few layers to fit
    path = write(tmp_path, "t.json", dict(TOWER, prime=601))
    t0 = time.time()
    code, out, err = run(capsys, ["iwasawa", path, "--layers", "3"])
    assert code == 3
    assert out == ""
    assert "resource cap" in err and "vertex cap 600" in err
    assert time.time() - t0 < 10


def test_kida_lifted_tower_486_vertices(tmp_path, capsys):
    # the lifted p = 3 tower on a 2-vertex base reaches layers of 486
    # vertices, so its layer determinants run through the banded CRT
    tower = {"graph": THETA, "prime": 3, "voltages": [2, -9, 1],
             "kida": {"orders": [3], "voltages": [[1], [1], [1]]}}
    path = write(tmp_path, "k.json", tower)
    t0 = time.time()
    code, out, _ = run(capsys, ["kida", path])
    assert code == 0
    rep = json.loads(out)
    assert rep["lambda_relation"] is True
    assert rep["lifted"]["instance"]["graph"]["vertices"] == 6
    # layers 0..4, the last with 6 * 81 = 486 vertices
    assert len(rep["lifted"]["layer_valuations"]) == 5
    assert time.time() - t0 < 60


def test_kida_cli(tmp_path, capsys):
    path = write(tmp_path, "k.json", KIDA)
    code, out, err = run(capsys, ["kida", path])
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"] is True
    assert rep["lambda_relation"] is True


def test_selftest_cyclic(capsys):
    code, out, _ = run(capsys, ["selftest", "--seed", "3", "--cases", "2",
                                "--orders", "3"])
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"] is True
    assert rep["groups"] == [[3]]
    assert rep["cases"] == 2 * 3


def test_out_file_byte_identical(tmp_path, capsys):
    path = write(tmp_path, "c.json", C3_COVER)
    out1 = str(tmp_path / "r1.json")
    out2 = str(tmp_path / "r2.json")
    run(capsys, ["verify-main", path, "--out", out1])
    run(capsys, ["verify-main", path, "--out", out2])
    b1 = open(out1, "rb").read()
    b2 = open(out2, "rb").read()
    assert b1 == b2 and b1
    # the file holds the same JSON that went to stdout
    code, out, _ = run(capsys, ["verify-main", path])
    assert out.strip() == b1.decode().strip()
