import errno
import hashlib
import json
import os
import shlex
import subprocess
import sys

import pytest

from bentkit import (
    BooleanFunction,
    PermutationMap,
    mm_function,
    parse_truth_table,
    serialize_truth_table,
    walsh_transform,
)
from bentkit.rand import (
    XorShift64Star,
    random_balanced,
    random_function,
    random_mm_bent,
    random_mm_bent_triple,
)

MM4 = mm_function(PermutationMap.identity(2), BooleanFunction.zero(2))


def run(*args, expect=0):
    proc = subprocess.run(
        [sys.executable, "-m", "bentkit", *map(str, args)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == expect, (proc.returncode, proc.stdout, proc.stderr)
    return proc


def put(tmp_path, name, f):
    p = tmp_path / name
    p.write_text(serialize_truth_table(f))
    return p


def test_analyze_bent_file(tmp_path):
    p = put(tmp_path, "f.tt", MM4)
    out = json.loads(run("analyze", p).stdout)
    assert out["bent"] is True
    assert out["nonlinearity"] == 6


def test_analyze_resilient_parity(tmp_path):
    p = put(tmp_path, "f.tt", BooleanFunction.linear(3, 0b111))
    out = json.loads(run("analyze", p).stdout)
    assert out["resiliency"] == 2


# sha256 of the whole `analyze` report, with the resiliency and the
# Sarkar-Maitra bound it states; the bound's key is there only for
# 0 <= resiliency <= n - 2
ANALYZE_CASES = {
    "mm-bent": (lambda: MM4, -1, None,
                "2ee9965f561407cf51520cf524cdd35ee6b563147cadb84b3f285d5384a4f5e4"),
    "balanced": (lambda: random_balanced(7, XorShift64Star(5)), 0, 58,
                 "a4eaec1c6d654786a75dd8eaed8e23b59b44b341aae331f388acb6c51881a9c5"),
    "linear-8": (lambda: BooleanFunction.linear(8, 0b11000000), 1, 116,
                 "32b0c3baa44624acb74355bac996ab5e7a058a30cf602d958bec4d7f1d2b78ef"),
    "all-ones-6": (lambda: BooleanFunction.linear(6, 0b111111), 5, None,
                   "de63bff8680822989aeae9e277ee9a0a76cb47d5824a557a5af15fcdc06d0e60"),
}


@pytest.mark.parametrize("case", sorted(ANALYZE_CASES))
def test_analyze_report_bytes_are_pinned(tmp_path, case):
    make, resiliency, bound, want = ANALYZE_CASES[case]
    proc = run("analyze", put(tmp_path, "f.tt", make()))
    report = json.loads(proc.stdout)
    assert (report["resiliency"], report.get("sarkar_maitra_bound")) == (resiliency, bound)
    assert ("sarkar_maitra_bound" in report) == (bound is not None)
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == want


def test_analyze_malformed_exits_2(tmp_path):
    p = tmp_path / "bad.tt"
    p.write_text("n=2\nbits=zz\n")
    proc = run("analyze", p, expect=2)
    assert "error" in proc.stderr


def test_analyze_profile_breaking_its_bounds_exits_1(tmp_path, monkeypatch, capsys):
    from bentkit import analysis, cli

    # caps that x1*x2 (nonlinearity 1, degree 2) breaks
    monkeypatch.setattr(analysis, "bounds_report",
                        lambda n, res: analysis.BoundsReport(n, res, n, 0))
    p = tmp_path / "f.tt"
    p.write_text("n=2\nbits=1\n")
    assert cli.main(["analyze", str(p)]) == 1
    std = capsys.readouterr()
    assert std.out == ""
    assert std.err.startswith("error: nonlinearity 1 and degree 2 break the caps ")
    assert std.err.count("\n") == 1


def test_wht_and_anf(tmp_path):
    p = put(tmp_path, "f.tt", BooleanFunction(2, [0, 0, 0, 1]))
    out = json.loads(run("wht", p).stdout)
    assert out["values"] == [2, 2, 2, -2]
    out = json.loads(run("anf", p).stdout)
    assert out["monomials"] == ["x1*x2"]
    assert out["degree"] == 2
    f = random_function(10, XorShift64Star(10))
    out = json.loads(run("wht", put(tmp_path, "g.tt", f)).stdout)
    assert out["values"] == walsh_transform(f).values.tolist()


@pytest.mark.parametrize("n", [1, 3, 17])  # 17: two chunks of 2^16 values
def test_wht_report_is_the_indented_json(tmp_path, capsys, n):
    from bentkit import cli

    f = random_function(n, XorShift64Star(n))
    assert cli.main(["wht", str(put(tmp_path, "f.tt", f))]) == 0
    want = {"n": n, "values": walsh_transform(f).values.tolist()}
    assert capsys.readouterr().out == json.dumps(want, indent=2) + "\n"


def test_dual_round_trip(tmp_path):
    p = put(tmp_path, "f.tt", MM4)
    o = tmp_path / "dual.tt"
    run("dual", p, "-o", o)
    assert parse_truth_table(o.read_text()) == MM4  # self-dual
    lin = put(tmp_path, "lin.tt", BooleanFunction.linear(4, 3))
    run("dual", lin, expect=3)


def test_verify_commands(tmp_path):
    p = put(tmp_path, "f.tt", random_function(8, XorShift64Star(5)))
    for prop in ("walsh", "nonlinearity", "resiliency", "bent"):
        out = json.loads(run("verify", "--property", prop, p).stdout)
        assert out["agreed"] is True
    affine = put(tmp_path, "aff.tt", BooleanFunction.linear(6, 0b111000, 1))
    out = json.loads(run("verify", "--property", "bent", affine).stdout)
    assert out["agreed"] is True  # both sides agree it is not bent
    big = put(tmp_path, "big.tt", random_function(20, XorShift64Star(6)))
    run("verify", "--property", "nonlinearity", big, expect=4)


def test_verify_above_the_cap_exits_4_except_bent_on_odd_n(tmp_path):
    # no function on an odd number of variables is bent, so the bent
    # oracle answers odd n from n alone, above the cap too
    from bentkit.oracle import CAP

    p = put(tmp_path, "f.tt", random_function(CAP + 1, XorShift64Star(7)))
    for prop in ("walsh", "nonlinearity", "resiliency"):
        proc = run("verify", "--property", prop, p, expect=4)
        assert f"capped at n={CAP}" in proc.stderr
    assert json.loads(run("verify", "--property", "bent", p).stdout)["agreed"] is True


def test_build_restricted_indirect_sum_certifies(tmp_path):
    f = put(tmp_path, "f.tt", MM4)
    o = tmp_path / "h.tt"
    proc = run(
        "build", "restricted-indirect-sum",
        "--f", f, "--mu", 4, "--g", f, "--rho", 4, "--variant", "00", "-o", o,
    )
    summary = json.loads(proc.stdout)
    assert summary["verified"]["bent"] is True
    assert summary["n"] == 6
    # round-trip stability: the written file re-certifies identically
    again = json.loads(run("analyze", o).stdout)
    assert again["bent"] is True and again["nonlinearity"] == 28


def test_build_direct_sum_formula(tmp_path):
    f = put(tmp_path, "f.tt", MM4)
    proc = run("build", "direct-sum", "--f", f, "--g", f, "-o", tmp_path / "o.tt")
    summary = json.loads(proc.stdout)
    assert summary["verified"]["nonlinearity"] == 120
    assert summary["verified"]["nonlinearity_formula"] == 120


def test_build_rothaus_premise_failure_exit_3(tmp_path):
    rng = XorShift64Star(15)
    f1, f2, _ = random_mm_bent_triple(4, rng)
    bad = f1 ^ f2 ^ BooleanFunction.variable(4, 2)  # XOR with f1, f2 not bent
    p1, p2, p3 = (put(tmp_path, n, f) for n, f in
                  [("a.tt", f1), ("b.tt", f2), ("c.tt", bad)])
    proc = run(
        "build", "rothaus", "--f1", p1, "--f2", p2, "--f3", p3,
        "-o", tmp_path / "x.tt", expect=3,
    )
    assert "bent" in proc.stderr


def test_build_mm_seeded_determinism(tmp_path):
    param = tmp_path / "p.json"
    param.write_text(json.dumps({"phi": "random", "k": 3, "u": "random"}))
    o1, o2, o3 = (tmp_path / x for x in ("a.tt", "b.tt", "c.tt"))
    run("build", "mm", "--param-file", param, "--seed", 42, "-o", o1)
    run("build", "mm", "--param-file", param, "--seed", 42, "-o", o2)
    run("build", "mm", "--param-file", param, "--seed", 43, "-o", o3)
    assert o1.read_bytes() == o2.read_bytes()
    assert o1.read_bytes() != o3.read_bytes()


def test_build_psap_draws_theta_from_the_seed(tmp_path):
    param = put_json(tmp_path, {"m": 3})
    o1, o2, o3 = (tmp_path / x for x in ("a.tt", "b.tt", "c.tt"))
    run("build", "psap", "--param-file", param, "--seed", 5, "-o", o1)
    run("build", "psap", "--param-file", param, "--seed", 5, "-o", o2)
    run("build", "psap", "--param-file", param, "--seed", 6, "-o", o3)
    assert o1.read_bytes() == o2.read_bytes()
    assert o1.read_bytes() != o3.read_bytes()


def test_build_psap_and_class_d(tmp_path):
    param = tmp_path / "p.json"
    param.write_text(json.dumps({"m": 3, "theta": [0, 0, 1, 1, 0, 1, 0, 1]}))
    proc = run("build", "psap", "--param-file", param, "-o", tmp_path / "f.tt")
    assert json.loads(proc.stdout)["verified"]["bent"] is True

    param.write_text(json.dumps({"k": 3, "phi": "random", "e2": [5], "e1": "auto"}))
    proc = run(
        "build", "class-d", "--param-file", param, "--seed", 7,
        "-o", tmp_path / "g.tt",
    )
    out = json.loads(proc.stdout)
    assert out["verified"]["bent"] is True and out["n"] == 6

    # k is read only to draw phi, so an image list needs none
    param.write_text(json.dumps({"phi": [0, 1, 3, 2]}))
    proc = run("build", "class-d", "--param-file", param, "-o", tmp_path / "d.tt")
    out = json.loads(proc.stdout)
    assert out["verified"]["bent"] is True and out["n"] == 4


def test_build_resilient_pair_certificate(tmp_path):
    rng = XorShift64Star(100)
    from bentkit.rand import random_derivative_triple, random_permutation

    triple, _ = random_derivative_triple(6, rng)
    heavy = [v for v in range(32) if bin(v).count("1") >= 2]
    rng.shuffle(heavy)
    p = mm_function(PermutationMap(heavy[:8], r=5), random_function(3, rng))
    rng.shuffle(heavy)
    q = mm_function(PermutationMap(heavy[:8], r=5), random_function(3, rng))
    paths = {}
    for name, f in [("f1", triple.f1), ("f2", triple.f2), ("f3", triple.f3),
                    ("p", p), ("q", q)]:
        paths[name] = put(tmp_path, name + ".tt", f)
    proc = run(
        "build", "resilient-indirect-sum-pair",
        "--f1", paths["f1"], "--f2", paths["f2"], "--f3", paths["f3"],
        "--p", paths["p"], "--q", paths["q"], "--i", 1, "--k", 1,
        "-o", tmp_path / "h.tt",
    )
    out = json.loads(proc.stdout)
    assert out["verified"]["resiliency"] == 1
    assert out["certificate"]["nonlinearity"] == out["certificate"]["nonlinearity_bound"]
    del random_permutation


def test_build_generalized_modes(tmp_path):
    rng = XorShift64Star(33)
    from bentkit.rand import random_resilient_triple

    fs = random_resilient_triple(3, 0, rng)
    gs = random_resilient_triple(3, 0, rng)
    paths = [put(tmp_path, f"t{i}.tt", f) for i, f in enumerate([*fs, *gs])]
    proc = run(
        "build", "generalized-indirect-sum",
        "--f1", paths[0], "--f2", paths[1], "--f3", paths[2],
        "--g1", paths[3], "--g2", paths[4], "--g3", paths[5],
        "--mode", "resilient", "--t", 0, "--k", 0,
        "-o", tmp_path / "h.tt",
    )
    out = json.loads(proc.stdout)
    assert out["verified"]["resiliency"] >= 1


def test_build_remaining_constructions(tmp_path):
    rng = XorShift64Star(77)
    f1, f2, f3 = random_mm_bent_triple(4, rng)
    g1, g2, g3 = random_mm_bent_triple(4, rng)
    paths = {}
    for name, f in [("f1", f1), ("f2", f2), ("f3", f3),
                    ("g1", g1), ("g2", g2), ("g3", g3)]:
        paths[name] = put(tmp_path, name + ".tt", f)

    proc = run("build", "indirect-sum", "--f1", paths["f1"], "--f2", paths["f2"],
               "--g1", paths["g1"], "--g2", paths["g2"], "-o", tmp_path / "i.tt")
    assert json.loads(proc.stdout)["verified"]["bent"] is True

    proc = run("build", "rothaus-restricted-sum",
               "--f1", paths["f1"], "--f2", paths["f2"], "--f3", paths["f3"],
               "--g1", paths["g1"], "--g2", paths["g2"], "--g3", paths["g3"],
               "-o", tmp_path / "r.tt")
    out = json.loads(proc.stdout)
    assert out["verified"]["bent"] is True and out["n"] == 10

    param = tmp_path / "p.json"
    param.write_text(json.dumps({
        "m_f": 2, "theta": [0, 0, 1, 1], "form_f": [1, 0], "shift_f": [2, 0],
        "m_g": 2, "vartheta": [0, 1, 1, 0], "form_g": [0, 1], "shift_g": [0, 3],
    }))
    proc = run("build", "psap-restricted-sum", "--param-file", param,
               "-o", tmp_path / "s.tt")
    out = json.loads(proc.stdout)
    assert out["verified"]["bent"] is True and out["n"] == 6

    param.write_text(json.dumps({
        "k_f": 2, "phi": "random", "e2": [], "e1": "auto",
        "k_g": 2, "psi": "random", "xi2": [1, 2], "xi1": "auto",
    }))
    proc = run("build", "class-d-restricted-sum", "--param-file", param,
               "--mu", 1, "--rho", 2, "--seed", 5, "-o", tmp_path / "d.tt")
    out = json.loads(proc.stdout)
    assert out["verified"]["bent"] is True and out["n"] == 6

    proc = run("build", "mm-restricted-sum", "--param-file",
               put_json(tmp_path, {"k_f": 3, "phi": "random",
                                   "k_g": 2, "psi": "random",
                                   "u": "random", "v": "random"}),
               "--mu", 2, "--rho", 1, "--seed", 9, "-o", tmp_path / "m.tt")
    out = json.loads(proc.stdout)
    assert out["verified"]["bent"] is True and out["n"] == 8


def put_json(tmp_path, obj):
    p = tmp_path / "params.json"
    p.write_text(json.dumps(obj))
    return p


def test_unknown_construction_rejected(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "bentkit", "build", "nope"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2  # argparse usage error


def test_missing_file_flag_exits_2(tmp_path):
    f = put(tmp_path, "f.tt", MM4)
    run("build", "direct-sum", "--f", f, "-o", tmp_path / "o.tt", expect=2)


def _file(tmp_path, name, data: bytes):
    p = tmp_path / name
    p.write_bytes(data)
    return p


_TRIPLE = ("--f1", "--f2", "--f3")


@pytest.mark.parametrize("args, code, message", [
    pytest.param(
        lambda t: ["mm", "--param-file", put_json(t, {"k": 2}),
                   "-o", t / "no" / "such" / "h.tt"],
        1, "cannot write", id="unwritable-output"),
    pytest.param(
        lambda t: ["psap", "--param-file", t / "absent.json"],
        2, "cannot read", id="absent-param-file"),
    pytest.param(
        lambda t: ["psap", "--param-file", put_json(t, [1])],
        2, "must hold a JSON object", id="param-file-not-an-object"),
    pytest.param(
        lambda t: ["psap", "--param-file", _file(t, "p.json", b"{nope")],
        2, "cannot read", id="param-file-not-json"),
    pytest.param(
        lambda t: ["direct-sum", "--f", _file(t, "f.tt", "n=\u00b2\nbits=8\n".encode()),
                   "--g", put(t, "g.tt", MM4)],
        2, "malformed header", id="non-ascii-header"),
    pytest.param(
        lambda t: ["direct-sum", "--f", _file(t, "f.tt", b"\xff\xfe\n"),
                   "--g", put(t, "g.tt", MM4)],
        2, "cannot read", id="table-not-utf8"),
    pytest.param(
        lambda t: ["psap", "--param-file", put_json(t, {"m": 3, "theta": 5})],
        3, "malformed parameters for psap", id="theta-not-a-list"),
    pytest.param(
        lambda t: ["psap", "--param-file", put_json(t, {"m": 2, "theta": "0110"})],
        3, "malformed parameters for psap", id="theta-a-string"),
    pytest.param(
        lambda t: ["class-d", "--param-file", put_json(t, {"k": True})],
        3, "malformed parameters for class-d", id="k-a-boolean"),
    pytest.param(
        lambda t: ["mm", "--param-file", put_json(t, {"k": 1, "u": "a\u0000b"})],
        2, "cannot read a\\x00b: embedded null byte", id="nul-in-table-path"),
    pytest.param(
        lambda t: ["mm", "--param-file",
                   put_json(t, {"phi": "random", "k": 18, "u": "random"})],
        3, "composite output would need 36 > 26 variables", id="mm-random-phi-too-large"),
    pytest.param(
        lambda t: ["class-d", "--param-file", put_json(t, {"k": 18})],
        3, "composite output would need 36 > 26 variables", id="class-d-too-large"),
    pytest.param(
        lambda t: ["class-d-restricted-sum", "--param-file",
                   put_json(t, {"k_f": 12, "k_g": 12})],
        3, "composite output would need 46 > 26 variables",
        id="class-d-restricted-sum-too-large"),
    pytest.param(
        lambda t: ["psap", "--param-file", put_json(t, {"m": 14})],
        3, "extension degree must be in [1, 13], got 14", id="psap-too-large"),
    pytest.param(
        lambda t: ["psap", "--param-file", put_json(t, {"theta": "random"})],
        3, "missing parameter 'm' for psap", id="missing-key"),
    pytest.param(
        lambda t: ["mm-restricted-sum", "--param-file", put_json(t, {})],
        3, 'cannot draw phi at random: set "k_f"', id="mm-restricted-sum-no-k-f"),
    pytest.param(
        lambda t: ["mm-restricted-sum", "--param-file", put_json(t, {"k_f": 2})],
        3, 'cannot draw psi at random: set "k_g"', id="mm-restricted-sum-no-k-g"),
    pytest.param(
        lambda t: ["mm", "--param-file", put_json(t, {"k": 2, "u": 5})],
        3, 'parameter u must be a file path or "random"', id="u-a-number"),
    pytest.param(
        lambda t: ["class-d", "--param-file",
                   put_json(t, {"k": 3, "phi": "random", "e2": [5], "e1": [1]}),
                   "--seed", 7],
        3, "class D requires phi(E2) to equal the dual of E1", id="class-d-wrong-e1"),
    pytest.param(
        lambda t: ["mm", "--param-file", put_json(t, {"k": -1})],
        3, "k must be in [1, inf], got -1", id="mm-negative-k"),
    pytest.param(
        lambda t: ["mm", "--param-file", put_json(t, {"k": "3"})],
        3, "k must be an integer, got '3'", id="mm-string-k"),
    pytest.param(
        lambda t: ["mm-restricted-sum", "--param-file",
                   put_json(t, {"k_f": -2, "k_g": 2})],
        3, "k_f must be in [1, inf], got -2", id="mm-restricted-sum-negative-k-f"),
    pytest.param(
        lambda t: ["psap", "--param-file", put_json(t, {"m": 2, "theta": None})],
        3, "'theta' is not a list", id="theta-null"),
    pytest.param(
        lambda t: ["mm", "--seed", "-1", "--param-file", put_json(t, {"k": 2})],
        3, "seed must be in [0, 18446744073709551615], got -1", id="negative-seed"),
    pytest.param(
        lambda t: ["mm", "--seed", str(1 << 64), "--param-file", put_json(t, {"k": 2})],
        3, "seed must be in [0, 18446744073709551615], got 18446744073709551616",
        id="seed-above-64-bits"),
    pytest.param(
        lambda t: ["mm", "--seed", "11400714819323198485", "--param-file",
                   put_json(t, {"k": 2})],
        3, "the state that seed 0 stands for", id="seed-zero-state"),
    pytest.param(
        lambda t: ["restricted-indirect-sum", "--mu", "abc"],
        2, "argument --mu: invalid int value: 'abc'", id="mu-not-an-int"),
    pytest.param(
        lambda t: ["indirect-sum", "--f1", put(t, "f.tt", MM4)],
        2, "missing --f2 for indirect-sum", id="missing-table-flag"),
    pytest.param(
        lambda t: ["direct-sum", "--f", put(t, "f.tt", MM4), "--g", put(t, "g.tt", MM4),
                   "--mu", "7", "--k", "3", "--variant", "11", "--seed", "9"],
        3, "direct-sum does not read --mu", id="unread-flag"),
    pytest.param(
        lambda t: ["psap-restricted-sum", "--seed", "1", "--param-file", put_json(t, {
            "m_f": 2, "theta": [0, 0, 1, 1], "form_f": [1, 0], "shift_f": [2, 0],
            "m_g": 2, "vartheta": [0, 1, 1, 0], "form_g": [0, 1], "shift_g": [0, 3],
        })],
        3, "psap-restricted-sum does not read --seed", id="unread-seed"),
    pytest.param(
        lambda t: ["restricted-indirect-sum", "--f", put(t, "f.tt", MM4),
                   "--g", put(t, "g.tt", MM4), "--param-file", put_json(t, {})],
        3, "restricted-indirect-sum does not read --param-file", id="unread-param-file"),
    pytest.param(
        lambda t: ["psap", "--param-file",
                   put_json(t, {"m": 3, "thetaa": [0, 0, 1, 1, 0, 1, 0, 1]})],
        3, "psap does not read parameter 'thetaa'", id="unread-key"),
    pytest.param(
        lambda t: ["mm", "--param-file", put_json(t, {"phi": [0, 1, 3, 2], "k": 5})],
        3, "parameter 'k' is read only to draw phi at random", id="k-with-an-image-list"),
    pytest.param(
        lambda t: ["class-d-restricted-sum", "--param-file",
                   put_json(t, {"phi": [0, 1, 3, 2], "k_g": 2, "psi": [0, 1, 3, 2]})],
        3, "parameter 'k_g' is read only to draw psi at random",
        id="k-g-with-an-image-list"),
    pytest.param(
        lambda t: ["generalized-indirect-sum", "--t", "3", "--k", "9",
                   *(x for flag in (*_TRIPLE, "--g1", "--g2", "--g3")
                     for x in (flag, put(t, "f.tt", MM4)))],
        3, "t and k are read only in resilient mode, got mode None", id="t-k-without-mode"),
    pytest.param(
        lambda t: ["resilient-indirect-sum",
                   *(x for flag in (*_TRIPLE, "--g1", "--g2", "--g3")
                     for x in (flag, put(t, "f.tt", MM4)))],
        3, "missing --k for resilient-indirect-sum", id="missing-k"),
    pytest.param(
        lambda t: ["resilient-indirect-sum-pair",
                   *(x for flag in (*_TRIPLE, "--p", "--q")
                     for x in (flag, put(t, "f.tt", MM4)))],
        3, "missing --k for resilient-indirect-sum-pair", id="missing-k-pair"),
    pytest.param(  # bent, so unbalanced: accepted at k = -1 only
        lambda t: ["resilient-indirect-sum", "--k", "-5",
                   *(x for flag in (*_TRIPLE, "--g1", "--g2", "--g3")
                     for x in (flag, put(t, "f.tt", MM4)))],
        3, "k must be in [-1, inf], got -5", id="k-below-minus-one"),
    pytest.param(
        lambda t: ["resilient-indirect-sum-pair", "--k", "-5",
                   *(x for flag in (*_TRIPLE, "--p", "--q")
                     for x in (flag, put(t, "f.tt", MM4)))],
        3, "k must be in [-1, inf], got -5", id="k-below-minus-one-pair"),
    pytest.param(  # the all-ones linear seeds on m = 3 are 2-resilient: only k < m-1 fails
        lambda t: ["resilient-indirect-sum-pair", "--i", "1", "--k", "2",
                   *(x for flag in _TRIPLE for x in (flag, put(t, "f.tt", MM4))),
                   *(x for flag in ("--p", "--q")
                     for x in (flag, put(t, "l.tt", BooleanFunction.linear(3, 0b111))))],
        3, "need k < m-1, got k=2, m=3", id="k-not-below-m-minus-1-pair"),
    pytest.param(  # zero tables: no triple member is bent, but the size comes first
        lambda t: ["resilient-indirect-sum", "--k", "0",
                   *(x for flag in (*_TRIPLE, "--g1", "--g2", "--g3")
                     for x in (flag, put(t, "z.tt", BooleanFunction.zero(14))))],
        3, "composite output would need 28 > 26 variables",
        id="resilient-indirect-sum-too-large"),
    pytest.param(
        lambda t: ["resilient-indirect-sum-pair", "--k", "0",
                   *(x for flag in (*_TRIPLE, "--p", "--q")
                     for x in (flag, put(t, "z.tt", BooleanFunction.zero(14))))],
        3, "composite output would need 28 > 26 variables",
        id="resilient-indirect-sum-pair-too-large"),
    pytest.param(  # bent, so unbalanced: accepted at k = -1 only
        lambda t: ["resilient-indirect-sum", "--k", "-1",
                   *(x for flag in (*_TRIPLE, "--g1", "--g2")
                     for x in (flag, put(t, "f.tt", MM4))),
                   "--g3", put(t, "g.tt", BooleanFunction.zero(6))],
        3, "share a variable count", id="g3-of-another-size"),
])
def test_build_error_paths_exit_with_a_message(tmp_path, args, code, message):
    proc = run("build", *args(tmp_path), expect=code)
    assert "error: " in proc.stderr and message in proc.stderr, proc.stderr
    assert "Traceback" not in proc.stderr


def test_param_file_is_read_as_utf8_in_an_ascii_locale(tmp_path):
    # the C locale with UTF-8 mode off decodes text files as ASCII; a file
    # that failed to decode would exit 2, and one read whole names its
    # unread key
    params = {"phi": [0, 1, 2, 3], "note": "x\u2081x\u2082 \u00e9"}
    p = _file(tmp_path, "p.json", json.dumps(params, ensure_ascii=False).encode())
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    proc = subprocess.run(
        [sys.executable, "-m", "bentkit", "build", "mm", "--param-file", str(p)],
        capture_output=True, text=True, env=env,
    )
    assert (proc.returncode, proc.stderr) == (3, "error: mm does not read parameter 'note'\n")


@pytest.mark.parametrize("target", [
    pytest.param(lambda t: t, id="directory"),
    pytest.param(lambda t: "/dev/stdout", id="dev-stdout"),
])
def test_output_that_is_not_a_regular_file_is_refused(tmp_path, target):
    path = target(tmp_path)
    proc = run("build", "mm", "--param-file", put_json(tmp_path, {"k": 2}),
               "-o", path, expect=1)
    assert proc.stderr == f"error: cannot write {path}: not a regular file\n"
    assert proc.stdout == ""


def test_failed_write_keeps_the_old_output(tmp_path, monkeypatch, capsys):
    from bentkit import cli

    out = tmp_path / "h.tt"
    out.write_text("old\n")
    params = put_json(tmp_path, {"k": 2})

    def full_disk(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli.os, "replace", full_disk)
    assert cli.main(["build", "mm", "--param-file", str(params), "-o", str(out)]) == 1
    assert capsys.readouterr().err == f"error: cannot write {out}: No space left on device\n"
    assert out.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["h.tt", "params.json"]


# the environment with stdout buffered, as it is by default
BUFFERED = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command, n", [("wht", 4), ("dual", 16)])
def test_report_that_cannot_be_written_exits_1(tmp_path, command, n):
    # with stdout buffered, a small report fails only at the final flush
    # and a large one already in the command
    p = put(tmp_path, "f.tt", random_mm_bent(n, XorShift64Star(n)))
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "bentkit", command, str(p)],
            stdout=full, stderr=subprocess.PIPE, text=True, env=BUFFERED,
        )
    enospc = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
    assert (proc.returncode, proc.stderr) == (1, f"error: {enospc}\n")


@pytest.mark.skipif(os.name != "posix", reason="closes fd 1 in a POSIX shell")
@pytest.mark.parametrize("command", ["analyze", "dual", "wht"])
def test_program_without_stdout_exits_0(tmp_path, command):
    # with fd 1 closed the interpreter sets sys.stdout to None and print
    # drops the report or table; flushing it must not fail either
    p = put(tmp_path, "f.tt", MM4)
    line = f"{shlex.quote(sys.executable)} -m bentkit {command} {shlex.quote(str(p))} >&-"
    proc = subprocess.run(line, shell=True, stderr=subprocess.PIPE, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_program_output_is_complete_at_its_early_exit(tmp_path, capsys):
    """The program ends with os._exit after flushing: what it writes to a
    pipe and to a file matches an in-process run of the same arguments."""
    from bentkit import cli

    def program(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "bentkit", *argv], capture_output=True, env=BUFFERED
        )
        assert (proc.returncode, proc.stderr) == (0, b"")
        return proc.stdout

    def library(*argv):
        assert cli.main(list(argv)) == 0
        return capsys.readouterr().out.encode()

    f = put(tmp_path, "f.tt", random_mm_bent(16, XorShift64Star(16)))
    table = program("dual", f)
    assert len(table) > 8192  # more than one stdout buffer
    assert table == library("dual", str(f))

    h = tmp_path / "h.tt"
    build = ["build", "restricted-indirect-sum", "--f", str(f), "--mu", "3",
             "--g", str(put(tmp_path, "g.tt", MM4)), "--rho", "2", "--variant", "01",
             "-o", str(h)]
    report = program(*build)
    written = h.read_bytes()
    h.unlink()
    assert report == library(*build)
    assert written == h.read_bytes() and len(written) > 1 << 16


@pytest.mark.parametrize("n", [1, 2, 5])
def test_cli_file_round_trip_small_n(tmp_path, n):
    f = random_function(n, XorShift64Star(n))
    p = put(tmp_path, "f.tt", f)
    out = json.loads(run("analyze", p).stdout)
    assert out["n"] == n
    assert out["weight"] == f.weight


# -- byte identity of every construction's output ------------------------


def _digest_inputs(tmp_path):
    """Fixed inputs for every construction, drawn as in the tests above."""
    paths = {"mm4": put(tmp_path, "mm4.tt", MM4)}
    rng = XorShift64Star(77)
    bent = [*random_mm_bent_triple(4, rng), *random_mm_bent_triple(4, rng)]
    for name, f in zip(("f1", "f2", "f3", "g1", "g2", "g3"), bent):
        paths[name] = put(tmp_path, name + ".tt", f)
    from bentkit.rand import random_derivative_triple, random_resilient_triple

    rng = XorShift64Star(33)
    res = [*random_resilient_triple(3, 0, rng), *random_resilient_triple(3, 0, rng)]
    for i, f in enumerate(res):
        paths[f"r{i}"] = put(tmp_path, f"r{i}.tt", f)
    rng = XorShift64Star(100)
    triple, _ = random_derivative_triple(6, rng)
    heavy = [v for v in range(32) if bin(v).count("1") >= 2]
    seeds = []
    for _ in range(2):
        rng.shuffle(heavy)
        phi = PermutationMap(heavy[:8], r=5)
        seeds.append(mm_function(phi, random_function(3, rng)))
    for name, f in [("t1", triple.f1), ("t2", triple.f2), ("t3", triple.f3),
                    ("p", seeds[0]), ("q", seeds[1])]:
        paths[name] = put(tmp_path, name + ".tt", f)
    return paths


DIGEST_CASES = {
    "direct-sum": (
        lambda d, t: ["--f", d["mm4"], "--g", d["mm4"]],
        "999f7e25a2c40fc9f37a7c294bb48b0d60067d0899567d0ea7b2d471906142d7",
    ),
    "indirect-sum": (
        lambda d, t: ["--f1", d["f1"], "--f2", d["f2"],
                      "--g1", d["g1"], "--g2", d["g2"]],
        "e81e9d23dbd04d62e0870fd5a5f5a532d7e9c94673c702fac0293ccc22d21a95",
    ),
    "restricted-indirect-sum": (
        lambda d, t: ["--f", d["mm4"], "--mu", 4, "--g", d["mm4"], "--rho", 4,
                      "--variant", "01"],
        "037706b37ac9ff25fc30859971929aa848fbdea8d6ab51af2e5902db9483993a",
    ),
    "mm": (
        lambda d, t: ["--param-file",
                      put_json(t, {"phi": "random", "k": 3, "u": "random"}),
                      "--seed", 42],
        "e7828602ee04c8869b9a4d13faa013e64f41659b3f29cf0bb71b1437c54aef98",
    ),
    "psap": (
        lambda d, t: ["--param-file",
                      put_json(t, {"m": 3, "theta": [0, 0, 1, 1, 0, 1, 0, 1]})],
        "1305a3bb391e465003ab65f1617c49e333a68556db1cdcf2b11ccabf7af381b8",
    ),
    "psap/random-theta": (
        lambda d, t: ["--param-file", put_json(t, {"m": 3}), "--seed", 5],
        "626c2e17ce219707738e7ab181412421324ae01daa2f3ea9c0e067edb6000368",
    ),
    "class-d": (
        lambda d, t: ["--param-file",
                      put_json(t, {"k": 3, "phi": "random", "e2": [5], "e1": "auto"}),
                      "--seed", 7],
        "6ffa7385cc4647a110735cb2f47ada508738dd081bb097f05f9bbcf7c8f9b466",
    ),
    "class-d/listed-e1": (  # phi(5) = 7 at seed 7, so E1 = 7^perp, as "auto" draws
        lambda d, t: ["--param-file",
                      put_json(t, {"k": 3, "phi": "random", "e2": [5], "e1": [6, 3]}),
                      "--seed", 7],
        "6ffa7385cc4647a110735cb2f47ada508738dd081bb097f05f9bbcf7c8f9b466",
    ),
    "mm-restricted-sum": (
        lambda d, t: ["--param-file",
                      put_json(t, {"k_f": 3, "phi": "random", "k_g": 2, "psi": "random",
                                 "u": "random", "v": "random"}),
                      "--mu", 2, "--rho", 1, "--seed", 9],
        "46ada0244945b1d0ed960aff2634f288dfb90cff653362356f33274895f70d0d",
    ),
    "psap-restricted-sum": (
        lambda d, t: ["--param-file", put_json(t, {
            "m_f": 2, "theta": [0, 0, 1, 1], "form_f": [1, 0], "shift_f": [2, 0],
            "m_g": 2, "vartheta": [0, 1, 1, 0], "form_g": [0, 1], "shift_g": [0, 3],
        })],
        "2e0c653e3f580381be6ff3e592bc2e20b720197ae49e59af1d738e4c39b718eb",
    ),
    "class-d-restricted-sum": (
        lambda d, t: ["--param-file", put_json(t, {
            "k_f": 2, "phi": "random", "e2": [], "e1": "auto",
            "k_g": 2, "psi": "random", "xi2": [1, 2], "xi1": "auto",
        }), "--mu", 1, "--rho", 2, "--seed", 5],
        "8d44bf8091dcccf1e0b764a0da9196a734f9f95c0e9569fe7211b2e3631495f1",
    ),
    "rothaus": (
        lambda d, t: ["--f1", d["f1"], "--f2", d["f2"], "--f3", d["f3"]],
        "768679469f2088a1129cc6879e8432e8265639c3ff686384e0b896fadabe2fe2",
    ),
    "rothaus-restricted-sum": (
        lambda d, t: ["--f1", d["f1"], "--f2", d["f2"], "--f3", d["f3"],
                      "--g1", d["g1"], "--g2", d["g2"], "--g3", d["g3"]],
        "f9d7cce3ac7019be2f35b75371347dad4c99e78ac4d6b9c18d2ac74acfd3d5fc",
    ),
    "generalized-indirect-sum": (
        lambda d, t: ["--f1", d["r0"], "--f2", d["r1"], "--f3", d["r2"],
                      "--g1", d["r3"], "--g2", d["r4"], "--g3", d["r5"],
                      "--mode", "resilient", "--t", 0, "--k", 0],
        "e4dfd6e388625a6c6bafb980716f538d6da827e94908075be1fe4e6123fc606e",
    ),
    "generalized-indirect-sum/bent": (
        lambda d, t: ["--f1", d["f1"], "--f2", d["f2"], "--f3", d["f3"],
                      "--g1", d["g1"], "--g2", d["g2"], "--g3", d["g3"],
                      "--mode", "bent"],
        "3487ac77721b7f2a0595ad757e5ec9bc69edc77849c6c669138fae9d7791d7a2",
    ),
    "generalized-indirect-sum/no-mode": (  # unbalanced tables, no premise checked
        lambda d, t: ["--f1", d["f1"], "--f2", d["f2"], "--f3", d["f3"],
                      "--g1", d["g1"], "--g2", d["g2"], "--g3", d["mm4"]],
        "5e78c1440a6dc6641ae2db8f3406ff10baaddf32e3a182648556c24d1993049f",
    ),
    "resilient-indirect-sum": (
        lambda d, t: ["--f1", d["f1"], "--f2", d["f2"], "--f3", d["f3"],
                      "--g1", d["r3"], "--g2", d["r4"], "--g3", d["r5"], "--k", 0],
        "6bdb24e8c7b58d37c4892602834b6c45be3b2107f8a469bd0df3696bc1633a04",
    ),
    "resilient-indirect-sum-pair": (
        lambda d, t: ["--f1", d["t1"], "--f2", d["t2"], "--f3", d["t3"],
                      "--p", d["p"], "--q", d["q"], "--i", 1, "--k", 1],
        "9b63dec3f33af6ecc93b0f3c30d741d51d6b374094a6168fd960902200a4fe56",
    ),
}


@pytest.mark.parametrize("case", sorted(DIGEST_CASES))
def test_build_output_digests_are_pinned(tmp_path, case):
    """Each construction writes the same bytes for the same seed and inputs."""
    make_args, want = DIGEST_CASES[case]
    out = tmp_path / "h.tt"
    run("build", case.split("/")[0], *make_args(_digest_inputs(tmp_path), tmp_path),
        "-o", out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want


# -- a build checks its output against its construction's theorem ---------

# the constructions function each promising case's output comes from (both
# resilient routes build through generalized_indirect_sum), and the claim
# a flipped bit breaks
PROMISING = {
    "direct-sum": ("direct_sum", "nonlinearity"),
    "restricted-indirect-sum": ("restricted_indirect_sum", "bent"),
    "mm": ("mm_function", "bent"),
    "psap": ("psap_bent", "bent"),
    "class-d": ("class_d_bent", "bent"),
    "mm-restricted-sum": ("mm_restricted_sum", "bent"),
    "psap-restricted-sum": ("psap_restricted_sum", "bent"),
    "class-d-restricted-sum": ("class_d_restricted_sum", "bent"),
    "rothaus": ("rothaus", "bent"),
    "rothaus-restricted-sum": ("rothaus_restricted_sum", "bent"),
    "generalized-indirect-sum": ("generalized_indirect_sum", "resiliency"),
    "generalized-indirect-sum/bent": ("generalized_indirect_sum", "bent"),
    "resilient-indirect-sum": ("generalized_indirect_sum", "resiliency"),
    "resilient-indirect-sum-pair": ("generalized_indirect_sum", "resiliency"),
}


@pytest.mark.parametrize("case", sorted(PROMISING))
def test_build_whose_output_breaks_its_theorem_exits_1(tmp_path, monkeypatch, capsys, case):
    from bentkit import cli, constructions

    function, claim = PROMISING[case]
    real = getattr(constructions, function)

    def flipped(*args, **kwargs):  # the real output with bit 0 flipped
        h = real(*args, **kwargs)
        return h ^ BooleanFunction(h.n, 1)

    monkeypatch.setattr(constructions, function, flipped)
    name = case.split("/")[0]
    out = tmp_path / "h.tt"
    args = DIGEST_CASES[case][0](_digest_inputs(tmp_path), tmp_path)
    assert cli.main(["build", name, *map(str, args), "-o", str(out)]) == 1
    std = capsys.readouterr()
    assert std.out == ""
    assert std.err.startswith(f"error: {name} promises {claim} ")
    assert f"but its output has {claim} " in std.err and std.err.count("\n") == 1
    assert not out.exists()


def test_build_whose_output_beats_its_promise_exits_0(tmp_path):
    # k only gates the premises, so --k 0 writes the --k 1 output: its
    # resiliency 1 beats the promised resiliency >= 0
    make_args, want = DIGEST_CASES["resilient-indirect-sum-pair"]
    args = make_args(_digest_inputs(tmp_path), tmp_path)
    args[args.index("--k") + 1] = 0
    out = tmp_path / "h.tt"
    summary = json.loads(run("build", "resilient-indirect-sum-pair", *args, "-o", out).stdout)
    assert (summary["verified"]["resiliency"], summary["certificate"]["resiliency"]) == (1, 0)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want


def test_build_whose_certificate_bound_exceeds_its_output_exits_1(
    tmp_path, monkeypatch, capsys
):
    import dataclasses

    from bentkit import cli, constructions

    real = constructions.resilient_indirect_sum_from_pair

    def overbound(*args, **kwargs):  # the real output, its bound one too high
        h, cert = real(*args, **kwargs)
        return h, dataclasses.replace(cert, nonlinearity_bound=cert.nonlinearity + 1)

    monkeypatch.setattr(constructions, "resilient_indirect_sum_from_pair", overbound)
    out = tmp_path / "h.tt"
    args = DIGEST_CASES["resilient-indirect-sum-pair"][0](_digest_inputs(tmp_path), tmp_path)
    argv = ["build", "resilient-indirect-sum-pair", *map(str, args), "-o", str(out)]
    assert cli.main(argv) == 1
    std = capsys.readouterr()
    assert std.out == ""
    assert std.err == ("error: resilient-indirect-sum-pair promises nonlinearity >= 8065, "
                       "but its output has nonlinearity 8064\n")
    assert not out.exists()


@pytest.mark.parametrize("case", ["psap", "resilient-indirect-sum-pair"])
def test_certify_is_what_build_verifies(tmp_path, case):
    from bentkit import ResilientSumCertificate, analysis

    out = tmp_path / "h.tt"
    args = DIGEST_CASES[case][0](_digest_inputs(tmp_path), tmp_path)
    summary = json.loads(run("build", case, *args, "-o", out).stdout)
    h = parse_truth_table(out.read_text())
    if case == "psap":
        promises, resilient, claim = [("bent", "==", True)], False, ("bent", "==", False)
    else:
        cert = ResilientSumCertificate(**summary["certificate"])
        promises, resilient = cert.promises, True
        claim = ("nonlinearity", ">=", cert.nonlinearity + 1)
    claims = analysis.certify(case, h, promises, resilient=resilient)
    assert list(claims.items()) == list(summary["verified"].items())
    name, relation, value = claim
    with pytest.raises(RuntimeError) as exc:
        analysis.certify("label", h, [claim], resilient=resilient)
    assert str(exc.value) == (f"label promises {name} {relation} {json.dumps(value)}, "
                              f"but its output has {name} {json.dumps(claims[name])}")


def test_runtime_error_inside_a_build_exits_1(tmp_path, monkeypatch, capsys):
    from bentkit import cli, constructions

    def internal_error(*args, **kwargs):
        raise RuntimeError("internal\nerror")

    monkeypatch.setattr(constructions, "psap_bent", internal_error)
    out = tmp_path / "h.tt"
    args = DIGEST_CASES["psap"][0](_digest_inputs(tmp_path), tmp_path)
    assert cli.main(["build", "psap", *map(str, args), "-o", str(out)]) == 1
    assert capsys.readouterr() == ("", "error: internal\\nerror\n")
    assert not out.exists()


def test_build_without_an_output_file_prints_the_table_alone(tmp_path):
    args = DIGEST_CASES["psap"][0](_digest_inputs(tmp_path), tmp_path)
    out = tmp_path / "h.tt"
    run("build", "psap", *args, "-o", out)
    table = run("build", "psap", *args).stdout
    assert table == out.read_text()
    assert serialize_truth_table(parse_truth_table(table)) == table


def test_build_without_an_output_file_still_checks_its_promise(
        tmp_path, monkeypatch, capsys):
    from bentkit import cli, constructions

    real = constructions.psap_bent
    monkeypatch.setattr(constructions, "psap_bent",
                        lambda *args: real(*args) ^ BooleanFunction(6, 1))
    args = DIGEST_CASES["psap"][0](_digest_inputs(tmp_path), tmp_path)
    assert cli.main(["build", "psap", *map(str, args)]) == 1
    assert capsys.readouterr().err.startswith("error: psap promises bent ")


def test_oversize_psap_restricted_sum_builds_no_field(tmp_path, monkeypatch, capsys):
    from bentkit import cli

    def no_field(m):
        raise AssertionError("a field was built")

    monkeypatch.setattr(cli, "GaloisField", no_field)
    param = put_json(tmp_path, {
        "m_f": 13, "theta": [], "form_f": [1, 0], "shift_f": [1, 0],
        "m_g": 13, "vartheta": [], "form_g": [1, 0], "shift_g": [1, 0],
    })
    assert cli.main(["build", "psap-restricted-sum", "--param-file", str(param)]) == 3
    assert capsys.readouterr() == (
        "", "error: composite output would need 50 > 26 variables\n")


def test_build_without_a_premise_promises_nothing(tmp_path):
    # indirect-sum checks no premise, so a non-bent output is written
    x = tmp_path / "x.tt"
    x.write_text("n=2\nbits=6\n")
    out = tmp_path / "h.tt"
    proc = run("build", "indirect-sum", "--f1", x, "--f2", x, "--g1", x, "--g2", x,
               "-o", out)
    assert json.loads(proc.stdout)["verified"]["bent"] is False
    assert out.exists()
    # nor does generalized-indirect-sum without --mode: no certificate
    args = DIGEST_CASES["generalized-indirect-sum/no-mode"][0](
        _digest_inputs(tmp_path), tmp_path
    )
    proc = run("build", "generalized-indirect-sum", *args, "-o", out)
    summary = json.loads(proc.stdout)
    assert "certificate" not in summary and summary["verified"]["resiliency"] == -1
