"""Quick tests of the benchmark's reference code and bookkeeping.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
from tracer import metric_units

import bentkit as bk
from bentkit.galois import GaloisField, smallest_irreducible

ROOT = Path(__file__).resolve().parent.parent


def random_table(n, seed):
    return np.random.default_rng(seed).integers(0, 2, 1 << n, dtype=np.uint8)


def test_codec_reads_the_readme_example():
    n, bits = checks.decode("n=4\nbits=0116\n")
    assert n == 4
    assert np.nonzero(bits)[0].tolist() == [7, 11, 13, 14]
    assert checks.encode(bits) == "n=4\nbits=0116\n"
    assert checks.from_mask(bk.parse_truth_table("n=4\nbits=0116\n").mask, 4).tolist() == bits.tolist()


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_codec_matches_the_program_both_ways(n):
    bits = random_table(n, n)
    f = bk.BooleanFunction(n, bits)
    assert checks.encode(bits) == bk.serialize_truth_table(f)
    assert checks.decode(bk.serialize_truth_table(f))[1].tolist() == bits.tolist()


def test_walsh_matches_the_definition_row_by_row():
    n = 5
    tables = np.stack([random_table(n, s) for s in range(3)])
    x = np.arange(1 << n)
    dots = np.bitwise_count(x[:, None] & x[None, :]) & 1
    for table, spectrum in zip(tables, checks.walsh(tables)):
        naive = (1 - 2 * (table[None, :] ^ dots).astype(int)).sum(axis=1)
        assert spectrum.tolist() == naive.tolist()


def test_anf_and_degree():
    x1x2 = checks.decode("n=2\nbits=1\n")[1]  # f = 1 only at index 3
    assert checks.anf(x1x2).tolist() == [0, 0, 0, 1]
    assert checks.degree(checks.anf(x1x2)) == 2
    bits = random_table(6, 1)
    assert checks.anf(checks.anf(bits)).tolist() == bits.tolist()
    assert checks.degree(checks.anf(bits)) == bk.degree(bk.BooleanFunction(6, bits))


def test_field_arithmetic_matches_the_program():
    assert [checks.smallest_irreducible(m) for m in (2, 3, 4, 8)] == [0b111, 0b1011, 0b10011, 0x11B]
    for m in range(1, 10):
        assert checks.smallest_irreducible(m) == smallest_irreducible(m)
    field = GaloisField(4)
    table = checks.mul_table(4)
    assert all(table[p, q] == field.mul(p, q) for p in range(16) for q in range(16))
    quotient = checks.quotient_table(4)
    assert quotient[5, 0] == 0
    assert all(quotient[p, q] == field.div(p, q) for p in range(16) for q in range(16))


def test_psap_and_mm_references_are_bent_and_match_the_program():
    m = 4
    theta = [0, 1, 1, 0, 1, 0, 1, 1, 0, 0, 1, 0, 1, 0, 0, 1]
    table = checks.psap_table(theta, m)
    assert checks.is_bent(checks.walsh(table))
    assert bk.psap_bent(GaloisField(m), theta) == bk.BooleanFunction(2 * m, table)
    perm = [3, 0, 2, 1]
    u = np.array([1, 0, 0, 1], dtype=np.uint8)
    f = checks.mm_table(perm, u)
    assert checks.is_bent(checks.walsh(f))
    assert bk.mm_function(bk.PermutationMap(perm), bk.BooleanFunction(2, u)).mask == \
        bk.BooleanFunction(4, f).mask


def test_restricted_sum_reference_matches_the_program():
    f = checks.mm_table([2, 0, 3, 1], np.array([0, 1, 1, 0], dtype=np.uint8))
    g = checks.mm_table([5, 1, 4, 0, 7, 2, 6, 3], random_table(3, 9))
    for variant in ("00", "01", "10", "11"):
        h = checks.restricted_sum(f, 3, g, 2, variant)
        assert checks.is_bent(checks.walsh(h))
        built = bk.restricted_indirect_sum(bk.BooleanFunction(4, f), 3,
                                           bk.BooleanFunction(6, g), 2, variant)
        assert built == bk.BooleanFunction(8, h)


def test_cli_checker_rejects_a_flipped_bit(tmp_path):
    f = checks.mm_table([1, 3, 0, 2], np.array([1, 1, 0, 0], dtype=np.uint8))
    g = checks.mm_table([2, 3, 1, 0], np.array([0, 0, 1, 0], dtype=np.uint8))
    good = checks.restricted_sum(f, 1, g, 4, "10")
    job = {"key": 0, "expected": lambda: good}
    summary = json.dumps({"verified": checks.bent_claims(good)})
    out = tmp_path / "h.tt"
    out.write_text(checks.encode(good))
    check = run.CliChecker()
    assert check(job, 0, summary, out) is None
    assert check(job, 0, summary, out) is None  # a byte-identical repeat
    assert check(job, 3, summary, out).startswith("refused")
    bad = good.copy()
    bad[5] ^= 1
    out.write_text(checks.encode(bad))
    assert check(job, 0, summary, out).startswith("wrong")  # repeat differs
    assert run.CliChecker()(job, 0, summary, out).startswith("wrong")


def test_tail_is_the_median_below_forty_jobs():
    base = {"rss_mib": 1.0, "setup_s": 1.0}
    few = run.end_to_end(base | {"times": [float(t) for t in range(1, 21)]})
    assert few["job_tail_ms"] == few["job_p50_ms"] == 10500.0
    many = run.end_to_end(base | {"times": [float(t) for t in range(1, 101)]})
    assert many["job_tail_ms"] == 90000.0  # ten jobs lie beyond it


def test_benchmark_json_lists_every_traced_metric():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = metric_units()
    assert {m["name"]: m["unit"] for m in config["per_layer"]} == units
    assert {m["name"] for m in config["end_to_end"]} == set(run.UNITS)
    assert {w["name"] for w in config["workloads"]} == set(run.JOB_RATE)


def test_two_traced_runs_count_the_same_calls(tmp_path):
    spec = {"workload": "corpus", "trace": True, "setup_only": False,
            "spans": str(tmp_path / "spans.npz"), "jobs": run.corpus_inputs(5, 6)}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    counts = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "harness.py"), str(path)],
                              capture_output=True, text=True, check=True,
                              env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["failed"] == 0
        counts.append({k: v for k, v in result["layers"].items() if k.endswith(".calls")})
    assert counts[0] == counts[1]
    assert counts[0]["core.walsh_transform.calls"] > 0
    assert (tmp_path / "spans.npz").is_file()
