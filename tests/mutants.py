"""Hand-written mutants of the certificate paths, each with a test that
kills it.

A mutant is (file, old text, new text, test): with the one occurrence of
the old text in the file replaced by the new, the test must fail.
`test_package.py` checks that every old text still occurs exactly once
and that every named test exists, so the list cannot go stale.  Running
the mutants is not part of the suite; this script does it, each on a
fresh copy of `src` and `tests` in a temporary directory, writes one
record per mutant (file, texts, test, verdict, seconds) to MUTANTS.json
at the repository root, and exits 1 when any mutant survives:

    python tests/mutants.py

`test_package.py` also checks that MUTANTS.json records exactly these
mutants, each killed.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# where both butterfly mutants act: the last column chunk of every in-place
# stage with h >= 2^23, so only transforms of n >= 24 variables
_LAST_WIDE_CHUNK = "            if h >= 1 << 23 and j + cols >= h:\n"

MUTANTS = [
    # a sign error that keeps every |W|, so Parseval and is_bent pass
    ("src/bentkit/core.py",
     "            y += x\n",
     "            y += x\n" + _LAST_WIDE_CHUNK + "                y *= -1\n",
     "tests/test_core.py::test_walsh_is_exact_everywhere_at_24_variables"),
    # a skipped chunk, which the constructor's Parseval check refuses
    ("src/bentkit/core.py",
     "            chunk = pairs[i : i + rows, :, j : j + cols]\n",
     _LAST_WIDE_CHUNK + "                continue\n"
     "            chunk = pairs[i : i + rows, :, j : j + cols]\n",
     "tests/test_core.py::test_walsh_is_exact_everywhere_at_24_variables"),
    # a correct output that beats a >= promise would exit 1
    ("src/bentkit/analysis.py",
     '_HOLDS = {"==": operator.eq, ">=": operator.ge}\n',
     '_HOLDS = {"==": operator.eq, ">=": operator.eq}\n',
     "tests/test_cli.py::test_build_whose_output_beats_its_promise_exits_0"),
    # the certificate's nonlinearity bound would go unchecked
    ("src/bentkit/constructions.py",
     '        return [("resiliency", ">=", self.resiliency),\n'
     '                ("nonlinearity", ">=", self.nonlinearity_bound)]\n',
     '        return [("resiliency", ">=", self.resiliency)]\n',
     "tests/test_cli.py::test_build_whose_certificate_bound_exceeds_its_output_exits_1"),
    # the oracle would miss a divergence at W(0)
    ("src/bentkit/oracle.py",
     "    diff = np.nonzero(fast != slow)[0]\n",
     "    diff = np.nonzero(fast[1:] != slow[1:])[0] + 1\n",
     "tests/test_oracle.py::test_verify_walsh_reports_a_divergence_at_w0_only"),
    # W(0) would count as a nonzero entry of weight 0, so ci_order -1
    ("src/bentkit/analysis.py",
     "        nonzero[0] &= lo != 0  # w = 0 is left out\n",
     "",
     "tests/test_analysis.py::test_resiliency_unbalanced_ci_still_reported"),
    # order 1 would skip the last coordinate's balance test
    ("src/bentkit/analysis.py",
     "    for s in range(n):\n"
     "        if (f.mask ^ _coordinate_mask(n, s)).bit_count() != half:\n",
     "    for s in range(n - 1):\n"
     "        if (f.mask ^ _coordinate_mask(n, s)).bit_count() != half:\n",
     "tests/test_analysis.py::test_is_resilient_matches_resiliency_report"),
    # the dual's complement
    ("src/bentkit/analysis.py",
     "_pack_bits(walsh_transform(f)._raw < 0)",
     "_pack_bits(walsh_transform(f)._raw > 0)",
     "tests/test_analysis.py::test_dual_self_dual_quadratic"),
    # the degree would count only the byte index's bits
    ("src/bentkit/core.py",
     "        return int((np.bitwise_count(k) + _TOP_WEIGHT[raw[k]]).max(initial=0))\n",
     "        return int(np.bitwise_count(k).max(initial=0))\n",
     "tests/test_core.py::test_mobius_single_monomial"),
    # an output file would never be written
    ("src/bentkit/cli.py",
     "        os.replace(tmp, target)\n",
     "        os.unlink(tmp)\n",
     "tests/test_cli.py::test_dual_round_trip"),
    # a new row's pivot would stay set in the older rows
    ("src/bentkit/constructions.py",
     "                rows = sorted([min(r, r ^ v) for r in rows] + [v], reverse=True)\n",
     "                rows = sorted(rows + [v], reverse=True)\n",
     "tests/test_constructions.py::test_linear_subspace_canonical_basis"),
    # the complement's vectors would lose their pivot terms
    ("src/bentkit/constructions.py",
     "            1 << c | sum(p for r, p in zip(self.basis, pivots) if r >> c & 1)\n",
     "            1 << c\n",
     "tests/test_constructions.py::test_linear_subspace_orthogonal"),
    # every oracle verdict but the Walsh one would read as agreement
    ("src/bentkit/oracle.py",
     "    if fast != slow:\n",
     "    if False:\n",
     "tests/test_oracle.py::test_verifiers_report_a_disagreeing_fast_path"),
    # the int16 stages: the odd rows would keep stale values, ...
    ("src/bentkit/core.py",
     "    dst.reshape(-1, 2, h)[:, 1] = tmp.reshape(-1, 2, h)[:, 1]\n",
     "",
     "tests/test_core.py::test_walsh_agrees_with_the_reference_butterfly"),
    # ... the even rows would hold differences, ...
    ("src/bentkit/core.py",
     "    np.add(src[:-h], src[h:], out=dst[:-h])\n",
     "    np.subtract(src[:-h], src[h:], out=dst[:-h])\n",
     "tests/test_core.py::test_walsh_agrees_with_the_reference_butterfly"),
    # ... and the widening would copy the older work block
    ("src/bentkit/core.py",
     "            out[lo:hi] = x\n",
     "            out[lo:hi] = y\n",
     "tests/test_core.py::test_walsh_agrees_with_the_reference_butterfly"),
    # the doubling kernel: each copy would lose its line, ...
    ("src/bentkit/core.py",
     "        table |= (table ^ line) << span\n",
     "        table |= table << span\n",
     "tests/test_constructions.py::test_mm_agrees_with_the_parity_table"),
    # ... or keep it in its first row only
    ("src/bentkit/core.py",
     '            line = int.from_bytes(head * -(-span // unit), "little")\n',
     '            line = int.from_bytes(head, "little")\n',
     "tests/test_constructions.py::test_mm_agrees_with_the_parity_table"),
    # a product term would be ORed into the rows, not added
    ("src/bentkit/constructions.py",
     "        rows ^= np.bitwise_and.outer(column(p), row(q))\n",
     "        rows |= np.bitwise_and.outer(column(p), row(q))\n",
     "tests/test_constructions.py::test_indirect_tables_match_the_bit_formula"),
]

# Equivalent mutants, which no test can kill, so none is listed above:
# - resiliency_report without its `least == 2` break: the later slices
#   only confirm a least weight of 2, so the break changes only the speed.
# - plateaued_order's `!=` as `>`, and is_bent's `==` as `<=`: by
#   Parseval's identity the 2^n squares sum to 4^n, so max|W|^2 is at
#   least 2^n and support * max|W|^2 at least 4^n; neither product can
#   fall below its target.
# - walsh_transform's `_BYTE_WALSH.take(..., mode="clip")` in the default
#   mode: every index is a byte, within the table's 256 rows, so only
#   the buffering of `out` changes.

ROOT = Path(__file__).resolve().parent.parent


def killed(mutant) -> bool:
    """Whether the mutant's test fails on a mutated copy of the checkout
    (pytest's exit code 1; a collection or usage error is not a kill)."""
    path, old, new, test = mutant
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests", "pyproject.toml"):
            (shutil.copytree if (ROOT / part).is_dir() else shutil.copy)(
                ROOT / part, copy / part)
        target = copy / path
        target.write_text(target.read_text().replace(old, new))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", test],
            cwd=copy, env=dict(os.environ, PYTHONPATH=str(copy / "src")),
            capture_output=True,
        )
    return proc.returncode == 1


if __name__ == "__main__":
    records = []
    for mutant in MUTANTS:
        start = time.perf_counter()
        dead = killed(mutant)
        path, old, new, test = mutant
        records.append({"file": path, "old": old, "new": new, "test": test,
                        "verdict": "killed" if dead else "survived",
                        "seconds": round(time.perf_counter() - start, 1)})
        print("killed " if dead else "SURVIVED", path, test, flush=True)
    (ROOT / "MUTANTS.json").write_text(json.dumps(records, indent=1) + "\n")
    sys.exit(0 if all(r["verdict"] == "killed" for r in records) else 1)
