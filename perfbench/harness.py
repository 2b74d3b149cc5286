"""In-process side of the benchmark: one harness process per call.

    python3 perfbench/harness.py SPEC.json

SPEC (written by run.py) names the workload, the jobs, whether to trace,
and where to write spans.  The harness imports bentkit, runs the first
job once as a discarded warm-up, then runs every job one at a time and
prints one JSON line: set-up time, per-job times (CPU time for `corpus`
jobs, wall time otherwise), failures and, when traced, the per-layer
metrics.

`corpus` jobs are checked here, between jobs and outside the timed
window, because their outputs are in-process objects.  Traced CLI jobs
are replayed through bentkit.cli.main(argv) and their output files are
checked by run.py.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up starts before bentkit is imported

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

VARIANTS = ("00", "01", "10", "11")


def corpus_job(bk, job: dict) -> dict:
    """One restricted-indirect-sum instance and one resilient
    generalized-indirect-sum instance, each built and certified."""
    rng = bk.XorShift64Star(job["seed"])
    f = bk.rand.random_bent(job["n"], rng)
    g = bk.rand.random_bent(job["m"], rng)
    mu, rho = job["mu"], job["rho"]
    variants = {v: bk.restricted_indirect_sum(f, mu, g, rho, v) for v in VARIANTS}
    hdual = bk.restricted_indirect_sum_dual(f, mu, g, rho)
    profiles = {v: bk.analyze(h) for v, h in variants.items()}
    t, k = job["t"], job["k"]
    fs = bk.rand.random_resilient_triple(job["nf"], t, rng)
    gs = bk.rand.random_resilient_triple(job["ng"], k, rng)
    r = bk.generalized_indirect_sum(*fs, *gs, mode="resilient", t=t, k=k)
    return {
        "f": f, "g": g, "variants": variants, "dual": hdual, "profiles": profiles,
        "fs": fs, "gs": gs, "resilient": r, "resilient_profile": bk.analyze(r),
    }


def digest(out: dict) -> tuple:
    """Everything a corpus job produced, for byte-identity of repeats."""
    tables = [out["f"], out["g"], *out["variants"].values(), out["dual"],
              *out["fs"], *out["gs"], out["resilient"]]
    profiles = [p.as_dict() for p in out["profiles"].values()]
    return ([(h.n, h.mask) for h in tables],
            json.dumps(profiles + [out["resilient_profile"].as_dict()]))


def check_corpus(job: dict, out: dict) -> None:
    """Raise CheckFailed unless the job's outputs are what the method
    promises, computed again with the benchmark's own transforms."""
    import numpy as np

    import checks as c

    def bits(h):
        return c.from_mask(h.mask, h.n)

    f, g = bits(out["f"]), bits(out["g"])
    n_out = job["n"] + job["m"] - 2
    c.require(all(h.n == n_out for h in out["variants"].values()), "wrong variable count")
    tables = np.stack([bits(h) for h in out["variants"].values()])
    spectra, coeffs = c.walsh(tables), c.anf(tables)
    for i, v in enumerate(out["variants"]):
        expected = c.restricted_sum(f, job["mu"], g, job["rho"], v)
        c.require((tables[i] == expected).all(), f"variant {v} differs from the formula")
        c.require(c.is_bent(spectra[i]), f"variant {v} is not bent")
        prof = out["profiles"][v]
        c.require(prof.bent, f"analyze calls variant {v} not bent")
        c.require(prof.nonlinearity == c.nonlinearity(spectra[i]),
                  f"variant {v}: wrong nonlinearity")
        c.require(prof.degree == c.degree(coeffs[i]), f"variant {v}: wrong degree")
    dual_signs = (spectra[0] < 0).astype(np.uint8)
    c.require((bits(out["dual"]) == dual_signs).all(), "dual formula differs")

    t, k = job["t"], job["k"]
    f1, f2, f3 = (bits(h) for h in out["fs"])
    g1, g2, g3 = (bits(h) for h in out["gs"])
    expected = (
        f1[:, None] ^ g1[None, :]
        ^ ((f1 ^ f2)[:, None] & (g1 ^ g2)[None, :])
        ^ ((f2 ^ f3)[:, None] & (g2 ^ g3)[None, :])
    ).reshape(-1)
    table = bits(out["resilient"])
    c.require((table == expected).all(), "generalized indirect sum differs")
    spectrum = c.walsh(table)
    res = c.resiliency(spectrum)
    c.require(res >= t + k + 1, f"only {res}-resilient, promised {t + k + 1}")
    prof = out["resilient_profile"]
    c.require(prof.balanced and prof.resiliency == res, "analyze: wrong resiliency")
    c.require(prof.nonlinearity == c.nonlinearity(spectrum), "analyze: wrong nonlinearity")
    c.require(prof.degree == c.degree(c.anf(table)), "analyze: wrong degree")


def cli_job(bk, job: dict) -> dict:
    """Replay one CLI process in-process: its exit code and stdout."""
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            code = bk.cli.main(job["argv"])
    except SystemExit as exc:
        code = exc.code
    except Exception:  # the process would die with a traceback and exit 1
        code = 1
    return {"exit": code, "stdout": stdout.getvalue()}


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    import bentkit as bk
    import bentkit.cli  # noqa: F401  (bk.cli for replays)

    corpus = spec["workload"] == "corpus"
    run = corpus_job if corpus else cli_job
    warm = run(bk, spec["jobs"][0])
    setup_s = time.perf_counter() - _T0
    result = {"setup_s": setup_s, "times": [], "failed": 0, "errors": [], "outputs": []}
    if spec["setup_only"]:
        print(json.dumps(result))
        return 0

    import checks

    # A corpus job lasts ~7 ms, so host preemption of 10-25 ms would make
    # its wall time, and the run's tail, measure the host rather than the
    # job: corpus jobs are timed by the CPU time this process spends on them.
    clock = time.process_time if corpus else time.perf_counter
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer(job_clock=clock)
        tracer.install()
    for j, job in enumerate(spec["jobs"]):
        t0 = clock()
        try:
            out = tracer.run_job(j, run, bk, job) if tracer else run(bk, job)
        except Exception as exc:  # a failed job is counted, not fatal
            result["failed"] += 1
            result["errors"].append(f"refused: job {j}: {type(exc).__name__}: {exc}")
            continue
        elapsed = clock() - t0
        if not corpus:
            result["times"].append(elapsed)
            result["outputs"].append(out)
            continue
        try:
            check_corpus(job, out)
            if j == 0:
                checks.require(digest(out) == digest(warm), "repeat of the warm-up differs")
        except checks.CheckFailed as exc:
            result["failed"] += 1
            result["errors"].append(f"wrong: job {j}: {exc}")
            continue
        result["times"].append(elapsed)
    if tracer:
        result["layers"] = tracer.metrics(len(spec["jobs"]))
        tracer.save(spec["spans"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
