"""End-to-end benchmark of bentkit, built from the checkout's source.

    python3 perfbench/run.py --workload {cli-build,cli-psap,corpus} \\
        --seed N --seconds S --trace {0,1}

Each run executes a fixed list of jobs, one at a time: the list's length
depends only on the workload and S (it takes about S seconds on a 2-core
machine), its contents only on the seed.  The set-up (a cold process and
a discarded warm-up job) is measured three times and reported as its
median.  Inputs are drawn before, and outputs checked after, each timed
window, with the benchmark's own reference code in checks.py.

--trace 0 prints the end-to-end metrics; --trace 1 runs the same jobs
in-process under tracer.py and prints the per-layer metrics instead.
The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"
SRC = ROOT / "src"

# jobs per second of --seconds, and the jobs in one round of the list
JOB_RATE = {"cli-build": 0.7, "cli-psap": 1.0, "corpus": 130.0}
ROUND = {"cli-build": 2, "cli-psap": 2, "corpus": 12}
TRACED_JOBS = {"cli-build": 4, "cli-psap": 4, "corpus": 240}
SETUPS = 3
IMPORTS = 5
PSAP_M = 9
BUILD_F_VARS, BUILD_G_VARS = 20, 4
CORPUS_POOL = 2012  # seeds the pool of generator seeds for corpus jobs


def job_count(workload: str, seconds: int) -> int:
    rounds = max(1, round(seconds * JOB_RATE[workload] / ROUND[workload]))
    return rounds * ROUND[workload]


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def spawn(argv: list[str], stdout: Path) -> tuple[float, int, float]:
    """Run one process to its exit: wall seconds, exit code, peak RSS MiB."""
    with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024


# -- inputs -----------------------------------------------------------------


def random_mm(k: int, rng: random.Random) -> np.ndarray:
    perm = rng.sample(range(1 << k), 1 << k)
    u = np.array([rng.getrandbits(1) for _ in range(1 << k)], dtype=np.uint8)
    return checks.mm_table(perm, u)


def balanced_theta(m: int, rng: random.Random) -> list[int]:
    """A balanced theta over GF(2^m) with theta(0) = 0, as psap_bent needs."""
    half = 1 << (m - 1)
    rest = [1] * half + [0] * (half - 1)
    rng.shuffle(rest)
    return [0] + rest


def repeated(distinct: list[dict], count: int) -> list[dict]:
    """The distinct jobs in turn until there are `count`, each keyed by
    its index in `distinct`."""
    return [distinct[j % len(distinct)] | {"key": j % len(distinct)} for j in range(count)]


def cli_build_inputs(seed: int, work: Path, count: int) -> list[dict]:
    """ROUND distinct restricted-indirect-sum jobs, repeated to `count`."""
    rng = random.Random(seed)
    distinct = []
    for i in range(ROUND["cli-build"]):
        f = random_mm(BUILD_F_VARS // 2, rng)
        g = random_mm(BUILD_G_VARS // 2, rng)
        mu, rho = rng.randint(1, BUILD_F_VARS), rng.randint(1, BUILD_G_VARS)
        variant = rng.choice(["00", "01", "10", "11"])
        (work / f"f{i}.tt").write_text(checks.encode(f))
        (work / f"g{i}.tt").write_text(checks.encode(g))
        distinct.append({
            "args": ["build", "restricted-indirect-sum", "--f", str(work / f"f{i}.tt"),
                     "--mu", str(mu), "--g", str(work / f"g{i}.tt"), "--rho", str(rho),
                     "--variant", variant],
            "expected": lambda f=f, mu=mu, g=g, rho=rho, v=variant:
                checks.restricted_sum(f, mu, g, rho, v),
        })
    return repeated(distinct, count)


def cli_psap_inputs(seed: int, work: Path, count: int) -> list[dict]:
    """ROUND distinct PS_ap jobs over balanced theta tables, repeated."""
    rng = random.Random(seed)
    distinct = []
    for i in range(ROUND["cli-psap"]):
        theta = balanced_theta(PSAP_M, rng)
        param = work / f"theta{i}.json"
        param.write_text(json.dumps({"m": PSAP_M, "theta": theta}))
        distinct.append({
            "args": ["build", "psap", "--param-file", str(param)],
            "expected": lambda theta=theta: checks.psap_table(theta, PSAP_M),
        })
    return repeated(distinct, count)


def corpus_inputs(seed: int, count: int) -> list[dict]:
    """Rounds of 12 jobs that cover every pairing of the bent sizes
    (n, m) with the resilient size and every (t, k).

    The generator seeds handed to bentkit come from a fixed pool, so every
    run builds the same multiset of functions: the rejection sampling in
    random_resilient_triple gives job times a long tail, and a pool drawn
    afresh per run would move job_tail_ms by a third from seed to seed.
    The seed draws the restriction coordinates mu, rho and the job order.
    """
    pool = random.Random(CORPUS_POOL)
    rng = random.Random(seed)
    jobs = []
    for j in range(count):
        n, m = [(6, 6), (6, 8), (8, 6), (8, 8)][j % 4]
        t, k = divmod((j // 3) % 4, 2)
        jobs.append({
            "n": n, "m": m, "mu": rng.randint(1, n), "rho": rng.randint(1, m),
            "nf": 4 + j % 3, "ng": 4 + (j + 1) % 3, "t": t, "k": k,
            "seed": pool.getrandbits(64),
        })
    rng.shuffle(jobs)
    return jobs


# -- checks of CLI outputs -------------------------------------------------------


class CliChecker:
    """Checks one CLI job's output file and JSON summary.  The first
    output of each distinct job is checked in full; every repeat must be
    byte-identical to it."""

    def __init__(self):
        self.seen: dict[int, tuple[bytes, dict]] = {}

    def __call__(self, job: dict, exit_code: int, stdout: str, output: Path) -> str | None:
        """None if the job passed; else why it failed."""
        if exit_code != 0:
            return f"refused: exit code {exit_code}"
        try:
            text = output.read_bytes()
            summary = json.loads(stdout)
            if job["key"] in self.seen:
                first, claims = self.seen[job["key"]]
                checks.require(text == first, "repeat output differs")
            else:
                n, bits = checks.decode(text.decode())
                expected = job["expected"]()
                checks.require(n == expected.size.bit_length() - 1, f"n={n}")
                checks.require((bits == expected).all(), "table differs from reference")
                claims = checks.bent_claims(bits)
                checks.require(claims["bent"], "output is not bent")
                self.seen[job["key"]] = text, claims
            checks.require(summary["verified"] == claims, "verified block differs")
        except (checks.CheckFailed, OSError, ValueError, KeyError) as exc:
            return f"wrong: {type(exc).__name__}: {exc}"
        return None


# -- workloads --------------------------------------------------------------


def harness(spec: dict, work: Path, name: str) -> tuple[dict, float]:
    """Run perfbench/harness.py on a spec; its result and peak RSS MiB."""
    path = work / f"{name}.json"
    path.write_text(json.dumps(spec))
    out = work / f"{name}.out"
    _, code, rss = spawn([sys.executable, str(BENCH / "harness.py"), str(path)], out)
    if code != 0:
        raise RuntimeError(f"harness exited {code}: {out.with_suffix('.err').read_text()}")
    return json.loads(out.read_text().splitlines()[-1]), rss


def import_ms(work: Path) -> float:
    """Median time a fresh process takes to import bentkit.cli."""
    code = ("import time; t = time.perf_counter(); import bentkit.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for i in range(IMPORTS):
        out = work / f"import{i}.out"
        _, rc, _ = spawn([sys.executable, "-c", code], out)
        if rc != 0:
            raise RuntimeError("bentkit.cli does not import")
        samples.append(float(out.read_text()) * 1e3)
    return statistics.median(samples)


def run_cli(workload: str, seed: int, seconds: int, trace: bool, work: Path) -> dict:
    count = job_count(workload, seconds)
    if trace:
        count = min(count, TRACED_JOBS[workload])
    make = cli_build_inputs if workload == "cli-build" else cli_psap_inputs
    jobs = make(seed, work, count)
    for j, job in enumerate(jobs):
        job["output"] = work / f"h{j}.tt"
    check = CliChecker()
    errors = []

    if trace:
        spec = {"workload": workload, "trace": True, "setup_only": False,
                "spans": str(OUT / f"spans-{workload}.npz"),
                "jobs": [{"argv": job["args"] + ["-o", str(job["output"])]} for job in jobs]}
        result, rss = harness(spec, work, "traced")
        for job, out in zip(jobs, result["outputs"]):
            err = check(job, out["exit"], out["stdout"], job["output"])
            if err:
                errors.append(err)
        metrics = result["layers"] | {"cli.import_ms": import_ms(work)}
        return {"attempted": count, "failed": result["failed"] + len(errors),
                "errors": result["errors"] + errors, "metrics": metrics, "rss_mib": rss}

    cli = [sys.executable, "-m", "bentkit"]
    setups = []
    for i in range(SETUPS):  # cold process running the warm-up job
        out = work / f"setup{i}.tt"
        wall, code, _ = spawn(cli + jobs[0]["args"] + ["-o", str(out)], work / f"setup{i}.json")
        err = check(jobs[0], code, (work / f"setup{i}.json").read_text(), out)
        if err:
            raise RuntimeError(f"warm-up job failed: {err}")
        setups.append(wall)

    times, rss = [], []
    for job in jobs:
        stdout = job["output"].with_suffix(".json")
        wall, code, peak = spawn(cli + job["args"] + ["-o", str(job["output"])], stdout)
        err = check(job, code, stdout.read_text(), job["output"])
        job["output"].unlink(missing_ok=True)
        if err:
            errors.append(err)
            continue
        times.append(wall)
        rss.append(peak)
    return {"attempted": count, "failed": len(errors), "errors": errors,
            "times": times, "rss_mib": max(rss, default=0.0),
            "setup_s": statistics.median(setups)}


def run_corpus(seed: int, seconds: int, trace: bool, work: Path) -> dict:
    count = job_count("corpus", seconds)
    if trace:
        count = min(count, TRACED_JOBS["corpus"])
    spec = {"workload": "corpus", "trace": trace, "setup_only": False,
            "spans": str(OUT / "spans-corpus.npz"), "jobs": corpus_inputs(seed, count)}
    if trace:
        result, rss = harness(spec, work, "traced")
        metrics = result["layers"] | {"cli.import_ms": import_ms(work)}
        return {"attempted": count, "failed": result["failed"],
                "errors": result["errors"], "metrics": metrics, "rss_mib": rss}
    setups = [harness(spec | {"setup_only": True}, work, f"setup{i}")[0]["setup_s"]
              for i in range(SETUPS - 1)]
    result, rss = harness(spec, work, "corpus")
    return {"attempted": count, "failed": result["failed"], "errors": result["errors"],
            "times": result["times"], "rss_mib": rss,
            "setup_s": statistics.median(setups + [result["setup_s"]])}


def end_to_end(run: dict) -> dict:
    """The end-to-end metrics of one untraced run."""
    times = sorted(run["times"])
    p50 = statistics.median(times)
    # the highest percentile with ten jobs beyond it; a run of fewer than
    # forty jobs has no such tail, and repeats its median instead
    tail = times[-11] if len(times) >= 40 else p50
    return {
        "job_p50_ms": p50 * 1e3,
        "job_tail_ms": tail * 1e3,
        "throughput_jobs_per_s": len(times) / sum(times),
        "peak_rss_mib": run["rss_mib"],
        "setup_s": run["setup_s"],
    }


UNITS = {"job_p50_ms": "ms", "job_tail_ms": "ms", "throughput_jobs_per_s": "1/s",
         "peak_rss_mib": "MiB", "setup_s": "s"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(JOB_RATE))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (SRC / "bentkit" / "__init__.py").is_file():
        print(f"error: no bentkit source under {SRC}", file=sys.stderr)
        return 2

    # build: compile the package once so no timed process pays for it
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)], check=True)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        if args.workload == "corpus":
            run = run_corpus(args.seed, args.seconds, bool(args.trace), work)
        else:
            run = run_cli(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        from tracer import metric_units

        units = metric_units()
        metrics = {k: {"value": run["metrics"][k], "unit": u} for k, u in units.items()}
    else:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in end_to_end(run).items()}
    for err in run["errors"]:
        print(f"failed: {err}", file=sys.stderr)
    (OUT / f"last-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(run | {"metrics": metrics}, indent=1, default=str))
    wrong = [e for e in run["errors"] if e.startswith("wrong")]
    print(json.dumps({"correct": not wrong, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
