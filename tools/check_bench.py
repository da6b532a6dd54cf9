#!/usr/bin/env python3
"""Assert the machine-readable bench reports, and smoke-test batch resume.

Assert mode (used by CI and by hand after `dune exec bench/main.exe`):

    tools/check_bench.py BENCH_parallel.json --min-jobs 4 \
        --min-speedup 2.0 --max-minor-words ac-sweep=400
    tools/check_bench.py BENCH_batch.json --min-jobs 2 \
        --min-batch-speedup 1.0 --max-batch-minor-words 4e6

dispatches on the report's "experiment" field:
  parallel: every bench must be bit-identical across its repeats and
            between jobs=1 and every measured worker count, the best
            speedup must clear --min-speedup (default 1.0), and any bench
            named in --max-minor-words must stay under its
            minor-allocation cap (words per solve, measured at --jobs 1);
            both parallel and batch reports must have been timed over at
            least --min-repeats repeated runs (median reported);
  batch:    every job either completes or is prefiltered as provably
            infeasible (completed + prefiltered_jobs == n_jobs), at least
            --min-prefiltered jobs must have been prefiltered, the journal
            must be byte-identical between sequential and parallel runs
            and across a resume from a torn journal, parallel throughput
            must clear --min-batch-speedup, per-job allocation must
            stay under --max-batch-minor-words when given, and the
            stage_cache section must clear --min-cache-hit-rate /
            --min-cache-speedup when given (with cached and uncached
            journals byte-identical);
  serve:    the HTTP service's journal must be byte-identical to the
            sequential batch reference, the drain must have finished every
            accepted job, the read path must clear --min-rps and
            --max-p99-ms, and the capacity-1 burst must have shed at least
            --min-queue-full requests with 429 (proof the queue bound is
            enforced, not absorbed).

Speedup targets assume the host can scale: when a report's host_cores is
below --min-jobs the scaling gates degrade (loudly) to --no-slowdown-floor,
so the committed single-core BENCH files stay honest while multi-core CI
enforces the full targets.  Cache gates never degrade -- avoided work is
avoided on any host.

Smoke mode drives the real `msyn batch` CLI through an interruption:

    tools/check_bench.py --smoke examples/batch_manifest.jsonl \
        --msyn _build/default/bin/msyn.exe --jobs 4 \
        --expect-failed inject-raise --expect-timed-out inject-hang \
        --expect-infeasible infeasible-gain

It runs the manifest to completion at --jobs 1, then runs it again at
--jobs N, SIGKILLs that run mid-flight, appends a torn half-record to the
journal, resumes, and demands the resumed journal be byte-identical to the
uninterrupted one.  --expect-failed/--expect-timed-out assert the status
the named jobs must land on.
"""

import argparse
import json
import os
import shlex
import signal
import subprocess
import sys
import tempfile
import time


def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


# ---------------------------------------------------------------- assert mode


def parse_word_caps(pairs):
    """--max-minor-words NAME=WORDS pairs -> {name: words}"""
    caps = {}
    for pair in pairs:
        name, sep, words = pair.partition("=")
        if not sep:
            fail(f"--max-minor-words wants NAME=WORDS, got {pair!r}")
        caps[name] = float(words)
    return caps


def check_repeats(report, args):
    repeats = report.get("repeats", 1)
    if repeats < args.min_repeats:
        fail(
            f"bench timed over {repeats} repeat(s), need >= {args.min_repeats} "
            f"(set MIXSYN_BENCH_REPEATS and rerun)"
        )


def scaling_gate(report, args, want, what):
    """A speedup target only makes sense when the host has the cores to
    scale onto.  The BENCH reports record host_cores for exactly this
    reconciliation: on an under-provisioned host the gate degrades --
    loudly -- to the no-slowdown floor, so a laptop or 1-core container
    can still run the checks while multi-core CI enforces the real
    target.  A report without host_cores predates the field and is held
    to the full target."""
    host = report.get("host_cores")
    if host is not None and host < args.min_jobs:
        floor = min(want, args.no_slowdown_floor)
        print(
            f"WARNING: host has {host} core(s) but the gate asks for "
            f"{args.min_jobs} workers; {what} target degraded from {want}x "
            f"to the no-slowdown floor {floor}x (the full target is "
            f"enforced on multi-core CI)",
            file=sys.stderr,
        )
        return floor
    return want


def check_parallel(report, args):
    if report["jobs"] < args.min_jobs:
        fail(f"parallel bench ran at {report['jobs']} jobs, need >= {args.min_jobs}")
    check_repeats(report, args)
    caps = parse_word_caps(args.max_minor_words)
    for b in report["benches"]:
        if not b["identical"]:
            fail(f"parallel result diverged: {b}")
        cap = caps.pop(b["name"], None)
        if cap is not None:
            words = b.get("minor_words_per_item")
            if words is None:
                fail(f"{b['name']}: no minor_words_per_item in report; rerun the bench")
            if words > cap:
                fail(
                    f"{b['name']} allocates {words} minor words/item, "
                    f"cap is {cap} (allocation regression in the solve kernels?)"
                )
    if caps:
        fail(f"--max-minor-words names unknown benches: {sorted(caps)}")
    min_speedup = scaling_gate(report, args, args.min_speedup, "parallel speedup")
    if report["best_speedup"] < min_speedup:
        fail(f"no speedup at {report['jobs']} jobs: {report}")
    print(f"ok: best speedup {report['best_speedup']}x at {report['jobs']} jobs")


def check_batch(report, args):
    if report["jobs"] < args.min_jobs:
        fail(f"batch bench ran at {report['jobs']} jobs, need >= {args.min_jobs}")
    check_repeats(report, args)
    prefiltered = report.get("prefiltered_jobs", 0)
    if report["completed"] + prefiltered != report["n_jobs"]:
        fail(
            f"only {report['completed']} completed + {prefiltered} prefiltered "
            f"of {report['n_jobs']} batch jobs"
        )
    if prefiltered < args.min_prefiltered:
        fail(
            f"only {prefiltered} jobs prefiltered as infeasible, "
            f"need >= {args.min_prefiltered} (is the static prefilter wired in?)"
        )
    if not report["identical"]:
        fail("batch journal differs between sequential and parallel runs")
    if not report["resume_identical"]:
        fail("batch journal differs after resuming from a torn journal")
    if report["resume_skipped"] <= 0:
        fail("batch resume re-ran every job; the checkpoint was ignored")
    min_batch = scaling_gate(report, args, args.min_batch_speedup, "batch throughput")
    if report["speedup"] < min_batch:
        fail(
            f"batch throughput gained only {report['speedup']}x at "
            f"{report['jobs']} workers, need >= {min_batch}"
        )
    if args.min_cache_hit_rate is not None or args.min_cache_speedup is not None:
        cache = report.get("stage_cache")
        if cache is None:
            fail("no stage_cache section in report; rerun the bench")
        if not cache.get("identical", False):
            fail("batch journal differs with the stage cache on vs off")
        if (
            args.min_cache_hit_rate is not None
            and cache["hit_rate"] < args.min_cache_hit_rate
        ):
            fail(
                f"stage-cache hit rate {cache['hit_rate']} on the repeated-spec "
                f"manifest, need >= {args.min_cache_hit_rate}"
            )
        # cache wins come from work avoided, not from extra cores, so this
        # gate holds on any host and is never degraded
        if (
            args.min_cache_speedup is not None
            and cache["speedup"] < args.min_cache_speedup
        ):
            fail(
                f"stage cache sped the repeated-spec manifest up only "
                f"{cache['speedup']}x, need >= {args.min_cache_speedup}"
            )
    if args.max_batch_minor_words is not None:
        words = report.get("minor_words_per_job")
        if words is None:
            fail("no minor_words_per_job in report; rerun the bench")
        if words > args.max_batch_minor_words:
            fail(
                f"batch jobs allocate {words} minor words each, "
                f"cap is {args.max_batch_minor_words}"
            )
    print(
        f"ok: {report['n_jobs']} jobs ({prefiltered} prefiltered), "
        f"{report['jobs_per_s']} jobs/s at "
        f"{report['jobs']} workers, journals identical (resume skipped "
        f"{report['resume_skipped']})"
    )


def check_serve(report, args):
    if not report["journal_identical"]:
        fail("serve journal differs from the sequential batch reference")
    if not report["drained"]:
        fail("serve drain left accepted jobs unfinished")
    # latency gates are absolute, not scaling gates: a 1-core host still
    # answers loopback status reads quickly, so these never degrade
    if report["rps"] < args.min_rps:
        fail(
            f"serve read path managed {report['rps']} requests/s, "
            f"need >= {args.min_rps}"
        )
    if args.max_p99_ms is not None and report["p99_ms"] > args.max_p99_ms:
        fail(
            f"serve p99 latency {report['p99_ms']} ms over the "
            f"{args.max_p99_ms} ms cap (p50 {report['p50_ms']} ms)"
        )
    if report["queue_full_429"] < args.min_queue_full:
        fail(
            f"the capacity-1 burst drew only {report['queue_full_429']} "
            f"429(s), need >= {args.min_queue_full} (is the queue bound "
            f"enforced?)"
        )
    print(
        f"ok: {report['rps']} req/s (p50 {report['p50_ms']} ms, "
        f"p99 {report['p99_ms']} ms), {report['n_jobs']} jobs byte-identical, "
        f"{report['queue_full_429']} queue-full 429(s)"
    )


CHECKS = {"parallel": check_parallel, "batch": check_batch, "serve": check_serve}


def run_assert(args):
    for path in args.reports:
        with open(path) as f:
            report = json.load(f)
        experiment = report.get("experiment")
        if experiment not in CHECKS:
            fail(f"{path}: unknown experiment {experiment!r}")
        print(f"{path}: ", end="")
        CHECKS[experiment](report, args)


# ----------------------------------------------------------------- smoke mode


def read_records(journal):
    records = {}
    with open(journal) as f:
        for line in f:
            line = line.strip()
            if line:
                r = json.loads(line)
                records[r["id"]] = r
    return records


def check_expectations(records, args):
    for job_id in args.expect_failed:
        status = records.get(job_id, {}).get("status")
        if status != "failed":
            fail(f"job {job_id} should be failed, is {status!r}")
    for job_id in args.expect_timed_out:
        status = records.get(job_id, {}).get("status")
        if status != "timed_out":
            fail(f"job {job_id} should be timed_out, is {status!r}")
    for job_id in args.expect_infeasible:
        record = records.get(job_id, {})
        if record.get("status") != "infeasible":
            fail(f"job {job_id} should be infeasible, is {record.get('status')!r}")
        if record.get("attempts") != 0 or "spec" not in record or "bound" not in record:
            fail(f"infeasible record for {job_id} is malformed: {record}")


def run_smoke(args):
    msyn = shlex.split(args.msyn)
    workdir = tempfile.mkdtemp(prefix="msyn_smoke_")
    ja = os.path.join(workdir, "reference.journal")
    jb = os.path.join(workdir, "interrupted.journal")

    def batch(journal, jobs, check=True):
        cmd = msyn + ["batch", args.manifest, "--journal", journal, "--jobs", str(jobs)]
        proc = subprocess.run(cmd)
        if check and proc.returncode != 0:
            fail(f"{' '.join(cmd)} exited {proc.returncode}")

    print(f"smoke: reference run at --jobs 1 -> {ja}")
    batch(ja, 1)
    reference = read_records(ja)
    check_expectations(reference, args)

    print(f"smoke: interrupted run at --jobs {args.jobs} -> {jb}")
    cmd = msyn + ["batch", args.manifest, "--journal", jb, "--jobs", str(args.jobs)]
    proc = subprocess.Popen(cmd, start_new_session=True)
    # let it record at least one job, then kill the whole process group
    deadline = time.time() + args.kill_timeout
    while time.time() < deadline and proc.poll() is None:
        if os.path.exists(jb) and open(jb).read().count("\n") >= 1:
            break
        time.sleep(0.1)
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"smoke: killed after {open(jb).read().count(chr(10))} record(s)")
    else:
        print("smoke: run finished before the kill; resume will be a no-op check")
    # simulate a record torn mid-write by the kill
    with open(jb, "a") as f:
        f.write('{"id":"torn-by-kill","seed":1,"att')

    print("smoke: resuming")
    batch(jb, args.jobs)
    a, b = open(ja, "rb").read(), open(jb, "rb").read()
    if a != b:
        fail(f"resumed journal {jb} differs from uninterrupted {ja}")
    check_expectations(read_records(jb), args)
    print(
        f"ok: resumed journal byte-identical ({len(b)} bytes, "
        f"{len(read_records(jb))} records)"
    )


# ------------------------------------------------------------------------ cli


def main():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("reports", nargs="*", help="BENCH_*.json files to assert")
    p.add_argument("--min-jobs", type=int, default=1)
    p.add_argument("--min-repeats", type=int, default=1,
                   help="require the report's timings to be medians over at "
                        "least this many repeats")
    p.add_argument("--min-speedup", type=float, default=1.0,
                   help="parallel: required best speedup over --jobs 1")
    p.add_argument("--min-batch-speedup", type=float, default=0.0,
                   help="batch: required parallel-over-sequential throughput gain")
    p.add_argument("--max-minor-words", action="append", default=[],
                   metavar="NAME=WORDS",
                   help="parallel: cap minor words/item for the named bench "
                        "(e.g. ac-sweep=400); repeatable")
    p.add_argument("--max-batch-minor-words", type=float, default=None,
                   metavar="WORDS", help="batch: cap minor words per job")
    p.add_argument("--min-cache-hit-rate", type=float, default=None,
                   metavar="RATE",
                   help="batch: required stage-cache hit rate on the "
                        "repeated-spec manifest (0..1)")
    p.add_argument("--min-cache-speedup", type=float, default=None,
                   metavar="SPEEDUP",
                   help="batch: required cached-over-uncached speedup on the "
                        "repeated-spec manifest")
    p.add_argument("--min-rps", type=float, default=0.0,
                   help="serve: required read-path requests/s")
    p.add_argument("--max-p99-ms", type=float, default=None,
                   help="serve: cap on read-path p99 latency in ms")
    p.add_argument("--min-queue-full", type=int, default=1,
                   help="serve: required 429 count from the capacity-1 burst")
    p.add_argument("--no-slowdown-floor", type=float, default=0.9,
                   help="degraded speedup gate applied when the host has "
                        "fewer cores than --min-jobs (see the BENCH reports' "
                        "host_cores field)")
    p.add_argument("--min-prefiltered", type=int, default=0,
                   help="batch: require at least this many jobs skipped as "
                        "provably infeasible by the static prefilter")
    p.add_argument("--smoke", metavar="MANIFEST", dest="manifest",
                   help="run the kill/resume smoke against this manifest")
    p.add_argument("--msyn", default="_build/default/bin/msyn.exe",
                   help="msyn command for --smoke (shell-split)")
    p.add_argument("--jobs", type=int, default=4,
                   help="worker count for the interrupted smoke run")
    p.add_argument("--kill-timeout", type=float, default=300.0,
                   help="give up waiting for the first record after this long")
    p.add_argument("--expect-failed", action="append", default=[], metavar="ID")
    p.add_argument("--expect-timed-out", action="append", default=[], metavar="ID")
    p.add_argument("--expect-infeasible", action="append", default=[], metavar="ID")
    args = p.parse_args()
    if not args.reports and not args.manifest:
        p.error("nothing to do: pass BENCH_*.json files and/or --smoke MANIFEST")
    if args.reports:
        run_assert(args)
    if args.manifest:
        run_smoke(args)


if __name__ == "__main__":
    main()
