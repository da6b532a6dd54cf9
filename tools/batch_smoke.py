#!/usr/bin/env python3
"""Kill/resume smoke for `msyn batch`: the journal is the checkpoint.

    tools/batch_smoke.py examples/batch_manifest.jsonl \
        --msyn _build/default/bin/msyn.exe --jobs 4 \
        --expect-failed inject-raise --expect-timed-out inject-hang \
        --expect-infeasible infeasible-gain

It runs the manifest to completion at --jobs 1, then runs it again at
--jobs N, SIGKILLs that run mid-flight, appends a torn half-record to the
journal, resumes, and demands the resumed journal be byte-identical to the
uninterrupted one.  --expect-failed/--expect-timed-out/--expect-infeasible
assert the status the named jobs must land on.
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


def read_records(journal):
    records = {}
    with open(journal) as f:
        for line in f:
            line = line.strip()
            if line:
                r = json.loads(line)
                records[r["id"]] = r
    return records


def count_records(journal):
    """Complete (newline-terminated) lines in the journal, 0 if absent."""
    if not os.path.exists(journal):
        return 0
    with open(journal) as f:
        return f.read().count("\n")


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


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

    def batch(journal, jobs):
        cmd = msyn + ["batch", args.manifest, "--journal", journal, "--jobs", str(jobs)]
        proc = subprocess.run(cmd)
        if proc.returncode != 0:
            fail(f"{' '.join(cmd)} exited {proc.returncode}")

    print(f"smoke: reference run at --jobs 1 -> {ja}")
    batch(ja, 1)
    check_expectations(read_records(ja), args)

    print(f"smoke: interrupted run at --jobs {args.jobs} -> {jb}")
    cmd = msyn + ["batch", args.manifest, "--journal", jb, "--jobs", str(args.jobs)]
    proc = subprocess.Popen(cmd, start_new_session=True)
    # let it record at least one job, then kill the whole process group
    deadline = time.time() + args.kill_timeout
    while time.time() < deadline and proc.poll() is None:
        if count_records(jb) >= 1:
            break
        time.sleep(0.1)
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"smoke: killed after {count_records(jb)} record(s)")
    else:
        print("smoke: run finished before the kill; resume will be a no-op check")
    # simulate a record torn mid-write by the kill
    with open(jb, "a") as f:
        f.write('{"id":"torn-by-kill","seed":1,"att')

    print("smoke: resuming")
    batch(jb, args.jobs)
    a, b = read_bytes(ja), read_bytes(jb)
    if a != b:
        fail(f"resumed journal {jb} differs from uninterrupted {ja}")
    records = read_records(jb)
    check_expectations(records, args)
    print(f"ok: resumed journal byte-identical ({len(b)} bytes, {len(records)} records)")


def main():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("manifest", help="JSONL manifest to run, kill and resume")
    p.add_argument("--msyn", default="_build/default/bin/msyn.exe",
                   help="msyn command (shell-split)")
    p.add_argument("--jobs", type=int, default=4,
                   help="worker count for the interrupted run")
    p.add_argument("--kill-timeout", type=float, default=300.0,
                   help="give up waiting for the first record after this long")
    p.add_argument("--expect-failed", action="append", default=[], metavar="ID")
    p.add_argument("--expect-timed-out", action="append", default=[], metavar="ID")
    p.add_argument("--expect-infeasible", action="append", default=[], metavar="ID")
    run_smoke(p.parse_args())


if __name__ == "__main__":
    main()
