#!/usr/bin/env python3
"""Check that two levycf source trees print the same outputs on the benchmark's requests.

    python3 tools/same_outputs.py PARENT_SRC CHANGE_SRC [--seeds 1 2 3]

Each SRC is a directory that holds the `levycf` package, or a checkout whose
`src/` does.  Every request of the exact, stream and sweep workloads at full
size, for each seed, is built with `perfbench/workloads.py`, then run once
through `levycf.cli.main` in one child process per tree.  A request differs
when its exit code, its stderr, or its stdout with the `wall_time_s` value
left out differs between the trees.  Every differing request is listed; the
exit code is 1 if any differs, else 0.
"""

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WALL_TIME = re.compile(r'("wall_time_s": |^wall_time_s,)[-+0-9.eE]+', re.MULTILINE)


def run_requests():
    """Child mode: argv lists on stdin, [code, stdout, stderr] per request on stdout."""
    from levycf.cli import main

    results = []
    for argv in json.load(sys.stdin):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is an output too
                code = f"raised {type(exc).__name__}: {exc}"
        results.append([code, WALL_TIME.sub(r"\1", out.getvalue()), err.getvalue()])
    json.dump(results, sys.stdout)


def src_dir(path):
    return os.path.join(path, "src") if os.path.isdir(os.path.join(path, "src", "levycf")) else path


def outputs(src, argvs):
    env = dict(os.environ, PYTHONPATH=src_dir(src))
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--run-requests"],
                          input=json.dumps(argvs), capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout)


def main():
    if sys.argv[1:] == ["--run-requests"]:
        return run_requests()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_src")
    ap.add_argument("change_src")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    differing = checked = 0
    with tempfile.TemporaryDirectory() as workdir:
        for name in ("exact", "stream", "sweep"):
            for seed in args.seeds:
                # both trees read the same word files, so their paths print alike
                requests, _ = workloads.generate(name, seed, "full", workdir)
                argvs = [r["argv"] for r in requests]
                pairs = zip(requests, outputs(args.parent_src, argvs), outputs(args.change_src, argvs))
                for request, before, after in pairs:
                    checked += 1
                    fields = [f for f, x, y in zip(("exit code", "stdout", "stderr"), before, after) if x != y]
                    if fields:
                        differing += 1
                        print(f"{name} seed {seed} {request['id']}: {', '.join(fields)} differ: {' '.join(request['argv'])}")
    print(f"{differing} of {checked} requests differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
