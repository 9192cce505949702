#!/usr/bin/env python3
"""Builds and runs driftbench, the repository's end-to-end benchmark.

    python3 perfbench/run.py --workload sim-mesh|node-ingest|serve-mixed \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  The first call configures and builds the
driftsync libraries from ./src plus the benchmark in perfbench/cpp/ into
.bench_build/ (about a minute); later calls rebuild only what changed.
Build output goes to stderr, so the JSON result stays the last line of
stdout.  --selftest builds and runs the determinism self-test.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, '.bench_build')


def check(cmd):
    rc = subprocess.call(cmd, stdout=sys.stderr)
    if rc != 0:
        sys.stderr.write('run.py: %s failed with code %d\n' % (cmd[0], rc))
        sys.exit(rc if rc > 0 else 1)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, 'src', 'CMakeLists.txt')):
        sys.stderr.write('run.py: no driftsync sources under %s/src\n' % ROOT)
        sys.exit(2)
    if not os.path.isfile(os.path.join(BUILD, 'CMakeCache.txt')):
        check(['cmake', '-S', HERE, '-B', BUILD,
               '-DCMAKE_BUILD_TYPE=RelWithDebInfo'])
    jobs = str(min(4, os.cpu_count() or 1))
    check(['cmake', '--build', BUILD, '-j', jobs, '--target', target])


def main():
    args = sys.argv[1:]
    if args == ['--selftest']:
        build('driftbench_selftest')
        work = os.path.join(BUILD, 'selftest')
        os.makedirs(work, exist_ok=True)
        os.execv(os.path.join(BUILD, 'driftbench_selftest'),
                 ['driftbench_selftest', work])
    build('driftbench')
    os.chdir(ROOT)
    binary = os.path.join(BUILD, 'driftbench')
    os.execv(binary, [binary] + args + ['--work-dir', os.path.join(BUILD, 'work')])


if __name__ == '__main__':
    main()
