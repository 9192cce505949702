#!/usr/bin/env python3
"""Interleaved A/B of the end-to-end benchmark: a git revision against the
working tree.

    python3 tools/perf_ab.py --base REV [--head REV] [--pairs 10]
        [--seconds 20] [--workloads node-ingest,sim-mesh,serve-mixed]
        [--seeds 101,102] [--metrics ops_per_s,latency_p99_us]
        [--scratch DIR] [--json PATH]

Run it from the root of a checkout.  It exports REV with `git archive` into
DIR/base-<sha> (a fresh temporary directory without --scratch), copies the
working tree's files (tracked and untracked, not ignored) into DIR/head,
and builds both through their own perfbench/run.py, from local sources
only; edits made while it runs reach neither side.  --head compares
against a second exported revision instead of the working tree.  Then,
per workload, it runs --pairs pairs of `perfbench/run.py --workload W
--seed S --seconds T --trace 0`, one run per side, alternating which side
goes first; pair i uses the i-th seed of --seeds, cycling.  --base HEAD
--head HEAD is an A/A run: it measures the spread of the box, not of the
code.  A --trace 0 result holds only the end-to-end metrics, so when
--metrics names a per-layer metric of BENCHMARK.json, each side of each
pair also makes one `--trace 1` run (after its untraced one, which is
skipped when no end-to-end metric is asked for), and the per-layer
metrics are read from those runs; a metric the workload does not report
is printed as absent.

For each workload and metric it prints the per-pair ratios (working tree
over base), the pairs the working tree won (in the direction
BENCHMARK.json gives the metric), each side's median and quartiles, and
whether the gap between the medians exceeds the base's interquartile range.
A run whose benchmark reports correct=false counts as failed: it is left
out of the ratios, the wins and the quartiles, the failures of each side
are printed, and the verdict is "no" whenever the working tree failed
more runs than the base.  The last column estimates how many pairs would
pin the median ratio to +-5% (95% confidence), from the spread of the
log-ratios seen.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ABSENT = object()  # A metric the run's result does not hold.


def sh(cmd, cwd, capture=False):
    if capture:
        return subprocess.run(cmd, cwd=cwd, check=True, text=True,
                              stdout=subprocess.PIPE).stdout
    subprocess.run(cmd, cwd=cwd, check=True, stdout=sys.stderr)
    return ''


def export(rev, scratch):
    """Extracts `rev` under `scratch` once; returns its directory."""
    sha = sh(['git', 'rev-parse', '--verify', rev + '^{commit}'], ROOT,
             capture=True).strip()
    tree = os.path.join(scratch, 'base-' + sha[:12])
    if not os.path.isfile(os.path.join(tree, 'perfbench', 'run.py')):
        os.makedirs(tree, exist_ok=True)
        archive = subprocess.Popen(['git', 'archive', sha], cwd=ROOT,
                                   stdout=subprocess.PIPE)
        subprocess.run(['tar', '-x', '-C', tree], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            sys.exit('perf_ab.py: git archive %s failed' % rev)
    return tree


def snapshot_worktree(scratch):
    """Copies the working tree's files under `scratch`/head."""
    tree = os.path.join(scratch, 'head')
    os.makedirs(tree, exist_ok=True)
    files = sh(['git', 'ls-files', '-z', '-co', '--exclude-standard'], ROOT,
               capture=True)
    files = '\0'.join(f for f in files.split('\0')
                      if f and os.path.isfile(os.path.join(ROOT, f)))
    packed = subprocess.run(['tar', '-c', '--null', '-T', '-'], cwd=ROOT,
                            input=files.encode(), check=True,
                            stdout=subprocess.PIPE).stdout
    subprocess.run(['tar', '-x', '-C', tree], input=packed, check=True)
    return tree


def run(tree, workload, seed, seconds, trace=0):
    """One benchmark run in `tree`; returns its metrics, name -> value, or
    None when the run failed its correctness gates."""
    out = sh(['python3', 'perfbench/run.py', '--workload', workload,
              '--seed', str(seed), '--seconds', str(seconds),
              '--trace', str(trace)], tree, capture=True)
    result = json.loads(out.strip().splitlines()[-1])
    if not result.get('correct', False):
        sys.stderr.write('perf_ab.py: %s seed %d in %s failed its gates\n'
                         % (workload, seed, tree))
        return None
    return {k: v['value'] for k, v in result['metrics'].items()}


def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method='inclusive') if len(xs) > 1 \
        else [xs[0]] * 3
    return q[0], q[1], q[2]


def summarize(name, better, base, head):
    """`base` and `head` hold each pair's value of `name`, None for a failed
    run; the ratios and wins use the pairs both sides passed."""
    failed = {'base': base.count(None), 'head': head.count(None)}
    pairs = [(b, h) for b, h in zip(base, head)
             if b is not None and h is not None]
    base = [b for b in base if b is not None]
    head = [h for h in head if h is not None]
    if not base or not head:
        return {'metric': name, 'better': better, 'pairs': len(pairs),
                'failed': failed, 'ratios': [], 'wins': 0,
                'base_q': [math.nan] * 3, 'head_q': [math.nan] * 3,
                'median_ratio': math.nan, 'gap_beats_base_iqr': False,
                'pairs_for_5pct': 0}
    ratios = [h / b if b else float('nan') for b, h in pairs]
    if better == 'higher':
        wins = sum(h > b for b, h in pairs)
    else:
        wins = sum(h < b for b, h in pairs)
    b1, bmed, b3 = quartiles(base)
    h1, hmed, h3 = quartiles(head)
    gap = hmed - bmed
    improved = gap > 0 if better == 'higher' else gap < 0
    # A gain does not count when the head fails more runs than the base.
    beats_iqr = (improved and abs(gap) > (b3 - b1) and
                 failed['head'] <= failed['base'])
    logs = [math.log(r) for r in ratios if r > 0 and math.isfinite(r)]
    sd = statistics.stdev(logs) if len(logs) > 1 else 0.0
    # The median's standard error is ~1.2533 sd / sqrt(n).
    need = math.ceil((1.96 * 1.2533 * sd / math.log(1.05)) ** 2) if sd else 1
    return {
        'metric': name, 'better': better, 'pairs': len(pairs),
        'failed': failed, 'ratios': [round(r, 4) for r in ratios],
        'wins': wins,
        'base_q': [b1, bmed, b3], 'head_q': [h1, hmed, h3],
        'median_ratio': hmed / bmed if bmed else float('nan'),
        'gap_beats_base_iqr': beats_iqr, 'pairs_for_5pct': need,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split('\n\n')[0])
    ap.add_argument('--base', required=True, help='git revision to compare')
    ap.add_argument('--head', default=None,
                    help='a second revision (default: the working tree)')
    ap.add_argument('--pairs', type=int, default=10)
    ap.add_argument('--seconds', type=float, default=20)
    ap.add_argument('--workloads', default='node-ingest,sim-mesh,serve-mixed')
    ap.add_argument('--seeds', default='101,102,103,104,105,106,107,108,109,'
                    '110')
    ap.add_argument('--metrics', default='ops_per_s,cpu_us_per_op,'
                    'latency_p50_us,latency_p99_us,setup_s')
    ap.add_argument('--scratch', default=None,
                    help='where the base is exported (kept for reuse)')
    ap.add_argument('--json', default=None, help='also write the summary')
    args = ap.parse_args()

    with open(os.path.join(ROOT, 'BENCHMARK.json')) as f:
        declared = json.load(f)
    better = {m['name']: m['better']
              for m in declared['end_to_end'] + declared['per_layer']}
    per_layer = {m['name'] for m in declared['per_layer']}
    metrics = args.metrics.split(',')
    for m in metrics:
        if m not in better:
            sys.exit('perf_ab.py: %s is not a metric of BENCHMARK.json' % m)
    traced = any(m in per_layer for m in metrics)
    plain = any(m not in per_layer for m in metrics)
    seeds = [int(s) for s in args.seeds.split(',')]
    scratch = args.scratch or tempfile.mkdtemp(prefix='perf_ab.')
    sides = {'base': export(args.base, scratch),
             'head': export(args.head, scratch) if args.head
             else snapshot_worktree(scratch)}
    workloads = args.workloads.split(',')
    for tree in sides.values():  # Build both before timing anything.
        run(tree, workloads[0], seeds[0], 1)

    summary = []
    for w in workloads:
        # Per side, its untraced and its traced runs, one entry per pair.
        runs = {'base': ([], []), 'head': ([], [])}
        for i in range(args.pairs):
            seed = seeds[i % len(seeds)]
            order = ['base', 'head'] if i % 2 == 0 else ['head', 'base']
            for side in order:
                untraced, traced_runs = runs[side]
                if plain:
                    untraced.append(run(sides[side], w, seed, args.seconds))
                if traced:
                    traced_runs.append(run(sides[side], w, seed,
                                           args.seconds, trace=1))
            sys.stderr.write('%s pair %d/%d done\n' % (w, i + 1, args.pairs))
        print('== %s: %d pairs, %g s, base %s vs %s' %
              (w, args.pairs, args.seconds, args.base,
               args.head or 'working tree'))
        print('%-16s %5s %5s %-30s %-30s %6s %4s %5s' %
              ('metric', 'wins', 'fail', 'base q1/med/q3', 'head q1/med/q3',
               'ratio', 'IQR', 'n5%'))
        for m in metrics:
            source = 1 if m in per_layer else 0
            base, head = ([None if r is None else r.get(m, ABSENT)
                           for r in runs[side][source]]
                          for side in ('base', 'head'))
            if all(v is ABSENT for v in base + head):
                print('%-16s absent: %s does not report it' % (m, w))
                continue
            s = summarize(m, better[m],
                          [None if v is ABSENT else v for v in base],
                          [None if v is ABSENT else v for v in head])
            s['workload'] = w
            summary.append(s)
            fmt = lambda q: '/'.join('%.4g' % x for x in q)
            print('%-16s %2d/%-2d %2d/%-2d %-30s %-30s %6.3f %4s %5d' %
                  (m, s['wins'], s['pairs'], s['failed']['base'],
                   s['failed']['head'], fmt(s['base_q']),
                   fmt(s['head_q']), s['median_ratio'],
                   'yes' if s['gap_beats_base_iqr'] else 'no',
                   s['pairs_for_5pct']))
            print('    ratios: ' + ' '.join('%.3f' % r for r in s['ratios']))
        sys.stdout.flush()
    if args.json:
        with open(args.json, 'w') as f:
            json.dump(summary, f, indent=1)


if __name__ == '__main__':
    main()
