"""Closed-loop benchmark of the vennlogic package.

    python3 bench/run.py --workload {wide,small,cli} --seed N --seconds S --trace {0,1}

One client, one operation at a time: each round runs the workload's
operations of every kind (codify, fuzzy, neutro, crosscheck, table), either
as calls into the package in this process (wide, small) or as
`python -m vennlogic.cli` child processes (cli).  Rounds repeat until the
operations have been busy for S seconds.  Every output is checked against
reference.py outside the timed region, and every time is host-normalized
(see Bench.host_factor).  The last line of standard output is
one JSON object: correct, attempted, failed and the metrics, end-to-end ones
with --trace 0 and per-layer ones (from tracer.py) with --trace 1.  See
README.md for the metrics and what moves them.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import resource
import subprocess
import sys
import time
from statistics import median

import inputs
import reference
import tracer

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, ".out")
FRESH = 9            # fresh interpreters behind each start-up figure
WALL_LIMIT = 120.0   # seconds of loop wall time after which a run stops anyway
CHEAP_KINDS = ("codify", "fuzzy", "neutro", "crosscheck")
KERNEL_S = 0.5e-3    # host_kernel's time on the reference host when it is idle


def host_kernel():
    """Fixed pure-Python work that shares no code with the package: dict and
    tuple traffic, float arithmetic and calls."""
    table = {}
    acc = 0.0
    for i in range(1750):
        key = (i & 63, i % 7)
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += abs(table[key] - acc) * 1e-9
    return acc


def time_kernel():
    start = time.perf_counter()
    host_kernel()
    return time.perf_counter() - start


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(inputs.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def load_package():
    if not os.path.isfile(os.path.join(SRC, "vennlogic", "cli.py")):
        sys.exit(f"bench: no package source at {os.path.join(SRC, 'vennlogic')}")
    sys.path.insert(0, SRC)
    import vennlogic
    import vennlogic.cli

    if not os.path.abspath(vennlogic.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: imported vennlogic from {vennlogic.__file__}, not {SRC}")
    return vennlogic, vennlogic.cli


def child_env():
    """Children import the package from src/ and cache bytecode under the
    benchmark's own prefix, whatever PYTHONDONTWRITEBYTECODE says here."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(OUT, "pycache")
    env["PYTHONPATH"] = SRC
    return env


def fresh_seconds(code, env):
    """Wall time of one fresh interpreter running `code`."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def run_child(argv, env, err_file):
    """Run one CLI command; return (exit code, stdout, seconds, peak RSS kB)."""
    err_file.seek(0)
    err_file.truncate()
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "vennlogic.cli", *argv],
                            stdout=subprocess.PIPE, stderr=err_file, env=env, cwd=ROOT)
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        # wait4 rather than wait: it also returns the child's own peak RSS
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(), elapsed, usage.ru_maxrss


def replay(cli, argv):
    """The same command through cli.main in this process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(list(argv))
        elapsed = time.perf_counter() - start
    return code, buf.getvalue(), elapsed


def run_inprocess(vl, op):
    if op.kind == "table":
        a = vl.Assignment.neutrosophic(op.names, op.values)
        order = vl.PrevalenceOrder.from_string(op.order)
        return vl.fuzzy_operator_table(), vl.neutro_operator_table(a, order)
    spec = vl.compile_expr(vl.parse(op.text), op.names)
    if op.kind == "codify":
        return spec
    if op.kind == "fuzzy":
        return vl.evaluate_operator(spec, vl.Assignment.fuzzy(op.names, op.values))
    a = vl.Assignment.neutrosophic(op.names, op.values)
    order = vl.PrevalenceOrder.from_string(op.order)
    return vl.evaluate_operator(spec, a, order, with_oracle=op.kind == "crosscheck")


def _components(v):
    return (v.t, v.f) if hasattr(v, "t") else (v.T, v.I, v.F)


def from_objects(op, out):
    """Reference-check input from the package's return values."""
    if op.kind == "codify":
        return {"n": out.n, "index": out.shaded}
    if op.kind == "table":
        t1, t2 = out
        return {
            "table1": [(r.index, r.truth_poly) for r in t1],
            "table2": [(r.index, _components(r.value), r.strategy, r.tau) for r in t2],
        }
    masks = [p.mask for p, _ in out.part_values]
    if masks != list(range(1 << op.n)):
        raise reference.Mismatch("part_values are not all parts in mask order")
    return {
        "index": out.spec.shaded,
        "parts": [_components(v) for _, v in out.part_values],
        "aggregate": _components(out.aggregate),
        "strategy": out.strategy,
        "tau": out.tau,
        "oracle_delta": out.oracle_delta,
    }


def from_cli(op, outs):
    """Reference-check input from the CLI's JSON or CSV output."""
    if op.fmt == "json":
        docs = [json.loads(out) for out in outs]
    else:
        tables = [list(csv.reader(io.StringIO(out)))[1:] for out in outs]
    if op.kind == "codify":
        if op.fmt == "json":
            d = docs[0]
            return {"n": d["n"], "index": d["index"], "bits": d["bits"], "labels": d["parts"]}
        row = tables[0][0]
        return {"n": int(row[1]), "index": int(row[2]), "labels": row[3].split()}
    if op.kind == "table":
        if op.fmt == "json":
            t1 = [(r["index"], r["truth"]) for r in docs[0]["rows"]]
            t2 = [(r["index"], tuple(r["value"][c] for c in "TIF"), r["strategy"], r["tau"])
                  for r in docs[1]["rows"]]
        else:
            t1 = [(int(r[1]), r[2]) for r in tables[0]]
            t2 = [(int(r[1]), tuple(map(float, r[3:6])), r[6], float(r[7]) if r[7] else None)
                  for r in tables[1]]
        return {"table1": t1, "table2": t2}
    comps = ("t", "f") if op.kind == "fuzzy" else ("T", "I", "F")
    labels = [reference.label(p, op.n) for p in range(1 << op.n)]
    if op.fmt == "json":
        d = docs[0]
        if sorted(d["parts"]) != sorted(labels):
            raise reference.Mismatch("eval output does not list every part once")
        return {
            "index": d["index"],
            "parts": [tuple(d["parts"][lab][c] for c in comps) for lab in labels],
            "aggregate": tuple(d["aggregate"][c] for c in comps),
            "strategy": d["strategy"],
            "tau": d["tau"],
            "oracle_delta": d["oracle_delta"],
        }
    rows = tables[0]
    if [r[0] for r in rows[:-1]] != labels or rows[-1][0] != "aggregate":
        raise reference.Mismatch("eval CSV rows are not the parts in mask order")
    return {
        "shaded": [int(r[1]) for r in rows[:-1]],
        "parts": [tuple(map(float, r[2:])) for r in rows[:-1]],
        "aggregate": tuple(map(float, rows[-1][2:])),
    }


class Bench:
    def __init__(self, args, vl, cli, rounds, env, setup_code):
        self.args = args
        self.env = env
        self.setup_code = setup_code
        self.setup = []               # seconds of each fresh set-up interpreter
        self.vl = vl
        self.cli = cli
        self.rounds = rounds
        self.workload = inputs.WORKLOADS[args.workload]
        self.err_file = open(os.path.join(OUT, "child-stderr.txt"), "w+b")
        self.tracer = None
        self.samples = {kind: [] for kind in inputs.KINDS}  # host-normalized seconds
        self.kernels = []             # seconds per host_kernel run
        self.attempted = self.failed = 0
        self.correct = True
        self.child_rss_kb = 0
        self.startup_ms = []          # child wall minus in-process cli.main, per op
        self.output_bytes = {}        # round -> bytes the CLI printed

    def close(self):
        self.err_file.close()

    def note(self, message):
        print(f"bench: {message}", file=sys.stderr)

    def check(self, op, convert, out):
        """Check an output, after `convert` has put it in reference.py's form."""
        try:
            reference.CHECKS[op.kind](op, convert(op, out))
        except (reference.Mismatch, KeyError, IndexError, ValueError, TypeError) as exc:
            if self.correct:
                self.note(f"wrong output for {op.kind} {op.text!r}: {exc!r}")
            self.correct = False

    def op_inprocess(self, op):
        """Seconds the operation took, or None when it raised."""
        start = time.perf_counter()
        try:
            out = run_inprocess(self.vl, op)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.note(f"{op.kind} {op.text!r} failed: {exc!r}")
            return None
        elapsed = time.perf_counter() - start
        self.check(op, from_objects, out)
        return elapsed

    def op_cli(self, op, rnd):
        """Seconds the operation's child processes took, or None when one
        exited nonzero.  Traced runs replay each command through cli.main,
        once untraced for the start-up figure and once traced for spans."""
        elapsed, outs, direct = 0.0, [], 0.0
        for argv in op.argv:
            code, out, seconds, rss_kb = run_child(argv, self.env, self.err_file)
            self.child_rss_kb = max(self.child_rss_kb, rss_kb)
            if code != 0:
                self.err_file.seek(0)
                err = self.err_file.read().decode(errors="replace").strip()
                self.note(f"{argv[0]} exited {code}: {err[-500:]}")
                return None
            elapsed += seconds
            outs.append(out)
            if self.tracer:
                self.tracer.remove()
                direct += replay(self.cli, argv)[2]
                self.tracer.install()
                replay(self.cli, argv)
        if self.tracer:
            self.startup_ms.append((elapsed - direct) * 1e3)
            self.output_bytes[rnd] = self.output_bytes.get(rnd, 0) + sum(
                len(o.encode()) for o in outs)
        self.check(op, from_cli, outs)
        return elapsed

    def run_op(self, op, rnd):
        if self.tracer:
            self.tracer.begin_op(rnd, op.kind)
        if self.workload.inprocess:
            return self.op_inprocess(op)
        return self.op_cli(op, rnd)

    def loop(self):
        """Whole rounds until the operations have been busy for --seconds;
        a traced run also completes the rounds whose counts it reports."""
        busy, rnd = 0.0, 0
        start = time.perf_counter()
        self.kernels.append(time_kernel())
        need = self.workload.count_rounds if self.tracer else 1
        while busy < self.args.seconds or rnd < need:
            if rnd >= need and time.perf_counter() - start > WALL_LIMIT:
                self.note("wall-time limit reached, stopping early")
                break
            for op in self.rounds[rnd % len(self.rounds)]:
                self.attempted += 1
                elapsed = self.run_op(op, rnd)
                factor = self.host_factor()
                if elapsed is None:
                    self.failed += 1
                    continue
                self.samples[op.kind].append(elapsed * factor)
                busy += elapsed
            rnd += 1
            # set-up figures are spread over the run, like the operations,
            # so that one slow stretch of the host does not decide them
            if not self.tracer and busy >= len(self.setup) * self.args.seconds / FRESH:
                self.measure_setup()
        return rnd

    def host_factor(self):
        """KERNEL_S over the mean time of the host kernels run just before
        and just after the timed work.

        The host's speed drifts by tens of percent, for seconds or minutes
        at a time.  The kernel slows down with it, and shares no code with
        the package, so a time multiplied by this factor reads as the time
        on the idle reference host, and only changes to the package move
        it."""
        self.kernels.append(time_kernel())
        return KERNEL_S * 2 / (self.kernels[-2] + self.kernels[-1])

    def measure_setup(self):
        self.kernels.append(time_kernel())
        seconds = fresh_seconds(self.setup_code, self.env)
        self.setup.append(seconds * self.host_factor())

    def probe_cli(self):
        """Traced in-process runs: the first operation of each kind of
        round 0, once more through the CLI, for the cli.* metrics."""
        seen = set()
        for op in self.rounds[0]:
            if op.kind not in seen:
                seen.add(op.kind)
                self.tracer.begin_op("probe", op.kind)
                self.op_cli(op, "probe")

    def ops_per_s(self):
        done = [t for kind in CHEAP_KINDS for t in self.samples[kind]]
        return len(done) / sum(done)

    def end_to_end(self):
        while len(self.setup) < FRESH:
            self.measure_setup()
        metrics = {"setup_s": (median(self.setup), "s"), "ops_per_s": (self.ops_per_s(), "1/s")}
        for kind in inputs.KINDS:
            metrics[f"{kind}_ms"] = (median(self.samples[kind]) * 1e3, "ms")
        rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                  if self.workload.inprocess else self.child_rss_kb)
        metrics["peak_rss_mb"] = (rss_kb / 1024, "MB")
        return metrics

    def per_layer(self, rounds_done, import_ms):
        loop_rounds = list(range(rounds_done))
        count_rounds = list(range(self.workload.count_rounds))
        metrics = self.tracer.layer_metrics(loop_rounds, count_rounds)
        if self.workload.inprocess:
            cli_rounds = byte_rounds = ["probe"]
        else:
            cli_rounds, byte_rounds = loop_rounds, count_rounds
        metrics["cli.import_ms"] = (import_ms, "ms")
        metrics["cli.startup_ms"] = (median(self.startup_ms), "ms")
        metrics["cli.main.self_ms"] = (self.tracer.self_ms("cli.main", cli_rounds), "ms")
        metrics["cli.output_bytes"] = (
            sum(self.output_bytes.get(r, 0) for r in byte_rounds), "bytes")
        metrics["trace.ops_per_s"] = (self.ops_per_s(), "1/s")
        metrics["host.kernel_ms"] = (median(self.kernels) * 1e3, "ms")
        return metrics


def main():
    args = parse_args()
    vl, cli = load_package()
    os.makedirs(OUT, exist_ok=True)
    env = child_env()
    module = "vennlogic" if inputs.WORKLOADS[args.workload].inprocess else "vennlogic.cli"
    setup_code = (f"import sys; sys.path.insert(0, {BENCH!r}); import {module}; "
                  f"import inputs; inputs.build({args.workload!r}, {args.seed!r})")
    # the first interpreter fills the bytecode cache that the others read
    fresh_seconds(setup_code + "; import vennlogic.cli", env)
    import_ms = None
    if args.trace:
        bare, loaded = [], []
        for _ in range(FRESH):
            bare.append(fresh_seconds("pass", env))
            loaded.append(fresh_seconds("import vennlogic.cli", env))
        import_ms = (median(loaded) - median(bare)) * 1e3

    rounds = inputs.build(args.workload, args.seed)
    bench = Bench(args, vl, cli, rounds, env, setup_code)
    try:
        # one untimed, checked round lets lazy set-up and caches fill first;
        # an operation that fails here fails again, and is counted, in the loop
        for op in rounds[0]:
            bench.run_op(op, 0)
        if args.trace:
            bench.tracer = tracer.Tracer(bench.workload.count_rounds)
            bench.tracer.install()
        rounds_done = bench.loop()
        if args.trace:
            if bench.workload.inprocess:
                bench.probe_cli()
            bench.tracer.remove()
            metrics = bench.per_layer(rounds_done, import_ms)
            bench.tracer.write(
                os.path.join(OUT, f"trace-{args.workload}.json"),
                {"workload": args.workload, "seed": args.seed, "rounds": rounds_done},
            )
        else:
            metrics = bench.end_to_end()
    finally:
        bench.close()
    print(json.dumps({
        "correct": bench.correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
