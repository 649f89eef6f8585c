"""canonform benchmark: seeded workloads timed in a closed loop.

    python3 perfbench/run.py --workload z_invariants --seed 1 --seconds 20 --trace 0

One process, one thread: each timed call starts after the previous one
returns, on an input the process has not handled before.  Every timing is
corrected for machine speed by the reference kernel (refkernel.py), which
runs between every two timed calls.  Every output is checked outside the
timed region (checks.py).  The last line of standard output is the result
as JSON; the line before it gives the raw figures beside the corrected ones.

--trace 0 reports the end-to-end metrics; --trace 1 runs untraced, then
traced (half of --seconds each), then a counting pass, and reports the
per-layer metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import refkernel  # noqa: E402
import trace  # noqa: E402

# Rounds built per batch: the first batch is what setup_s times; later
# batches are built between rounds, outside the timed calls.
BATCH_ROUNDS = {"z_invariants": 12, "qx_smith": 20, "similarity": 12, "cli_verify": 8}
SETUP_REPEATS = 5
COUNT_ROUNDS = 4
COUNT_ROUND_BASE = 10**6  # the counting pass uses rounds no timed phase reaches
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"


def load_canonform():
    """Import canonform from this checkout's src/, or stop without a result."""
    src = ROOT / "src"
    if not (src / "canonform" / "__init__.py").is_file():
        sys.exit(f"canonform sources not found under {src}")
    for name in [n for n in sys.modules if n == "canonform" or n.startswith("canonform.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    cf = importlib.import_module("canonform")
    importlib.import_module("canonform.cli")
    if Path(cf.__file__).resolve().parent != (src / "canonform").resolve():
        sys.exit(f"imported canonform from {cf.__file__}, not from {src}")
    return cf


# ---------------------------------------------------------------------------
# building inputs and calling canonform

def write_matrix_file(path, ring, rows):
    """canonform's file format; str() of an int or a Fraction is already
    its Z or Q scalar grammar."""
    lines = [f"ring {ring}", f"rows {len(rows)}", f"cols {len(rows[0])}"]
    lines += [" ".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


CLI_ARGS = {
    "cli_smith": ["smith", "--verify", "--json"],
    "cli_hermite": ["hermite", "--canonical", "--verify", "--json"],
    "cli_invariants": ["invariants", "--json"],
}


def build_op(cf, op, workdir, tag):
    """canonform objects for one operation: Matrix arguments, or for the
    CLI the argv of a matrix file written here."""
    kind = op["kind"]
    if kind.startswith("cli_"):
        path = workdir / f"{tag}.mtx"
        write_matrix_file(path, op["ring"], op["args"][0])
        verb, *flags = CLI_ARGS[kind.removesuffix("_q")]
        return [verb, str(path), *flags]
    ring = {"Z": cf.Ring.Z, "Q": cf.Ring.Q, "Q[x]": cf.Ring.QX}[op["ring"]]
    return [cf.Matrix.from_rows(ring, a) for a in op["args"]]


def call(cf, kind, built):
    if kind.startswith("cli_"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = sys.modules["canonform.cli"].main(built)
        return code, buf.getvalue()
    fn = {
        "smith": cf.smith, "hermite": cf.hermite_canonical,
        "invariants": cf.invariant_report, "det": cf.det,
        "jordan": cf.jordan, "rcf": cf.rcf, "similar": cf.similar,
        "not_similar": cf.similar, "minimal_poly": cf.minimal_poly,
        "char_poly": cf.char_poly,
    }[kind]
    return fn(*built)


def rows(m):
    return [[e.value for e in m.entries[i * m.n:(i + 1) * m.n]] for i in range(m.m)]


def to_plain(kind, out):
    """canonform's result as the plain values checks.py expects."""
    if kind == "smith":
        return {"p": rows(out.p), "q": rows(out.q), "d": rows(out.d),
                "diag": [e.value for e in out.diag], "rank": out.rank}
    if kind == "hermite":
        return {"q": rows(out.q), "h": rows(out.h), "rank": out.rank}
    if kind == "invariants":
        return {"rank": out.rank,
                "det_divisors": [e.value for e in out.det_divisors],
                "invariant_factors": [e.value for e in out.invariant_factors],
                "elementary_divisors": [(p.value, e) for p, e in out.elementary_divisors]}
    if kind in ("jordan", "rcf"):
        cert, form = out
        return {"s": rows(cert.s), "form": rows(form)}
    if kind in ("similar", "not_similar"):
        return None if out is None else {"s": rows(out.s), "target": rows(out.target)}
    if kind.startswith("cli_"):
        return out
    return out.value  # det, minimal_poly, char_poly


# ---------------------------------------------------------------------------
# the closed loop

class Pool:
    """Rounds of built inputs, consumed in order and never reused."""

    def __init__(self, workload, seed, workdir):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.next_round = 0
        self.rounds = []

    def plain_batch(self, start, count):
        return [inputs.round_ops(self.workload, self.seed, k) for k in range(start, start + count)]

    def build(self, cf, plain_rounds, start):
        return [[(op, build_op(cf, op, self.workdir, f"r{start + i}-{j}"))
                 for j, op in enumerate(ops)]
                for i, ops in enumerate(plain_rounds)]

    def take(self, cf):
        if not self.rounds:
            count = BATCH_ROUNDS[self.workload]
            self.rounds = self.build(cf, self.plain_batch(self.next_round, count), self.next_round)
            self.next_round += count
            gc.collect()
            gc.freeze()
        return self.rounds.pop(0)


class Stats:
    def __init__(self):
        self.raw, self.corrected, self.kernel = [], [], []
        self.scale = []  # kernel correction factor of every attempted call
        self.attempted = self.failed = 0
        self.wrong = []


def run_rounds(cf, pool, seconds, stats, recorder=None):
    """Whole rounds until `seconds` have passed: kernel, call, kernel, ...;
    the round's outputs are checked after its last kernel."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        batch = pool.take(cf)
        results = []
        before = refkernel.kernel_seconds()
        stats.kernel.append(before)
        for op, built in batch:
            stats.attempted += 1
            t0 = time.perf_counter()
            if recorder is not None:
                recorder.begin_op(len(stats.scale), t0)
            try:
                out = call(cf, op["kind"], built)
                t1 = time.perf_counter()
            except Exception as exc:  # counted as failed; the loop goes on
                t1 = time.perf_counter()
                out = exc
            if recorder is not None:
                recorder.end_op(t1)
            after = refkernel.kernel_seconds()
            stats.kernel.append(after)
            stats.scale.append(refkernel.corrected(1.0, before, after))
            if isinstance(out, Exception):
                stats.failed += 1
                print(f"failed: {op['kind']}: {type(out).__name__}: {out}", file=sys.stderr)
            else:
                stats.raw.append(t1 - t0)
                stats.corrected.append((t1 - t0) * stats.scale[-1])
                results.append((op, out))
            before = after
        for op, out in results:
            try:
                checks.check(op, to_plain(op["kind"], out))
            except checks.CheckFailed as exc:
                stats.wrong.append(f"{op['kind']}: {exc}")
                print(f"wrong: {op['kind']}: {exc}", file=sys.stderr)


def setup(workload, seed, workdir, repeats):
    """Import canonform and build the first batch, `repeats` times.  Returns
    canonform and the pool of the last repeat, and the median raw and
    corrected seconds."""
    first = Pool(workload, seed, workdir).plain_batch(0, BATCH_ROUNDS[workload])
    raw, corr = [], []
    for _ in range(repeats):
        gc.collect()
        before = refkernel.kernel_seconds()
        t0 = time.perf_counter()
        cf = load_canonform()
        pool = Pool(workload, seed, workdir)
        pool.rounds = pool.build(cf, first, 0)
        t1 = time.perf_counter()
        after = refkernel.kernel_seconds()
        raw.append(t1 - t0)
        corr.append(refkernel.corrected(t1 - t0, before, after))
    pool.next_round = BATCH_ROUNDS[workload]
    gc.collect()
    gc.freeze()
    return cf, pool, statistics.median(raw), statistics.median(corr)


def percentile(xs, q):
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def end_to_end(stats, setup_raw, setup_corr):
    n = len(stats.corrected)
    metrics = {
        "ops_per_s": (n / sum(stats.corrected), "1/s"),
        "op_p50_ms": (statistics.median(stats.corrected) * 1e3, "ms"),
        "op_p90_ms": (percentile(stats.corrected, 90) * 1e3, "ms"),
        "setup_s": (setup_corr, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw = {
        "ops_per_s": n / sum(stats.raw),
        "op_p50_ms": statistics.median(stats.raw) * 1e3,
        "op_p90_ms": percentile(stats.raw, 90) * 1e3,
        "setup_s": setup_raw,
    }
    return metrics, raw


def per_layer(cf, pool, seconds, stats, workload, seed):
    """Untraced phase and traced phase, half of `seconds` each, then the
    counting pass."""
    run_rounds(cf, pool, seconds / 2, stats)
    untraced = len(stats.corrected) / sum(stats.corrected)
    traced = Stats()
    traced.attempted = stats.attempted
    recorder = trace.SpanRecorder()
    with trace.Patched(recorder.make_wrapper):
        run_rounds(cf, pool, seconds / 2, traced, recorder)
    n_traced = len(traced.corrected)
    self_s = recorder.self_seconds(traced.scale)
    raw_self_s = recorder.self_seconds([1.0] * len(traced.scale))
    OUT.mkdir(exist_ok=True)
    recorder.write(OUT / f"spans-{workload}-{seed}.csv")
    del recorder

    counting = trace.Counting(cf.Elem)
    count_pool = Pool(workload, seed, pool.workdir)
    count_pool.next_round = COUNT_ROUND_BASE
    n_counted = 0
    with trace.Patched(counting.make_wrapper), counting:
        for _ in range(COUNT_ROUNDS):
            for op, built in count_pool.take(cf):
                traced.attempted += 1
                try:
                    call(cf, op["kind"], built)
                    n_counted += 1
                except Exception:
                    traced.failed += 1
    c = counting.counts
    metrics = {"domain.scalar_ops": (c["domain.scalar_ops"] / n_counted, "count")}
    for name in ("domain.egcd", "matrix.multiply", "determinant.det",
                 "hermite.hermite_canonical", "smith.smith_2x2", "smith.smith"):
        metrics[name + ".calls"] = (c[name + ".calls"] / n_counted, "count")
    metrics["smith.diagonalize.passes"] = (
        c["smith.diagonalize.passes"] / max(c["smith.diagonalize.calls"], 1), "count")
    metrics["smith.cert_bits"] = (c["smith.cert_bits"] / n_counted, "bit")
    raw_self_ms = {}
    for name in ("domain.egcd", "domain.factor", "domain.format_scalar",
                 "matrix.parse_matrix", "matrix.multiply", "determinant.det",
                 "determinant.inverse", "hermite.hermite_canonical", "smith.smith",
                 "invariants.invariant_report", "similarity.similar",
                 "similarity.right_eval", "similarity.char_poly", "cli.main"):
        metrics[name + ".self_ms"] = (self_s.get(name, 0.0) * 1e3 / n_traced, "ms")
        raw_self_ms[name] = raw_self_s.get(name, 0.0) * 1e3 / n_traced
    traced_rate = n_traced / sum(traced.corrected)
    metrics["trace.untraced_ops_per_s"] = (untraced, "1/s")
    metrics["trace.traced_ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_ratio"] = (untraced / traced_rate, "ratio")
    traced.wrong = stats.wrong + traced.wrong
    traced.failed += stats.failed
    return metrics, traced, {
        "untraced_ops": len(stats.corrected), "traced_ops": n_traced,
        "counted_ops": n_counted, "raw_self_ms": raw_self_ms,
        "raw_ops_per_s": {"untraced": len(stats.raw) / sum(stats.raw),
                          "traced": n_traced / sum(traced.raw)},
        "kernel_ms_median": statistics.median(stats.kernel + traced.kernel) * 1e3}


def main(argv=None):
    ap = argparse.ArgumentParser(description="canonform benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(inputs.TEMPLATES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        repeats = SETUP_REPEATS if args.trace == 0 else 1
        cf, pool, setup_raw, setup_corr = setup(args.workload, args.seed, workdir, repeats)
        stats = Stats()
        if args.trace == 0:
            run_rounds(cf, pool, args.seconds, stats)
            metrics, raw = end_to_end(stats, setup_raw, setup_corr)
            detail = {"raw": raw, "samples": len(stats.corrected),
                      "kernel_ms_median": statistics.median(stats.kernel) * 1e3,
                      "nominal_kernel_ms": refkernel.NOMINAL_S * 1e3}
        else:
            metrics, stats, detail = per_layer(cf, pool, args.seconds, stats,
                                               args.workload, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    detail["wrong"] = stats.wrong[:5]
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not stats.wrong,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
