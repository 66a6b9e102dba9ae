"""Long-lived query process: one client issuing the seeded stream of
library calls in a closed loop.

Usage: python perfbench/query_worker.py SEED (--seconds S | --ops N)
                                        [--trace SPANS_PATH]

Each op builds its rule and variant from the raw inputs, the way a
library user writes it, makes the call and consumes the result; only
that is timed.  After every CHUNK_S of wall op time the worker times the
calibration block of ``speed.py`` and scales the chunk's latencies by
it, so reported times do not follow the host CPU's speed phases.

Memory must not grow with throughput, or a faster program would show a
larger peak RSS: answers are kept once per distinct op, with a count (a
repeated op whose answer differs from the first is counted as
inconsistent), and latencies are kept for every ``stride``-th op, the
stride doubling whenever SAMPLE_CAP samples are held.  Prints one JSON
object with the op count, total op seconds (scaled, and raw wall), the
sampled latencies, the answers, and the peak RSS of this process read
with getrusage right after the loop.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
from array import array  # noqa: E402

import workloads  # noqa: E402

SAMPLE_CAP = 1 << 17
# Wall op time between two calibrations of the CPU's speed.
CHUNK_S = 0.1


def _calls(mp):
    """Per op kind: the timed call, and how its result becomes an answer."""
    def rv(rule, tag, mode):
        return mp.rule_from_number(rule), mp.variant(tag, mode)

    def attractor(rule, tag, mode, _):
        aset = mp.attractor_set(*rv(rule, tag, mode))
        return aset.attractors, aset.max_transient

    def step(rule, tag, mode, state):
        r, v = rv(rule, tag, mode)
        if mode == "synchronous":
            return mp.step(r, v, state)
        return mp.step_async(r, v, mode, state)

    def spectrum(rule, tag, mode, _):
        r, v = rv(rule, tag, mode)
        return mp.spectrum(r, v), mp.charpoly_oracle(mp.transition_matrix(r, v))

    return {
        "classify": (lambda r, t, m, _: mp.classify(*rv(r, t, m)).label,
                     lambda label: label),
        "attractor": (attractor,
                      lambda res: [[list(c) for c in res[0]], res[1]]),
        "step": (step, list),
        "spectrum": (spectrum,
                     lambda res: [res[0].zero_count,
                                  [str(p) for p in res[0].phases], list(res[1])]),
        "gates": (lambda r, t, m, _: mp.gate_pair(*rv(r, t, m)),
                  lambda pair: [g.name for g in pair]),
        "state_graph": (lambda r, t, m, _: mp.emit_state_graph(*rv(r, t, m)),
                        lambda dot: dot),
        "robustness": (lambda r, t, m, _: mp.class_robustness(*rv(r, t, m)),
                       lambda sc: [sc.numerator, sc.denominator]),
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("seed", type=int)
    limit = ap.add_mutually_exclusive_group(required=True)
    limit.add_argument("--seconds", type=float)
    limit.add_argument("--ops", type=int)
    ap.add_argument("--trace")
    args = ap.parse_args()

    extra = {}
    if args.trace:
        before = len(sys.modules)
        t0 = time.perf_counter()
        import mpnspace.cli  # noqa: F401
        extra = {"import_s": time.perf_counter() - t0,
                 "modules_loaded": len(sys.modules) - before}
        import tracer
        trace = tracer.Tracer()
        trace.install()
    import mpnspace as mp
    import speed  # after the import count above, which must see only the package

    calls = _calls(mp)
    latencies = array("d")
    stride = 1
    n = 0
    meter = speed.Meter(speed.calibrate, speed.BLOCK_REF_S)
    chunk = array("d")  # wall latencies of the ops since the last calibration
    chunk_s = 0.0
    answers: dict = {}
    counts: dict = {}
    inconsistent = 0
    clock = time.perf_counter
    meter.ready()
    start = clock()
    for op in workloads.query_ops(args.seed):
        kind, rule, tag, mode, state = op
        call, shape = calls[kind]
        t0 = clock()
        try:
            result = call(rule, tag, mode, state)
            failure = None
        except ValueError:
            failure = "ValueError"
        except Exception as exc:  # any other exception is a wrong answer
            failure = f"{type(exc).__name__}: {exc}"
        t1 = clock()
        chunk_s += t1 - t0
        chunk.append(t1 - t0)
        n += 1
        answer = failure if failure is not None else shape(result)
        if op in answers:
            counts[op] += 1
            inconsistent += answers[op] != answer
        else:
            answers[op] = answer
            counts[op] = 1
        done = (n >= args.ops) if args.ops else (t1 - start >= args.seconds)
        if chunk_s >= CHUNK_S or done:
            scale = meter.factor()
            meter.raw_s += chunk_s
            meter.scaled_s += chunk_s * scale
            for i, x in enumerate(chunk, n - len(chunk)):
                if i % stride == 0:
                    latencies.append(x * scale)
                    if len(latencies) == SAMPLE_CAP:
                        latencies = latencies[::2]
                        stride *= 2
            chunk = array("d")
            chunk_s = 0.0
        if done:
            break
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if args.trace:
        trace.dump(args.trace, **extra)
    json.dump({
        "ops": n,
        "op_seconds": meter.scaled_s,
        "raw_op_seconds": meter.raw_s,
        "latencies": list(latencies),
        "answers": [[list(op), answers[op], counts[op]] for op in answers],
        "inconsistent": inconsistent,
        "peak_rss_kb": peak_rss_kb,
    }, sys.stdout)


if __name__ == "__main__":
    main()
