"""Code the benchmark runs in a fresh child interpreter.

    child.py [--trace PREFIX] [--readings PATH] import
    child.py [--trace PREFIX] [--readings PATH] cli ARGS...
    child.py [--trace PREFIX] [--readings PATH] oracles
    child.py [--trace PREFIX] queries --seed N --stream I --batch B (--seconds T | --batches K)

`import` times `import lrlab`, then takes a host speed reading (speed.py).
`cli` runs `lrlab.cli.main(ARGS)`, the in-process counterpart of
`python -m lrlab.cli ARGS`.  `oracles` calls the exact oracles at their desk
limits.  `queries` warms the gamma_k batches, takes a reading, then issues
seeded batches of B library calls until T seconds have passed, or exactly K
batches, with a reading every READ_EVERY calls of a batch, outside the
batch's timings.  With `--readings`, a reading is taken every
speed.SAMPLE_PERIOD_S seconds throughout the task and the readings are
summed up in PATH.  With `--trace`, the lrlab functions are wrapped before
the work starts, spans go to PREFIX.jsonl and per-layer metrics to
PREFIX.json (per batch on `queries`).  Results the parent
checks are printed as JSON on the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

T_START = time.perf_counter()
READ_EVERY = 50  # calls of a `queries` batch between host speed readings


def cpu_seconds() -> float:
    """User plus system time of this process, from its own rusage."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_import(_args, _tracer) -> dict:
    import lrlab  # noqa: F401

    setup_s = time.perf_counter() - T_START
    import speed

    return {"setup_s": setup_s, "reading_s": speed.reading()}


def run_cli(args, _tracer) -> dict:
    import lrlab.cli

    return {"exit": lrlab.cli.main(args.argv)}


def run_oracles(_args, _tracer) -> dict:
    import numpy as np

    import lrlab
    from common import array_digest, int_digest
    from inputs import COUNT_CASES, COUNT_LIMIT, LAMBDA_LIMIT, TAU_LIMIT, TAU_MODULI

    window = lrlab.tau_exact(TAU_LIMIT)
    out = {"tau_exact": int_digest(window.values), "tau_mod": {}, "tau_mod_agrees": {}}
    for q in TAU_MODULI:
        shortcut = lrlab.tau_mod(q, TAU_LIMIT)
        exact = np.array([t % q for t in window.values], dtype=np.int64)
        out["tau_mod"][str(q)] = array_digest(shortcut[1:])
        out["tau_mod_agrees"][str(q)] = bool(np.array_equal(shortcut[1:], exact))
    out["lambda_mod3"] = array_digest(lrlab.lambda_mod3(LAMBDA_LIMIT))
    out["count_f"] = {case: lrlab.count_f(case, COUNT_LIMIT) for case in COUNT_CASES}
    return out


def run_queries(args, tracer) -> dict:
    import lrlab
    import speed
    from golden import QueryChecker
    from inputs import K_VALUES, L_MODULI, call, query_stream

    for m in L_MODULI:
        for k in K_VALUES:
            lrlab.gamma_k(1, m, k)
    setup_s = time.perf_counter() - T_START
    setup_reading_s = speed.reading()  # host speed just after the set-up
    checker = QueryChecker()
    if tracer is not None:
        tracer.reset()
    clock = time.perf_counter_ns
    batches = []
    deadline = time.perf_counter() + (args.seconds or 0.0)
    index = 0
    while (index < args.batches) if args.batches else (index == 0 or time.perf_counter() < deadline):
        calls = query_stream(args.seed, args.stream, index, args.batch)
        results, latencies = [], []
        probe = speed.Readings()
        cpu0 = cpu_seconds()
        t0 = clock()
        for n, query in enumerate(calls):
            if n % READ_EVERY == 0:
                probe.take()
            start = clock()
            try:
                results.append(call(lrlab, query))
            except Exception as exc:  # a failed query is counted, not fatal
                results.append(exc)
            latencies.append(clock() - start)
        probe.take()
        wall_s = (clock() - t0) / 1e9 - probe.wall_s
        cpu_s = cpu_seconds() - cpu0 - probe.cpu_s
        for query, result in zip(calls, results):
            checker.check(query, result)
        batches.append({"wall_s": wall_s, "cpu_s": cpu_s, "reading_s": probe.median(),
                        "latency_ms": [t / 1e6 for t in latencies]})
        index += 1
    out = {
        "setup_s": setup_s,
        "setup_reading_s": setup_reading_s,
        "batches": batches,
        "attempted": checker.tally.attempted,
        "failed": checker.tally.failed,
        "problems": checker.tally.problems,
    }
    if tracer is not None:
        # spans cover the batches only; report them per batch
        out["root_s"] = tracer.root_seconds() / len(batches)
        out["layers"] = tracer.metrics(per=len(batches))
    return out


TASKS = {"import": run_import, "cli": run_cli, "oracles": run_oracles, "queries": run_queries}


def parse(argv):
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("--trace", default=None, metavar="PREFIX")
    parser.add_argument("--readings", default=None, metavar="PATH")
    sub = parser.add_subparsers(dest="task", required=True)
    sub.add_parser("import")
    sub.add_parser("oracles")
    cli = sub.add_parser("cli")
    cli.add_argument("argv", nargs=argparse.REMAINDER)
    queries = sub.add_parser("queries")
    queries.add_argument("--seed", type=int, required=True)
    queries.add_argument("--stream", type=int, required=True)
    queries.add_argument("--batch", type=int, required=True)
    limit = queries.add_mutually_exclusive_group(required=True)
    limit.add_argument("--seconds", type=float)
    limit.add_argument("--batches", type=int)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    probe = None
    if args.readings:
        import speed

        probe = speed.Readings()
        probe.every(speed.SAMPLE_PERIOD_S)
    result = TASKS[args.task](args, tracer)
    if probe is not None:
        with open(args.readings, "w") as fh:
            json.dump(probe.stop(), fh)
    if tracer is not None:
        metrics = result.pop("layers", None) or tracer.metrics()
        result.setdefault("root_s", tracer.root_seconds())
        with open(args.trace + ".json", "w") as fh:
            json.dump({"metrics": metrics, "root_s": result["root_s"]}, fh)
        tracer.write_jsonl(args.trace + ".jsonl")
    if args.task == "cli":
        sys.stdout.flush()
        return result["exit"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
