"""Span tracer applied to `lrlab` from outside the package.

`Tracer.install()` wraps every public function of each `lrlab` module and
rebinds the wrapper in every `lrlab.*` namespace that binds the original, so
calls made through `from .x import f` are traced too.  Each call records a
span (name, start, end, parent) in memory; `write_jsonl()` writes them out at
the end.  Wrappers of `lru_cache` functions pass `cache_info()` through.
Nothing under `src/` is edited.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

MODULES = (
    "budget",
    "characters",
    "cli",
    "constants",
    "identities",
    "lseries",
    "modforms",
    "multfn",
    "primes",
    "verify",
)

# Per-layer metrics from spans: (span name, fields).  Fields are `s` (self
# time in seconds), `calls`, and `terms` (terms summed by `csum` itself, or
# by the span's direct `csum` children).
SPAN_METRICS = (
    ("budget.csum", ("s", "calls", "terms")),
    ("lseries.l_derivative_at_1", ("s", "calls")),
    ("lseries.gamma_k", ("s",)),
    ("lseries.prime_log_sum", ("s", "calls", "terms")),
    ("lseries.zeta_log_derivative_at_2", ("s",)),
    ("lseries.zeta_real", ("s",)),
    ("lseries.l_series_truncated", ("s",)),
    ("primes.sieve_primes", ("s", "calls")),
    ("primes.wilton_codes", ("s",)),
    ("primes.order_codes", ("s",)),
    ("primes.wilton_class_cubic", ("s", "calls")),
    ("primes.cubic_root_exists", ("s",)),
    ("primes.wilton_class", ("s",)),
    ("primes.is_prime", ("calls",)),
    ("characters.generator_character", ("s", "calls")),
    ("characters.character_group", ("s",)),
    ("multfn.f_sieve", ("s",)),
    ("multfn.count_f", ("s",)),
    ("multfn.zero_periods", ("s",)),
    ("multfn.h_f", ("s", "calls")),
    ("multfn.dirichlet_series_truncated", ("s",)),
    ("modforms.tau_exact", ("s",)),
    ("modforms.tau_mod", ("s",)),
    ("modforms.lambda_mod3", ("s",)),
    ("constants.second_order_constant", ("s",)),
    ("constants.b691_character_sums", ("s",)),
    ("constants.first_order_C5", ("s",)),
    ("constants.landau_ramanujan_K", ("s",)),
    ("constants.q3_direct_b", ("s",)),
    ("constants.omitted_products_bound", ("s",)),
    ("identities.euler_identity_sides", ("s",)),
    ("identities.local_factor_gap_q691", ("s",)),
    ("verify.run_checks", ("s",)),
    ("cli.main", ("s",)),
)

# Hit-ratio metrics read from lru_cache statistics: (metric prefix, module,
# attribute, also report misses).
CACHE_METRICS = (
    ("lseries.gamma_batch", "lseries", "_gamma_batch", True),
    ("primes.sieve", "primes", "_sieve_cached", False),
    ("modforms.tau_exact", "modforms", "tau_exact", False),
    ("constants.second_order_constant", "constants", "second_order_constant", False),
)


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = [f"{span}.{field}" for span, fields in SPAN_METRICS for field in fields]
    for prefix, _, _, misses in CACHE_METRICS:
        names.append(f"{prefix}.hit_ratio")
        if misses:
            names.append(f"{prefix}.misses")
    names += ["verify.checks", "verify.checks_failed"]
    names += [f"{module}.errors" for module in MODULES]
    return names


class Tracer:
    """In-memory spans for wrapped `lrlab` calls in one process."""

    def __init__(self):
        # span: [name, start_ns, end_ns, parent index, terms, raised LrlabError]
        self.spans: list[list] = []
        self.checks = 0
        self.checks_failed = 0
        self._stack: list[int] = []
        self._modules: dict = {}
        self._cache_base: dict = {}

    def install(self) -> None:
        import lrlab.cli  # noqa: F401  (imports the package and every module)
        from lrlab.errors import LrlabError

        self._modules = {name: sys.modules[f"lrlab.{name}"] for name in MODULES}
        wrappers = {}
        for short, module in self._modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj, LrlabError))
        for name, module in list(sys.modules.items()):
            if name != "lrlab" and not name.startswith("lrlab."):
                continue
            for attr, obj in list(vars(module).items()):
                found = wrappers.get(id(obj))
                if found is not None and found[0] is obj:
                    setattr(module, attr, found[1])
        self.reset()

    def _wrap(self, name: str, fn, error_type):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        counts_terms = name == "budget.csum"
        counts_checks = name == "verify.run_checks"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, 0, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except error_type:
                span[5] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if counts_terms:
                span[4] = int(np.size(args[0] if args else kwargs["terms"]))
            elif counts_checks:
                self.checks += len(result)
                self.checks_failed += sum(1 for r in result if not r.passed)
            return result

        if hasattr(fn, "cache_info"):
            wrapper.cache_info = fn.cache_info
        return wrapper

    def _cache_infos(self) -> dict:
        return {
            prefix: getattr(self._modules[module], attr).cache_info()
            for prefix, module, attr, _ in CACHE_METRICS
        }

    def reset(self) -> None:
        """Drop recorded spans and counters; cache ratios count from here."""
        del self.spans[:]
        self.checks = self.checks_failed = 0
        self._cache_base = self._cache_infos()

    def root_seconds(self) -> float:
        """Time covered by spans that have no parent span."""
        return sum(s[2] - s[1] for s in self.spans if s[3] < 0) / 1e9

    def metrics(self, per: int = 1) -> dict:
        """Per-layer metrics from the spans and cache statistics since reset().

        Every metric but the hit ratios is divided by `per`, the number of
        samples (batches of calls) the spans cover.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        child_terms = [0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child_ns[s[3]] += s[2] - s[1]
                child_terms[s[3]] += s[4]
        totals: dict = {}
        errors = dict.fromkeys(MODULES, 0)
        for i, s in enumerate(spans):
            t = totals.setdefault(s[0], [0, 0, 0])
            t[0] += s[2] - s[1] - child_ns[i]
            t[1] += 1
            t[2] += s[4] + child_terms[i]
            if s[5]:
                errors[s[0].split(".", 1)[0]] += 1
        out = {}
        for span, fields in SPAN_METRICS:
            self_ns, calls, terms = totals.get(span, (0, 0, 0))
            values = {"s": self_ns / 1e9, "calls": calls, "terms": terms}
            for field in fields:
                out[f"{span}.{field}"] = values[field]
        now = self._cache_infos()
        for prefix, _, _, misses in CACHE_METRICS:
            base = self._cache_base[prefix]
            hits = now[prefix].hits - base.hits
            miss = now[prefix].misses - base.misses
            out[f"{prefix}.hit_ratio"] = hits / (hits + miss) if hits + miss else 0.0
            if misses:
                out[f"{prefix}.misses"] = miss
        out["verify.checks"] = self.checks
        out["verify.checks_failed"] = self.checks_failed
        for module, count in errors.items():
            out[f"{module}.errors"] = count
        if per > 1:
            out = {k: v if k.endswith(".hit_ratio") else v / per for k, v in out.items()}
        return out

    def write_jsonl(self, path: str) -> None:
        t0 = self.spans[0][1] if self.spans else 0
        with open(path, "w") as fh:
            for i, (name, start, end, parent, terms, error) in enumerate(self.spans):
                record = {"id": i, "name": name, "start_ns": start - t0, "end_ns": end - t0, "parent": parent}
                if terms:
                    record["terms"] = terms
                if error:
                    record["error"] = True
                fh.write(json.dumps(record) + "\n")
