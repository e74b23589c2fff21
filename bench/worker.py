"""One benchmark operation in a fresh interpreter.

    python3 bench/worker.py '{"mode": "pipeline", "spec": "A9", "trace": false, "t0": 123.4}'

The orchestrator (bench/harness.py) starts one worker per operation, so
every operation pays for a cold interpreter and empty ``lru_cache``s, as a
command-line user does.  ``t0`` is the orchestrator's ``time.monotonic()``
just before the process was started; ``setup_s`` is measured against it.

Modes:
  setup     interpreter start plus ``import charfield``, nothing else
  suite     ``verify.run_suite("all")``, what ``charfield verify all`` runs
  pipeline  build -> conjugacy_classes -> dixon_table -> validate_table -> f_value

The last line of stdout is one JSON object.  With ``"trace": true`` the
worker first rebinds the public functions listed in ``LAYER_FUNCS`` to
timing wrappers, wherever a charfield module holds a reference to them, so
spans cover the calls the program makes internally too (the coefficient
computation inside ``dixon_table``, ``field_of_values`` inside ``f_value``,
the ``modp`` calls of eigenspace splitting, the layer calls of
``run_suite``).  The program itself is not modified.
"""

from __future__ import annotations

import functools
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

MODP_FUNCS = ("charpoly", "distinct_roots", "nullspace", "pivot_rows", "mat_inv", "mat_mul")

# (module, public function, span name)
LAYER_FUNCS = (
    ("zoo", "build", "zoo.build"),
    ("perm", "conjugacy_classes", "perm.conjugacy_classes"),
    ("chartab", "class_multiplication_coefficients", "chartab.coefficients"),
    ("chartab", "dixon_table", "chartab.dixon_table"),
    ("chartab", "validate_table", "chartab.validate"),
    ("fov", "field_of_values", "fov.field_of_values"),
    ("fov", "f_value", "fov.f_value"),
    ("cyclo", "omega_degree", "cyclo.omega_degree"),
    ("cyclo", "count_subfields", "cyclo.count_subfields"),
    ("verify", "run_suite", "verify.run_suite"),
) + tuple(("modp", fn, f"modp.{fn}") for fn in MODP_FUNCS)

# stages after which the high-water RSS is recorded as rss.after_<stage>_mib
RSS_STAGES = {
    "zoo.build": "build",
    "perm.conjugacy_classes": "classes",
    "chartab.dixon_table": "dixon",
    "chartab.validate": "validate",
    "fov.f_value": "f_value",
}
# spans listed one by one in a trace; the rest are only summed
STAGE_SPANS = {*RSS_STAGES, "chartab.coefficients", "verify.run_suite"}


def maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Tracer:
    """Spans and counters, kept in memory until the operation ends."""

    def __init__(self, cf):
        self.t_origin = time.perf_counter()
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.groups: list[dict] = []
        self._install(cf)

    def _install(self, cf):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "charfield" or name.startswith("charfield."))]
        for mod_name, fn_name, span in LAYER_FUNCS:
            original = getattr(getattr(cf, mod_name), fn_name)
            wrapped = self._wrap(span, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)

    def _wrap(self, span, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([span, time.perf_counter(), None,
                               self.stack[-1] if self.stack else None])
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self.stack.pop()
            self._count(span, args, result)
            return result
        return traced

    def _add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def _count(self, span, args, result):
        if span == "chartab.coefficients":
            group, classes = args[0], args[1]
            self._add("chartab.coefficient_lookups", classes.k * group.order)
        elif span == "chartab.validate":
            self._add("chartab.validate_pairs", args[0].k * (args[0].k + 1))
        elif span == "chartab.dixon_table":
            self.groups.append({"order": result.group.order, "degree": result.group.degree,
                                "k": result.k, "exponent": result.exponent,
                                "prime": result.prime})
        stage = RSS_STAGES.get(span)
        if stage:
            key = f"rss.after_{stage}_mib"
            self.counters[key] = max(self.counters.get(key, 0.0), maxrss_mib())

    def summary(self) -> dict:
        """Per-layer totals for this operation; derived ratios are left to the caller."""
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        child_time = [0.0] * len(self.spans)
        top = 0.0
        for name, start, end, parent in self.spans:
            total[name] = total.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            if parent is None:
                top += end - start
            else:
                child_time[parent] += end - start
        verify_self = sum(end - start - child_time[i]
                          for i, (name, start, end, _) in enumerate(self.spans)
                          if name == "verify.run_suite")
        layers = {f"{name}_s": t for name, t in total.items()}
        layers.update({f"{name}_calls": c for name, c in calls.items()})
        layers["verify.self_s"] = verify_self
        layers["trace.top_span_s"] = top
        layers.update(self.counters)
        stages = [{"span": name, "start_s": start - self.t_origin, "dur_s": end - start,
                   "depth": self._depth(i)}
                  for i, (name, start, end, _) in enumerate(self.spans)
                  if name in STAGE_SPANS]
        return {"layers": layers, "groups": self.groups, "stages": stages}

    def _depth(self, i: int) -> int:
        depth = 0
        while self.spans[i][3] is not None:
            i = self.spans[i][3]
            depth += 1
        return depth


def run_suite(cf):
    """Returns (ok, outputs), where outputs() gives the texts to digest."""
    suites = cf.verify.run_suite("all")
    transcript = "\n".join(line for s in suites for line in s.lines()) + "\n"
    return all(s.ok for s in suites), lambda: {"verify all": transcript}


def run_pipeline(cf, spec: str):
    """Returns (ok, outputs), where outputs() gives the texts to digest."""
    # module-qualified calls, so a tracer's rebinding applies to them
    canonical = str(cf.zoo.parse_spec(spec))
    group = cf.zoo.build(canonical)
    classes = cf.perm.conjugacy_classes(group)
    table = cf.chartab.dixon_table(group, classes)
    validation = cf.chartab.validate_table(table)
    report = cf.fov.f_value(table, canonical)
    compact = (",", ":")
    return validation.all_ok, lambda: {
        "table": json.dumps(table.to_obj(canonical), separators=compact),
        "fov": json.dumps(report.to_obj(), separators=compact)}


def main() -> None:
    job = json.loads(sys.argv[1])
    sys.path.insert(0, str(SRC))
    import charfield as cf
    setup_s = time.monotonic() - job["t0"]
    if Path(cf.__file__).resolve().parent != SRC / "charfield":
        raise SystemExit(f"charfield was imported from {cf.__file__}, not from {SRC}")
    import numpy

    result = {"setup_s": setup_s, "python": sys.version.split()[0],
              "numpy": numpy.__version__, "maxrss_mib": maxrss_mib()}
    if job["mode"] != "setup":
        tracer = Tracer(cf) if job["trace"] else None
        t = time.perf_counter()
        if job["mode"] == "suite":
            ok, outputs = run_suite(cf)
        else:
            ok, outputs = run_pipeline(cf, job["spec"])
        run_s = time.perf_counter() - t
        result["maxrss_mib"] = maxrss_mib()   # before serialising the outputs
        digests = {key: sha256(text) for key, text in outputs().items()}
        result.update(run_s=run_s, digests=digests, ok=ok)
        if tracer is not None:
            result["trace"] = tracer.summary()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
