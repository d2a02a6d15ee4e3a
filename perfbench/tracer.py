"""Per-layer tracing for the benchmark's traced run.

The program is not instrumented.  `Tracer.install` wraps public
functions of each multisep module at the place they are looked up (a
module attribute the caller reads, or a class attribute), and
`Tracer.uninstall` puts the originals back and checks that it did.
Only the traced run imports this file.

Two kinds of wrapper:

* spans: one record per call (name, start, end, parent, job id, time
  of traced children, element queries and partitions seen inside it),
  kept in memory and written out as JSON lines at the end;
* hot leaves (`states.element`, the partition generators): called up to
  a million times per pass, so they are aggregated (calls, busy time)
  instead of stored, and their time is charged to the enclosing span's
  children so that self time stays exact.

A span's self time is its duration minus the time of traced calls made
inside it.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

import multisep.applications as applications
import multisep.cli as cli
import multisep.criteria as criteria
import multisep.manybody as manybody
import multisep.measures as measures
import multisep.partitions as partitions
import multisep.states as states
import multisep.tensor as tensor
import multisep.unstable as unstable

_clock = time.perf_counter

CRITERIA = ("ppt_check", "gme_value", "ksep_value", "q0_value", "qm_value", "dicke_gme_value")

# (metric name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    [("cli.main.calls", "count"), ("cli.main.self_s", "s"),
     ("partitions.yielded", "count"), ("partitions.self_s", "s"),
     ("states.element.calls", "count"), ("states.element.self_s", "s"),
     ("states.element.distinct_ratio", "ratio"),
     ("states.family_state.calls", "count"), ("states.family_state.self_s", "s"),
     ("states.to_dense.calls", "count"), ("states.to_dense.self_s", "s"),
     ("states.to_dense.bytes", "B"),
     ("tensor.density_matrix.calls", "count"), ("tensor.density_matrix.self_s", "s"),
     ("tensor.partial_transpose.self_s", "s"),
     ("tensor.hermitian_spectrum.calls", "count"), ("tensor.hermitian_spectrum.self_s", "s")]
    + [(f"criteria.{c}.{stat}", unit)
       for c in CRITERIA for stat, unit in (("calls", "count"), ("self_s", "s"))]
    + [("criteria.elements_per_call", "1/call"),
       ("measures.cgme_pure.calls", "count"), ("measures.cgme_pure.self_s", "s"),
       ("manybody.heisenberg_hamiltonian.calls", "count"),
       ("manybody.heisenberg_hamiltonian.self_s", "s"),
       ("manybody.heisenberg_hamiltonian.bytes", "B"),
       ("manybody.min_ksep_energy.calls", "count"),
       ("manybody.min_ksep_energy.self_s", "s"),
       ("manybody.min_ksep_energy.nonconverged", "count"),
       ("manybody.min_ksep_energy.partitions_visited_ratio", "ratio")]
    + [(f"manybody.{f}.self_s", "s")
       for f in ("thermal_state", "ground_state_dm", "partition_function",
                 "gap_witness_detects")]
    + [("applications.qss_run.rounds", "count"), ("applications.qss_run.self_s", "s"),
       ("applications.exact_expectations.self_s", "s"),
       ("applications.qss_verification_value.self_s", "s"),
       ("unstable.chsh_bound.calls", "count"), ("unstable.chsh_bound.self_s", "s"),
       ("unstable.chsh_bound.nonconverged", "count"),
       ("unstable.singlet_value.self_s", "s"),
       ("trace.overhead_s", "s")]
)

# Span fields.
NAME, START, END, PARENT, JOB, CHILD_S, ELEMENTS, YIELDS = range(8)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self.leaf_calls = defaultdict(int)
        self.leaf_s = defaultdict(float)
        self.counters = defaultdict(float)
        self._distinct = set()
        self._distinct_total = 0
        self._in_element = False
        self._patches = []

    # -- jobs ---------------------------------------------------------------

    def begin_job(self, job_id):
        self.job = job_id
        self._distinct.clear()

    def end_job(self):
        # A memo would live on a provider, which lives for one job.
        self._distinct_total += len(self._distinct)
        self._distinct.clear()
        self.job = None

    # -- wrappers -----------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _charge(self, seconds):
        if self.stack:
            self.stack[-1][CHILD_S] += seconds

    def span(self, owner, attr, name, after=None):
        """Record a span per call; after(args, kwargs, result) adds counters."""
        original = owner.__dict__[attr]
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            record = [name, _clock(), 0.0, None if parent is None else id(parent),
                      tracer.job, 0.0, 0, 0]
            tracer.stack.append(record)
            try:
                result = original(*args, **kwargs)
            finally:
                record[END] = _clock()
                tracer.stack.pop()
                tracer.spans.append(record)
                tracer._charge(record[END] - record[START])
            if after is not None:
                after(args, kwargs, result)
            return result

        self._patch(owner, attr, wrapper)

    def element_leaf(self, cls):
        original = cls.__dict__["element"]
        tracer = self

        def element(self_, bra, ket):
            if tracer._in_element:      # FlippedProvider -> inner provider
                return original(self_, bra, ket)
            tracer._in_element = True
            t0 = _clock()
            try:
                return original(self_, bra, ket)
            finally:
                dt = _clock() - t0
                tracer._in_element = False
                tracer.leaf_calls["states.element"] += 1
                tracer.leaf_s["states.element"] += dt
                tracer._distinct.add(hash((id(self_), tuple(bra), tuple(ket))))
                if tracer.stack:
                    tracer.stack[-1][CHILD_S] += dt
                    tracer.stack[-1][ELEMENTS] += 1

        self._patch(cls, "element", element)

    def partition_leaf(self, module, attr):
        original = module.__dict__[attr]
        tracer = self

        def timed(gen):
            while True:
                t0 = _clock()
                try:
                    part = next(gen)
                except StopIteration:
                    tracer._leaf_partition(_clock() - t0, 0)
                    return
                tracer._leaf_partition(_clock() - t0, 1)
                yield part

        def wrapper(*args, **kwargs):
            return timed(original(*args, **kwargs))

        self._patch(module, attr, wrapper)

    def _leaf_partition(self, dt, yielded):
        self.leaf_calls["partitions"] += yielded
        self.leaf_s["partitions"] += dt
        if self.stack:
            self.stack[-1][CHILD_S] += dt
            self.stack[-1][YIELDS] += yielded

    # -- install / uninstall ------------------------------------------------

    def install(self):
        c = self.counters

        def add(key, value):
            c[key] += value

        self.span(cli, "main", "cli.main")

        for module in (criteria, manybody):
            self.partition_leaf(module, "iter_k_partitions")
        for module in (criteria, measures):
            self.partition_leaf(module, "iter_bipartitions")

        for cls in (states.MixtureProvider, states.DenseProvider, states.FlippedProvider):
            self.element_leaf(cls)
        self.span(cli, "family_state", "states.family_state")
        self.span(states.ElementProvider, "to_dense", "states.to_dense",
                  lambda a, k, r: add("states.to_dense.bytes", 16 * a[0].shape.total ** 2))

        self.span(tensor.DensityMatrix, "__init__", "tensor.density_matrix")
        self.span(criteria, "partial_transpose", "tensor.partial_transpose")
        for module in (criteria, manybody):
            self.span(module, "hermitian_spectrum", "tensor.hermitian_spectrum")

        for name in CRITERIA:
            self.span(criteria, name, f"criteria.{name}")
        self.span(measures, "cgme_pure", "measures.cgme_pure")

        self.span(manybody, "heisenberg_hamiltonian", "manybody.heisenberg_hamiltonian",
                  lambda a, k, r: add("manybody.heisenberg_hamiltonian.bytes", r.nbytes))

        def after_min_ksep(args, kwargs, result):
            n = args[0].shape[0].bit_length() - 1
            k = args[1] if len(args) > 1 else kwargs["k"]
            if k > 1:
                add("manybody.min_ksep_energy.partitions_total", partitions.stirling2(n, k))
            add("manybody.min_ksep_energy.nonconverged", not result.converged)

        self.span(manybody, "min_ksep_energy", "manybody.min_ksep_energy", after_min_ksep)
        for name in ("thermal_state", "ground_state_dm", "partition_function",
                     "gap_witness_detects"):
            self.span(manybody, name, f"manybody.{name}")

        self.span(applications.QssSimulator, "run", "applications.qss_run",
                  lambda a, k, r: add("applications.qss_run.rounds", r["rounds"]))
        self.span(applications.QssSimulator, "exact_expectations",
                  "applications.exact_expectations")
        self.span(cli, "qss_verification_value", "applications.qss_verification_value")

        self.span(unstable, "chsh_bound", "unstable.chsh_bound",
                  lambda a, k, r: add("unstable.chsh_bound.nonconverged", not r.converged))
        self.span(unstable, "singlet_value", "unstable.singlet_value")

    def uninstall(self):
        """Restore every original; raise if any attribute is not restored."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        wrong = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self._patches
                 if o.__dict__[a] is not orig]
        self._patches.clear()
        if wrong:
            raise RuntimeError(f"tracer left wrappers installed: {wrong}")

    # -- results ------------------------------------------------------------

    def metrics(self, passes, untraced_pass_s, traced_pass_s):
        """Per-layer metrics per traced pass, plus the tracing overhead."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        elements_in_criteria = 0
        yields_in_min_ksep = 0
        for s in self.spans:
            calls[s[NAME]] += 1
            self_s[s[NAME]] += (s[END] - s[START]) - s[CHILD_S]
            if s[NAME].startswith("criteria."):
                elements_in_criteria += s[ELEMENTS]
            elif s[NAME] == "manybody.min_ksep_energy":
                yields_in_min_ksep += s[YIELDS]
        for leaf in ("states.element", "partitions"):
            calls[leaf] = self.leaf_calls[leaf]
            self_s[leaf] = self.leaf_s[leaf]

        c = self.counters
        n_criteria = sum(calls[f"criteria.{name}"] for name in CRITERIA)
        n_elements = calls["states.element"]
        partitions_total = c["manybody.min_ksep_energy.partitions_total"]
        raw = {
            "partitions.yielded": calls["partitions"],
            "states.element.distinct_ratio":
                self._distinct_total / n_elements if n_elements else 0.0,
            "states.to_dense.bytes": c["states.to_dense.bytes"],
            "criteria.elements_per_call":
                elements_in_criteria / n_criteria if n_criteria else 0.0,
            "manybody.heisenberg_hamiltonian.bytes": c["manybody.heisenberg_hamiltonian.bytes"],
            "manybody.min_ksep_energy.nonconverged": c["manybody.min_ksep_energy.nonconverged"],
            "manybody.min_ksep_energy.partitions_visited_ratio":
                yields_in_min_ksep / partitions_total if partitions_total else 0.0,
            "applications.qss_run.rounds": c["applications.qss_run.rounds"],
            "unstable.chsh_bound.nonconverged": c["unstable.chsh_bound.nonconverged"],
            "trace.overhead_s":
                statistics.median(traced_pass_s) - statistics.median(untraced_pass_s),
        }
        ratios = {"states.element.distinct_ratio", "criteria.elements_per_call",
                  "manybody.min_ksep_energy.partitions_visited_ratio", "trace.overhead_s"}
        out = {}
        for name, unit in PER_LAYER:
            if name in raw:
                value = raw[name] if name in ratios else raw[name] / passes
            else:
                layer, stat = name.rsplit(".", 1)
                value = (calls[layer] if stat == "calls" else self_s[layer]) / passes
            out[name] = {"value": value, "unit": unit}
        return out

    def write_spans(self, path):
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "start": s[START], "end": s[END],
                    "parent": ids.get(s[PARENT]), "job": s[JOB],
                    "self_s": (s[END] - s[START]) - s[CHILD_S],
                }) + "\n")
