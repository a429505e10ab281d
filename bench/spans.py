"""Span recorder for the traced run.

Every public function and public method of the seven chamberwalk modules is
replaced, at every module attribute that binds it, by a wrapper that records
a span (name, start, end, parent).  The rebinding matters because convolve,
selftest, walk and cli import names directly.  Spans live in flat arrays in
memory and are written out once, at the end of the run.  A few wrappers also
count work (matrices, samples, accepted draws) at the same boundary.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import defaultdict

import numpy as np

from oracles import tilted_acceptance

LAYERS = ("roots", "special", "kernels", "convolve", "walk", "selftest", "cli")

SELFTEST_CHECKS = (
    "rho_tables", "psi_vs_haar_mc", "ratio_identity", "bc_coincidence",
    "m1_consistency", "deformation", "multiplicativity", "support",
    "qr_exactness", "contractivity", "strong_law", "crosscheck_law",
)


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _count_arg(key, pos, name):
    def count(counts, args, kwargs, out):
        counts[key] += int(_arg(args, kwargs, pos, name))
    return count


def _count_regularized(counts, args, kwargs, out):
    counts["special.regularized"] += int(out.regularized)


def _count_tilted(counts, args, kwargs, out):
    accepted = out[0].shape[0]
    counts["walk.tilted_accepted"] += accepted
    counts["walk.tilted_proposed"] += out[1]
    counts["walk.tilted_expected_proposals"] += (
        accepted / tilted_acceptance(_arg(args, kwargs, 1, "x")))


COUNTERS = {
    "kernels.haar_unitary_batch": _count_arg("kernels.haar_matrices", 1, "n"),
    "kernels.haar_orthogonal_batch": _count_arg("kernels.haar_matrices", 1, "n"),
    "kernels.orbit_diagonal_batch": _count_arg("kernels.orbit_samples", 2, "n"),
    "special.m1_mc": _count_arg("special.m1_mc_samples", 2, "n"),
    "special.spherical_psi": _count_regularized,
    "special.spherical_phi": _count_regularized,
    "convolve.conv_hermitian_cloud": _count_arg("convolve.hermitian_samples", 3, "n"),
    "convolve.conv_group_cloud": _count_arg("convolve.group_samples", 3, "n"),
    "walk.tilted_orbit_batch": _count_tilted,
}


class SpanRecorder:
    """Spans as parallel arrays; ``stack`` holds the open spans' indices."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, name: str, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack, counts, clock = self.stack, self.counts, time.perf_counter
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, out)
            return out

        return traced

    def install(self, package) -> None:
        """Wrap each layer's public functions and methods wherever bound."""
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}")
                   for layer in LAYERS}
        holders = [package, *modules.values()]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self.wrap(f"{layer}.{attr}", obj)
                    for holder in holders:
                        for key, value in list(vars(holder).items()):
                            if value is obj:
                                self._patch(holder, key, wrapped)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._patch(obj, meth, self.wrap(f"{layer}.{attr}.{meth}", fn))

    def _patch(self, holder, key, value) -> None:
        self._patches.append((holder, key, getattr(holder, key)))
        setattr(holder, key, value)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, np.int32),
                 parent=np.frombuffer(self.parent, np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))


class SpanTable:
    """Per-name call counts, inclusive and self time over a range of spans."""

    def __init__(self, rec: SpanRecorder, lo: int, hi: int):
        name_id = np.frombuffer(rec.name_id, np.int32)[lo:hi]
        parent = np.frombuffer(rec.parent, np.int32)[lo:hi] - lo
        dur = (np.frombuffer(rec.end) - np.frombuffer(rec.start))[lo:hi]
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent],
                               minlength=hi - lo)
        k = len(rec.names)
        self.names = rec.names
        self.calls = np.bincount(name_id, minlength=k)
        self.total = np.bincount(name_id, weights=dur, minlength=k)
        self.self_time = np.bincount(name_id, weights=dur - children, minlength=k)

    def _index(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            return None

    def n(self, name) -> int:
        i = self._index(name)
        return 0 if i is None else int(self.calls[i])

    def total_s(self, *names) -> float:
        return sum(float(self.total[i]) for i in map(self._index, names) if i is not None)

    def self_s(self, *names) -> float:
        return sum(float(self.self_time[i]) for i in map(self._index, names) if i is not None)

    def layer_self_s(self, layer) -> float:
        return sum(float(t) for name, t in zip(self.names, self.self_time)
                   if name.split(".", 1)[0] == layer)


def _ratio(num: float, den: float) -> float:
    # a layer the workload never calls reports 0 per call, not a division by zero
    return num / den if den else 0.0


def layer_metrics(rec: SpanRecorder, setup_end: int, passes: int, slowdown: float,
                  extra: dict) -> dict:
    """Per-layer metrics: setup spans for roots, per-pass means for the rest.

    Times are divided by the host slowdown measured during the traced
    passes, as the end-to-end times are (host.py).
    """
    setup = SpanTable(rec, 0, setup_end)
    run = SpanTable(rec, setup_end, len(rec))
    c = rec.counts
    us = 1e6
    per = 1.0 / passes
    haar = ("kernels.haar_unitary_batch", "kernels.haar_orthogonal_batch")
    m = {
        "roots.weyl_enum_ms": 1e3 * setup.total_s("roots.enumerate_weyl"),
        "special.phi_calls": per * run.n("special.spherical_phi"),
        "special.phi_us": us * _ratio(run.total_s("special.spherical_phi"),
                                      run.n("special.spherical_phi")),
        "special.psi_calls": per * run.n("special.spherical_psi"),
        "special.psi_us": us * _ratio(run.total_s("special.spherical_psi"),
                                      run.n("special.spherical_psi")),
        "special.m1_calls": per * run.n("special.m1_closed"),
        "special.m1_us": us * _ratio(run.total_s("special.m1_closed"),
                                     run.n("special.m1_closed")),
        "special.m1_mc_us_per_sample": us * _ratio(run.total_s("special.m1_mc"),
                                                   c["special.m1_mc_samples"]),
        "special.regularized_calls": per * c["special.regularized"],
        "special.self_s": per * run.layer_self_s("special"),
        "kernels.haar_matrices": per * c["kernels.haar_matrices"],
        "kernels.haar_us_per_matrix": us * _ratio(run.total_s(*haar),
                                                  c["kernels.haar_matrices"]),
        "kernels.orbit_us_per_sample": us * _ratio(run.total_s("kernels.orbit_diagonal_batch"),
                                                   c["kernels.orbit_samples"]),
        "kernels.jacobi_calls": per * run.n("kernels.jacobi_eigh"),
        "kernels.jacobi_us": us * _ratio(run.total_s("kernels.jacobi_eigh"),
                                         run.n("kernels.jacobi_eigh")),
        "kernels.self_s": per * run.layer_self_s("kernels"),
        "convolve.hermitian_samples": per * c["convolve.hermitian_samples"],
        "convolve.hermitian_us_per_sample": us * _ratio(
            run.self_s("convolve.conv_hermitian_cloud"), c["convolve.hermitian_samples"]),
        "convolve.group_samples": per * c["convolve.group_samples"],
        "convolve.group_us_per_sample": us * _ratio(
            run.self_s("convolve.conv_group_cloud"), c["convolve.group_samples"]),
        "convolve.support_self_s": per * run.self_s("convolve.support_equivalence"),
        "walk.update_calls": per * run.n("walk.ProductAccumulator.update"),
        "walk.update_us": us * _ratio(run.total_s("walk.ProductAccumulator.update"),
                                      run.n("walk.ProductAccumulator.update")),
        "walk.readout_calls": per * run.n("walk.ProductAccumulator.readout"),
        "walk.readout_us": us * _ratio(run.total_s("walk.ProductAccumulator.readout"),
                                       run.n("walk.ProductAccumulator.readout")),
        "walk.group_walk_self_s": per * run.self_s("walk.run_group_walk"),
        "walk.tilted_accepted": per * c["walk.tilted_accepted"],
        "walk.tilted_proposed": per * c["walk.tilted_proposed"],
        "walk.tilted_proposed_over_theory": _ratio(c["walk.tilted_proposed"],
                                                   c["walk.tilted_expected_proposals"]),
        "walk.tilted_us_per_sample": us * _ratio(run.total_s("walk.tilted_orbit_batch"),
                                                 c["walk.tilted_accepted"]),
        "walk.crosscheck_self_s": per * run.self_s("walk.euclidean_walk_crosscheck"),
    }
    for check in SELFTEST_CHECKS:
        m[f"selftest.{check}_s"] = per * run.total_s(f"selftest.check_{check}")
    m["cli.self_s"] = per * run.layer_self_s("cli")
    for name in m:
        if name.endswith(("_s", "_ms", "_us")) or "_us_per_" in name:
            m[name] /= slowdown
    m["trace.spans"] = per * (len(rec) - setup_end)
    m.update(extra)
    return m
