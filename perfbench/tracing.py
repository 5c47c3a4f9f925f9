"""Tracing from outside the program: wrap each layer's public functions at
every name that binds them, and record spans and counts in memory.

Every module of the ``bkm`` package is scanned, and each binding of a
traced function is replaced: ``bkm.bkm.lu_solve``, ``bkm.drm.lu_solve``
and ``bkm.lu_solve`` all become the same wrapper, and so do entries of
module-level dicts such as the CLI's problem table.  The program's source
is not edited; ``uninstall`` puts every original back.

Timed functions get a span (name, start, end, parent, case id).  A span's
self time is its duration minus the time its direct children cover.
Kernel and special-function calls are too frequent for spans, so they are
only counted: the kernels the solver builds (``helmholtz2d``,
``mq_pair``) are rebuilt with counting ``eval``/``deriv``, and each
``bessel_*`` binding counts its calls.
"""

from __future__ import annotations

import collections
import dataclasses
import sys
import time

# Layer module -> functions that get a span named "<layer>.<function>".
TIMED = {
    "geometry": ("ellipse_knots", "interior_grid"),
    "linalg": ("lu_factor", "lu_solve", "cond_estimate_1norm"),
    "drm": ("interp_matrix", "particular_matrix", "rho_matrix", "solve_alpha", "u_p_at"),
    "bkm": ("assemble_bkm_matrix", "solve_boundary_only", "solve_mixed_linear", "evaluate"),
    "cli": ("main",),
}
COUNTED = {
    "kernels.normal_derivative": ("kernels", ("normal_derivative",)),
    "specfun": ("specfun", ("bessel_j0", "bessel_j1", "bessel_i0", "bessel_i1")),
}
KERNEL_FACTORIES = ("helmholtz2d", "mq_pair")
PROBLEM_FACTORIES = ("laplace_benchmark", "helmholtz_benchmark", "burger_benchmark")
PROBLEM_CALLBACKS = ("forcing", "dirichlet", "exact")


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self) -> None:
        # Each span: [name, start, end, parent index or -1, case id or None].
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.case: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[dict, object, object]] = []

    def reset(self) -> None:
        """Forget what was recorded so far (set-up and warm-up work)."""
        self.spans.clear()
        self.counts.clear()

    # --- wrappers ---------------------------------------------------------

    def timed(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.case]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()

        return wrapper

    def counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _factor_flops(self, fn):
        """Add the computed 2/3 n^3 flops of each factorization."""
        counts = self.counts

        def wrapper(a, *args, **kwargs):
            n = len(a)
            counts["linalg.factor_flops"] += 2.0 * n * n * n / 3.0
            return fn(a, *args, **kwargs)

        return wrapper

    def _kernel_factory(self, fn):
        def counted_kernel(kernel):
            return dataclasses.replace(
                kernel,
                eval=self.counted("kernels.eval", kernel.eval),
                deriv=self.counted("kernels.deriv", kernel.deriv),
            )

        def wrapper(*args, **kwargs):
            made = fn(*args, **kwargs)
            if hasattr(made, "phi_hat"):
                return dataclasses.replace(
                    made, phi_hat=counted_kernel(made.phi_hat), phi=counted_kernel(made.phi)
                )
            return counted_kernel(made)

        return wrapper

    def _problem_factory(self, fn):
        def wrapper(*args, **kwargs):
            spec = fn(*args, **kwargs)
            callbacks = {
                name: self.timed("problems.callback", getattr(spec, name))
                for name in PROBLEM_CALLBACKS
                if getattr(spec, name) is not None
            }
            return dataclasses.replace(spec, **callbacks)

        return wrapper

    # --- installation -----------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function in every loaded ``bkm`` module."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        package = {
            name: module
            for name, module in sys.modules.items()
            if name == "bkm" or name.startswith("bkm.")
        }
        replacements: dict[int, tuple[object, object]] = {}

        def replace(layer: str, name: str, make) -> None:
            original = getattr(package[f"bkm.{layer}"], name)
            replacements[id(original)] = (original, make(original))

        for layer, names in TIMED.items():
            for name in names:
                if (layer, name) == ("linalg", "lu_factor"):
                    replace(layer, name, lambda f: self.timed("linalg.lu_factor", self._factor_flops(f)))
                else:
                    replace(layer, name, lambda f, span=f"{layer}.{name}": self.timed(span, f))
        for key, (layer, names) in COUNTED.items():
            for name in names:
                replace(layer, name, lambda f, key=key: self.counted(key, f))
        for name in KERNEL_FACTORIES:
            replace("kernels", name, self._kernel_factory)
        for name in PROBLEM_FACTORIES:
            replace("problems", name, self._problem_factory)

        for module in package.values():
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if key.startswith("__"):
                    continue
                self._rebind(namespace, key, value, replacements)
                if isinstance(value, dict):
                    for inner_key, inner in list(value.items()):
                        self._rebind(value, inner_key, inner, replacements)

    def _rebind(self, namespace: dict, key, value, replacements) -> None:
        entry = replacements.get(id(value))
        if entry is not None and entry[0] is value:
            namespace[key] = entry[1]
            self._patches.append((namespace, key, value))

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._patches):
            namespace[key] = original
        self._patches.clear()

    # --- summary ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time in seconds of each span: duration minus child coverage."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, case in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def by_name(self) -> tuple[collections.Counter, collections.Counter]:
        """(calls, self seconds) per span name, over spans inside cases."""
        calls: collections.Counter = collections.Counter()
        seconds: collections.Counter = collections.Counter()
        for span, self_s in zip(self.spans, self.self_times()):
            if span[4] is not None:
                calls[span[0]] += 1
                seconds[span[0]] += self_s
        return calls, seconds

    def calls_by_case(self, name: str) -> collections.Counter:
        """Calls of span ``name`` per case id."""
        return collections.Counter(s[4] for s in self.spans if s[0] == name and s[4] is not None)

    def write(self, path) -> None:
        """Write the spans as tab-separated lines: name, start, end, parent, case."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart_s\tend_s\tparent\tcase\n")
            for name, start, end, parent, case in self.spans:
                handle.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{'' if case is None else case}\n")
