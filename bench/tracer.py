"""Per-layer tracing from outside the package.

The package calls across its modules through module attributes
(``channel.fading_pdf``, ``specfun.integrate``, ...), and inside a module
through the module's globals, which are the same dictionary.  Replacing a
public function in every ``uavlink`` namespace that holds it therefore
routes every call through a timing wrapper without touching ``src/``.

Spans nest: each wrapper records its own duration and subtracts the time
its wrapped callees took, so ``self`` is the time spent in the function's
own code (and in unwrapped helpers it calls).  Only per-function
aggregates are kept, because the hot functions run millions of times.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time

from uavlink import specfun

# Modules whose public functions are wrapped, in dependency order.
LAYERS = (
    "specfun",
    "channel",
    "queueing",
    "interference",
    "throughput",
    "simulator",
    "scenario_io",
    "presets",
)


def package_namespaces() -> list:
    """The ``uavlink`` package and every loaded submodule."""
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "uavlink" or name.startswith("uavlink."))
    ]


def public_functions() -> dict:
    """Map each public function object of the traced layers to ``layer.name``."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"uavlink.{layer}")
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                found[obj] = f"{layer}.{name}"
    return found


def _integrate_error_ratio(args, kwargs, result) -> float:
    """Achieved error estimate over the tolerance ``specfun.integrate`` was asked for."""
    spec = args[3] if len(args) > 3 else kwargs.get("spec", specfun.DEFAULT_QUAD)
    tol = max(spec.absolute_tolerance, spec.relative_tolerance * abs(result.value))
    return result.error / tol


class Tracer:
    """Aggregates calls, total time and self time per wrapped function.

    ``stats[name]`` is ``[calls, total_s, self_s]``.  ``err_ratio_max`` is
    the worst achieved-error-to-tolerance ratio of ``specfun.integrate``.
    """

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.err_ratio_max = 0.0
        self._children = [0.0]  # per open span: time taken by wrapped callees

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        children = self._children
        clock = time.perf_counter
        observe = name == "specfun.integrate"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = children.pop()
                children[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - inner
            if observe:
                self.err_ratio_max = max(
                    self.err_ratio_max, _integrate_error_ratio(args, kwargs, result)
                )
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every public function while the block runs, then restore them."""
        names = public_functions()
        wrappers = {fn: self._wrap(name, fn) for fn, name in names.items()}
        patched = []
        try:
            for module in package_namespaces():
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in wrappers:
                        setattr(module, attr, wrappers[value])
                        patched.append((module, attr, value))
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)
