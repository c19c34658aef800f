"""Span tracer that wraps public pnmimo functions from outside the library.

A traced function is replaced by a wrapper under every name that binds it
in a loaded ``pnmimo`` module, because modules look names up in their own
namespace: ``linksim`` calls its imported ``draw_channel``, ``synthesize_estimate``
calls the one in ``channel``, ``cli`` calls its imported ``check_*``.  A
function that no longer exists is reported as absent instead of failing.

Each call records a span (name, start, end, parent) into flat arrays kept
in memory; :meth:`Tracer.dump` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# module -> public functions whose calls are spanned.
TRACED = {
    "cli": ("main",),
    "sweep": ("run_sweep", "rows_to_csv"),
    "analytics": ("resolve_alpha", "sinr_rzf", "sinr_zf", "sinr_mf"),
    "rmt": ("stieltjes_mp",),
    "rates": ("rate_report",),
    "linksim": ("empirical_powers",),
    "channel": ("draw_channel", "synthesize_estimate"),
    "phase_noise": ("simulate_wiener", "theta_vector"),
    "precoding": ("build_rzf", "build_zf", "build_mf"),
    "lemmas": ("check_trace_lemma", "check_rank1_perturbation",
               "check_free_probability_traces", "check_quadratic_form_identities",
               "check_matrix_inversion_identity", "check_resolvent_identity"),
}


class Tracer:
    """Spans and per-call argument records for one traced run."""

    def __init__(self, hooks=None):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.errors: dict[str, int] = defaultdict(int)
        self.hooks = hooks or {}  # qualified name -> fn(args, kwargs)
        self.present: list[str] = []
        self.absent: list[str] = []
        self._stack = [-1]
        self._bindings: list = []  # (module, name, original, wrapper)
        self._bound = False

    def _wrap(self, fn, qualname: str):
        nid = len(self.names)
        self.names.append(qualname)
        hook = self.hooks.get(qualname)
        start, end, name, parent, stack = (self.start, self.end, self.name,
                                           self.parent, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            i = len(start)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.errors[qualname] += 1
                raise
            finally:
                end[i] = clock()
                stack.pop()

        return wrapper

    def _bind(self) -> None:
        """Wrap each function in TRACED once and find every name binding it."""
        modules = {m: importlib.import_module(f"pnmimo.{m}") for m in TRACED}
        loaded = [mod for key, mod in sys.modules.items()
                  if key == "pnmimo" or key.startswith("pnmimo.")]
        for module, funcs in TRACED.items():
            for func in funcs:
                qualname = f"{module}.{func}"
                original = getattr(modules[module], func, None)
                if not callable(original):
                    self.absent.append(qualname)
                    continue
                self.present.append(qualname)
                wrapper = self._wrap(original, qualname)
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._bindings.append((mod, attr, original, wrapper))

    def install(self) -> None:
        if not self._bound:
            self._bind()
            self._bound = True
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)

    def summary(self) -> dict:
        """qualified name -> {calls, total_s, self_s, errors}.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        names = np.asarray(self.name, dtype=np.int32)
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=dur.size)
        self_time = dur - child_time
        out = {}
        for nid, qualname in enumerate(self.names):
            sel = names == nid
            out[qualname] = {"calls": int(sel.sum()),
                             "total_s": float(dur[sel].sum()),
                             "self_s": float(self_time[sel].sum()),
                             "errors": self.errors.get(qualname, 0)}
        return out

    def dump(self, path) -> None:
        """Write every span (name index, start, end, parent index)."""
        np.savez_compressed(path, names=np.array(self.names),
                            name=np.asarray(self.name, dtype=np.int32),
                            start=np.asarray(self.start),
                            end=np.asarray(self.end),
                            parent=np.asarray(self.parent, dtype=np.int32))
