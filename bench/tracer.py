"""Outside-in tracing of mbaudit's public functions.

Modules bind each other's functions by name (``from .homology import
homology``), so a function is wrapped at every ``mbaudit.*`` binding of
the same object, not only where it is defined.  Modules are reached
through ``sys.modules``, because the package attribute
``mbaudit.homology`` is the function, not the module.  Methods are
wrapped once on their class.

A span records the layer, its start and end, its parent span and the
operation id.  Spans stay in flat arrays until the run ends; self time
is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
from array import array
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Layer:
    """A traced public function and what the benchmark expects of it.

    ``expected_on`` lists the workloads on which the traced run must
    record at least one call; ``moves`` names the end-to-end metric and
    workload a change to this layer should move.
    """

    name: str
    module: str
    attr: str
    expected_on: tuple[str, ...]
    moves: str


CLI, AUDIT, EXPLICIT = "cli-fixtures", "audit-catalog", "explicit-complexes"
ALL = (CLI, AUDIT, EXPLICIT)
AUDIT_OPS = "ops_per_s on audit-catalog"

LAYERS = (
    Layer("cli.main", "mbaudit.cli", "main", (CLI,), "latency_ms_p50 on cli-fixtures"),
    Layer("document.parse_document", "mbaudit.document", "parse_document", ALL,
          "latency_ms_p50 on cli-fixtures; ops_per_s on audit-catalog"),
    Layer("homology.homology", "mbaudit.homology", "homology", ALL,
          "ops_per_s, latency_ms_p50 on audit-catalog; not better on explicit-complexes"),
    Layer("homology.catalog_complex", "mbaudit.homology", "catalog_complex", ALL,
          "ops_per_s, latency_ms_p50 on audit-catalog; not better on explicit-complexes"),
    Layer("homology.IntegerChainComplex", "mbaudit.homology", "IntegerChainComplex.__init__", ALL,
          "latency_ms_p50 on explicit-complexes"),
    Layer("homology.IntegerMatrix.matmul", "mbaudit.homology", "IntegerMatrix.__matmul__", ALL,
          "latency_ms_p50 on explicit-complexes"),
    Layer("homology.smith_normal_form", "mbaudit.homology", "smith_normal_form", ALL,
          "ops_per_s on audit-catalog (per call); latency_ms_p90, ok_frac on explicit-complexes (growth)"),
    Layer("morse.MorseData", "mbaudit.morse", "MorseData.__init__", (CLI, EXPLICIT),
          "latency_ms_p50 on explicit-complexes"),
    Layer("morse.stabilize", "mbaudit.morse", "stabilize", (CLI, EXPLICIT),
          "latency_ms_p50 on explicit-complexes"),
    Layer("morse.morse_homology", "mbaudit.morse", "morse_homology", (CLI, EXPLICIT),
          "latency_ms_p50 on explicit-complexes"),
    Layer("morsebott.mb_polynomial", "mbaudit.morsebott", "mb_polynomial", (CLI, AUDIT), AUDIT_OPS),
    Layer("morsebott.check_inequalities", "mbaudit.morsebott", "check_inequalities", (CLI, AUDIT),
          AUDIT_OPS),
    Layer("morsebott.e2_page", "mbaudit.morsebott", "e2_page", (CLI, AUDIT), AUDIT_OPS),
    Layer("morsebott.e2_consistency", "mbaudit.morsebott", "e2_consistency", (CLI, AUDIT), AUDIT_OPS),
    Layer("morsebott.MorseBottData.ambient_homology", "mbaudit.morsebott",
          "MorseBottData.ambient_homology", (CLI, AUDIT), AUDIT_OPS),
    Layer("bundles.thom_pair_homology", "mbaudit.bundles", "thom_pair_homology", (CLI, AUDIT),
          AUDIT_OPS),
    Layer("bundles.thom_iso_check", "mbaudit.bundles", "thom_iso_check", (CLI,), AUDIT_OPS),
    Layer("polyalg.divide_by_one_plus_t", "mbaudit.polyalg", "divide_by_one_plus_t", (CLI, AUDIT),
          AUDIT_OPS),
)


class Tracer:
    def __init__(self, layers=LAYERS) -> None:
        self.layers = tuple(layers)
        self.layer = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.raised: dict[int, str] = {}
        self.homology_inputs: set[int] = set()
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "mbaudit" or n.startswith("mbaudit.")]
        for idx, layer in enumerate(self.layers):
            owner = sys.modules[layer.module]
            cls_name, _, attr = layer.attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, self._wrap(idx, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(idx, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, idx: int, fn):
        layer, start, end, parent, op = self.layer, self.start, self.end, self.parent, self.op
        stack, raised = self._stack, self.raised
        inputs = self.homology_inputs if self.layers[idx].name == "homology.homology" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if inputs is not None:
                inputs.add(hash(args[0] if args else kwargs["complex"]))
            sid = len(start)
            layer.append(idx)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            end.append(0.0)
            stack.append(sid)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                raised[sid] = type(exc).__name__
                raise
            finally:
                end[sid] = perf_counter()
                stack.pop()

        return wrapper

    def summary(self) -> dict[str, dict]:
        """Calls and self seconds per layer, plus counts derived from spans."""
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        out = {layer.name: {"calls": 0, "self_s": 0.0} for layer in self.layers}
        for i in range(n):
            entry = out[self.layers[self.layer[i]].name]
            entry["calls"] += 1
            entry["self_s"] += self.end[i] - self.start[i] - covered[i]
        return out

    def count_raised(self, layer_name: str, exc_name: str) -> int:
        return sum(
            1
            for sid, name in self.raised.items()
            if name == exc_name and self.layers[self.layer[sid]].name == layer_name
        )

    def write(self, path) -> None:
        """Spans as CSV, times relative to the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as f:
            f.write("span,layer,start_s,end_s,parent,op,raised\n")
            for i in range(len(self.start)):
                f.write(
                    f"{i},{self.layers[self.layer[i]].name},{self.start[i] - t0:.9f},"
                    f"{self.end[i] - t0:.9f},{self.parent[i]},{self.op[i]},{self.raised.get(i, '')}\n"
                )
