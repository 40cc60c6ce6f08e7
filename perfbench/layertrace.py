"""Layer tracing for one benchmark unit, installed from outside the package.

Every public function a layer exposes is replaced by a wrapper that opens a
frame on a stack, runs the original and closes the frame. Frames give:

* inclusive time and call count per function;
* self time per layer (frame time minus the time of child frames, garbage
  collection included as a child, so ``runtime`` owns it);
* spans (id, name, start, end, parent id), kept in memory and written out
  when the unit ends. Primitive kinds and ``ops.apply_op`` run hundreds of
  thousands of times per search, so they feed the counters but keep no span.

Wrappers replace every reference to the original function object, in every
``cellsearch`` module namespace, in module-level dicts (``ops._ACTIVATIONS``,
``tensor.PRIMITIVES``) and in class dicts. A name imported with ``from x
import f`` is therefore wrapped too, and ``cellsearch.search`` (which the
package rebinds to the function of that name) is reached through
``sys.modules``.

Nothing here imports ``cellsearch`` or numpy at import time, so the worker
can time the package import as set-up.
"""

from __future__ import annotations

import gc
import importlib
import pathlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("tensor", "cell", "ops", "network", "tasks", "optim", "search",
          "fidelity", "gradcheck", "cli", "runtime")

# The 11 kinds a search records (concatenate only with cell_reduction = concat).
SEARCH_KINDS = ("select-index", "elementwise-multiply", "add", "matrix-multiply",
                "scale-by-constant", "softmax-over-axis", "tanh", "relu", "sigmoid",
                "softmax-cross-entropy", "concatenate")

PRIMITIVE_FUNCS = {
    "add": "add", "subtract": "subtract", "scale": "scale-by-constant",
    "multiply": "elementwise-multiply", "matmul": "matrix-multiply",
    "tanh": "tanh", "relu": "relu", "sigmoid": "sigmoid",
    "softmax": "softmax-over-axis", "concatenate": "concatenate",
    "mean": "mean-over-axis", "sum_all": "sum", "select": "select-index",
    "mse_loss": "mean-squared-error", "cross_entropy": "softmax-cross-entropy",
}

# (layer, owner attribute path, keep spans). Owners are a module or a class
# inside it; every listed function is a public entry point of its layer,
# except search._weight_step, which is the weight-step phase of the loop.
TRACED = [
    ("tensor", "backward", True),
    ("tensor", "finite_difference", True),
    ("cell", "mixed_edge_forward", True),
    ("cell", "cell_forward", True),
    ("cell", "discrete_forward", True),
    ("cell", "derive_genotype", True),
    ("cell", "sample_genotype", True),
    ("cell", "format_alpha", True),
    ("ops", "apply_op", False),
    ("network", "CellClassifier.init_weights", True),
    ("network", "CellClassifier.init_genotype_weights", True),
    ("network", "CellClassifier.logits_mixed", True),
    ("network", "CellClassifier.logits_discrete", True),
    ("network", "CellClassifier.accuracy_discrete", True),
    ("tasks", "SyntheticCellTask.batch", True),
    ("tasks", "SyntheticCellTask.loss", True),
    ("tasks", "SyntheticCellTask.discrete_loss", True),
    ("tasks", "SyntheticCellTask.split_accuracy", True),
    ("tasks", "DataConfig.build", True),
    ("optim", "SgdMomentum.step", True),
    ("optim", "Adam.step", True),
    ("optim", "clip_global_norm", True),
    ("search", "search", True),
    ("search", "loss_and_grads", True),
    ("search", "loss_value", True),
    ("search", "unrolled_weights", True),
    ("search", "arch_gradient_first_order", True),
    ("search", "arch_gradient_second_order", True),
    ("search", "hvp_finite_difference", True),
    ("search", "_weight_step", True),
    ("search", "train_genotype", True),
    ("search", "random_search", True),
    ("fidelity", "run_fidelity_suite", True),
    ("fidelity", "check_networks_eps_rule", True),
    ("fidelity", "check_quadratics_exact_hvp", True),
    ("fidelity", "fd_unrolled_gradient", True),
    ("fidelity", "unrolled_objective", True),
    ("gradcheck", "check_all_primitives", True),
    ("gradcheck", "check_kind", True),
    ("cli", "main", True),
    ("cli", "load_config", True),
    ("cli", "build_problem", True),
    ("cli", "write_manifest", True),
    ("cli", "write_trajectory", True),
    ("cli", "write_summary", True),
]

# Frames whose outermost occurrence counts as artifact writing.
ARTIFACT_WRITERS = {"cli.write_manifest", "cli.write_trajectory", "cli.write_summary",
                    "cli.write_text", "cell.format_alpha"}

TAPE_SPAN = "tensor.taped_forward"


def package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "cellsearch" or name.startswith("cellsearch."))]


def replace_everywhere(old, new) -> int:
    """Rebind every reference to ``old`` inside the package; return how many."""
    hits = 0
    for module in package_modules():
        namespaces = [vars(module)]
        for value in list(vars(module).values()):
            if isinstance(value, dict):
                namespaces.append(value)
            elif isinstance(value, type) and value.__module__ == module.__name__:
                namespaces.append(value)
        for ns in namespaces:
            items = vars(ns).items() if isinstance(ns, type) else ns.items()
            for key, value in list(items):
                if value is old:
                    if isinstance(ns, type):
                        setattr(ns, key, new)
                    else:
                        ns[key] = new
                    hits += 1
    return hits


def resolve(layer: str, path: str):
    owner = importlib.import_module(f"cellsearch.{layer}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)


class Tracer:
    """Frame stack, span log and counters for one traced unit."""

    def __init__(self):
        self.stack: list[list] = []  # [name, start, child_time, span_id]
        self.spans: list[tuple] = []  # (id, name, start, end, parent_id)
        self.next_id = 1
        self.total: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.self_time: dict[str, float] = defaultdict(float)
        self.kinds: Counter = Counter()
        self.taped_passes = 0
        self.clip_attempts = 0
        self.clipped = 0
        self.artifact_depth = 0
        self.artifact_s = 0.0
        self.gc_s = 0.0
        self.gc_collections = 0
        self.gc_collected = 0
        self._gc_start = 0.0

    # -- frames ------------------------------------------------------------

    def _open(self, name: str, keep: bool) -> list:
        stack = self.stack
        if keep:
            span_id = self.next_id
            self.next_id += 1
        else:
            span_id = stack[-1][3] if stack else 0
        frame = [name, perf_counter(), 0.0, span_id]
        stack.append(frame)
        return frame

    def _close(self, frame: list, layer: str, keep: bool) -> float:
        end = perf_counter()
        stack = self.stack
        stack.pop()
        name, start, child, span_id = frame
        dur = end - start
        self.total[name] += dur
        self.calls[name] += 1
        self.self_time[layer] += dur - child
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += dur
        if keep:
            self.spans.append((span_id, name, start, end, parent[3] if parent else 0))
        return dur

    def wrap(self, fn, name: str, layer: str, keep: bool):
        tracer = self
        artifact = name in ARTIFACT_WRITERS

        def traced(*args, **kwargs):
            frame = tracer._open(name, keep)
            if artifact:
                tracer.artifact_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                dur = tracer._close(frame, layer, keep)
                if artifact:
                    tracer.artifact_depth -= 1
                    if tracer.artifact_depth == 0:
                        tracer.artifact_s += dur

        return traced

    def wrap_clip(self, fn):
        tracer = self
        traced_inner = self.wrap(fn, "optim.clip_global_norm", "optim", True)

        def traced(grads, max_norm):
            out = traced_inner(grads, max_norm)
            tracer.clip_attempts += 1
            tracer.clipped += out[1] > max_norm and out[1] != 0.0
            return out

        return traced

    # -- tape --------------------------------------------------------------

    def install_tape(self, tape_cls) -> None:
        tracer = self
        enter, exit_ = tape_cls.__enter__, tape_cls.__exit__
        open_frames: dict[int, list] = {}

        def traced_enter(tape):
            result = enter(tape)
            open_frames[id(tape)] = tracer._open(TAPE_SPAN, True)
            return result

        def traced_exit(tape, exc_type, exc, tb):
            frame = open_frames.pop(id(tape), None)
            if frame is not None:
                tracer._close(frame, "tensor", True)
                tracer.taped_passes += 1
                tracer.kinds.update(rec[0] for rec in tape.records)
            return exit_(tape, exc_type, exc, tb)

        tape_cls.__enter__ = traced_enter
        tape_cls.__exit__ = traced_exit

    # -- garbage collector -------------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
            return
        dur = perf_counter() - self._gc_start
        self.gc_s += dur
        self.gc_collections += 1
        self.gc_collected += info.get("collected", 0)
        self.self_time["runtime"] += dur
        if self.stack:
            self.stack[-1][2] += dur

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function; fail loudly if one is not found."""
        tensor = importlib.import_module("cellsearch.tensor")
        for func_name, kind in PRIMITIVE_FUNCS.items():
            original = getattr(tensor, func_name)
            wrapper = self.wrap(original, "tensor.prim." + kind, "tensor", False)
            if replace_everywhere(original, wrapper) == 0:
                raise RuntimeError(f"primitive {func_name} not found")
        for layer, path, keep in TRACED:
            original = resolve(layer, path)
            if path == "clip_global_norm":
                wrapper = self.wrap_clip(original)
            else:
                wrapper = self.wrap(original, f"{layer}.{path}", layer, keep)
            if replace_everywhere(original, wrapper) == 0:
                raise RuntimeError(f"{layer}.{path} not found")
        self.install_tape(tensor.Tape)
        pathlib.Path.write_text = self.wrap(pathlib.Path.write_text, "cli.write_text", "cli", True)
        gc.callbacks.append(self._on_gc)

    def uninstall_gc(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- results -----------------------------------------------------------

    def write_spans(self, path) -> None:
        lines = ["id,name,start,end,parent"]
        lines += [f"{i},{name},{start:.9f},{end:.9f},{parent}"
                  for i, name, start, end, parent in sorted(self.spans)]
        pathlib.Path(path).write_text("\n".join(lines) + "\n")

    def metrics(self, iterations: int) -> dict:
        """Per-layer metrics of this unit; ``iterations`` is the search length."""
        t, n = self.total, self.calls
        by_id = {s[0]: s for s in self.spans}

        def has_ancestor(span, prefix: str) -> bool:
            parent = by_id.get(span[4])
            while parent is not None:
                if parent[1].startswith(prefix):
                    return True
                parent = by_id.get(parent[4])
            return False

        val_pass_s = 0.0
        search_passes = 0
        fidelity_untaped = 0
        for span in self.spans:
            name = span[1]
            if name == "search.loss_and_grads":
                parent = by_id.get(span[4])
                if parent is not None and parent[1].startswith("search.arch_gradient_"):
                    val_pass_s += span[3] - span[2]
            elif name == TAPE_SPAN:
                search_passes += has_ancestor(span, "search.search")
            elif name == "search.loss_value":
                fidelity_untaped += has_ancestor(span, "fidelity.")

        passes = self.taped_passes
        records = sum(self.kinds.values())
        forward_s = t[TAPE_SPAN]
        backward_s = t["tensor.backward"]
        accuracy = "network.CellClassifier.accuracy_discrete"
        out = {
            "tensor.records_per_pass": records / passes if passes else 0.0,
            "tensor.taped_passes": passes,
            "tensor.untaped_passes": n["search.loss_value"] + n[accuracy],
            "tensor.forward_s": forward_s,
            "tensor.backward_s": backward_s,
            "tensor.untaped_forward_s": t["search.loss_value"] + t[accuracy],
            "tensor.us_per_record": 1e6 * (forward_s + backward_s) / records if records else 0.0,
        }
        for kind in SEARCH_KINDS:
            out[f"tensor.records.{kind}"] = self.kinds[kind] / passes if passes else 0.0
        for kind in SEARCH_KINDS:
            out[f"tensor.prim_s.{kind}"] = t["tensor.prim." + kind]
        out.update({
            "runtime.gc_s": self.gc_s,
            "runtime.gc_collections": self.gc_collections,
            "runtime.gc_objects_collected": self.gc_collected,
            "cell.mixed_edge_calls": n["cell.mixed_edge_forward"],
            "cell.mixed_edge_s": t["cell.mixed_edge_forward"],
            "cell.discrete_forward_s": t["cell.discrete_forward"],
            "cell.derive_s": t["cell.derive_genotype"],
            "ops.apply_op_calls": n["ops.apply_op"],
            "network.accuracy_s": t[accuracy],
            "tasks.batch_calls": n["tasks.SyntheticCellTask.batch"],
            "tasks.batch_s": t["tasks.SyntheticCellTask.batch"],
            "optim.sgd_step_s": t["optim.SgdMomentum.step"],
            "optim.adam_step_s": t["optim.Adam.step"],
            "optim.clip_s": t["optim.clip_global_norm"],
            "optim.clip_ratio": self.clipped / self.clip_attempts if self.clip_attempts else 0.0,
            "search.lookahead_s": t["search.unrolled_weights"],
            "search.val_pass_s": val_pass_s,
            "search.hvp_s": t["search.hvp_finite_difference"],
            "search.hvp_calls": n["search.hvp_finite_difference"],
            "search.weight_pass_s": t["search._weight_step"],
            "search.passes_per_iter": search_passes / iterations if iterations else 0.0,
            "search.train_genotype_s": t["search.train_genotype"],
            "fidelity.networks_s": t["fidelity.check_networks_eps_rule"],
            "fidelity.quadratics_s": t["fidelity.check_quadratics_exact_hvp"],
            "fidelity.untaped_passes": fidelity_untaped,
            "gradcheck.primitives_s": t["gradcheck.check_all_primitives"],
            "cli.artifact_write_s": self.artifact_s,
        })
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_time[layer]
        return out
