"""Self-test of the benchmark: exact counts from the traced run, metric names.

    python3 perfbench/selftest.py

Runs each workload once with ``--trace 1`` and the cheapest one with
``--trace 0`` (about a minute in all), then checks:

* every metric named in BENCHMARK.json is printed, and nothing else;
* the exact counts the program makes at desk scale. A change that alters
  the tape on purpose (fewer records per pass, a fused primitive) updates
  the expected counts here in the same change.

Zero readings from a traced function that the workload calls mean a wrapper
was installed on a name its callers do not use, so those are checked too.
The file is not named ``test_*.py`` so the repository's pytest run does not
collect it.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Records of one relaxed desk-cell pass, by kind: 9 mixed edges of 22 records
# (softmax, 5 select+multiply pairs, 4 adds, the zero op's scale, 3 matmul +
# activation pairs), then 2 stem matmuls, 6 node-sum adds, a mean reduction
# (2 adds, 1 scale), the head matmul and the loss: 211 in all.
DESK_RECORDS = {"select-index": 45, "elementwise-multiply": 45, "add": 44,
                "matrix-multiply": 30, "scale-by-constant": 10, "softmax-over-axis": 9,
                "tanh": 9, "relu": 9, "sigmoid": 9, "softmax-cross-entropy": 1,
                "concatenate": 0}
SEARCH_STEPS = 400
PASSES_PER_ITER = 5
RETRAIN_PASSES = 32 * 150
FIDELITY_UNTAPED = 20 * 50 + 20 * 8  # logits x 2 probes, per network and quadratic problem


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Checker:
    def __init__(self):
        self.failures: list[str] = []

    def equal(self, what: str, got, want) -> None:
        if got != want:
            self.failures.append(f"{what}: got {got!r}, want {want!r}")

    def true(self, what: str, ok: bool) -> None:
        if not ok:
            self.failures.append(what)

    def positive(self, workload: str, metrics: dict, names) -> None:
        for name in names:
            self.true(f"{workload}: {name} reads zero", metrics[name] > 0)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e_names = {m["name"] for m in spec["end_to_end"]}
    layer_names = {m["name"] for m in spec["per_layer"]}
    check = Checker()

    e2e = run("grad-check", 0)
    check.equal("grad-check --trace 0 metric names", set(e2e["metrics"]), e2e_names)

    layers = {}
    for workload in ("desk-second-order", "desk-random-eval", "grad-check"):
        result = run(workload, 1)
        check.true(f"{workload}: outputs not correct", result["correct"])
        check.equal(f"{workload}: failed operations", result["failed"], 0)
        check.equal(f"{workload} --trace 1 metric names", set(result["metrics"]), layer_names)
        layers[workload] = {k: v["value"] for k, v in result["metrics"].items()}

    w1 = layers["desk-second-order"]
    check.equal("W1 records per pass", w1["tensor.records_per_pass"], sum(DESK_RECORDS.values()))
    for kind, count in DESK_RECORDS.items():
        check.equal(f"W1 {kind} records per pass", w1[f"tensor.records.{kind}"], count)
    check.equal("W1 passes per iteration", w1["search.passes_per_iter"], PASSES_PER_ITER)
    check.equal("W1 taped passes", w1["tensor.taped_passes"], PASSES_PER_ITER * SEARCH_STEPS)
    check.equal("W1 forward passes (EvalCounters)", w1["search.forward_passes"],
                PASSES_PER_ITER * SEARCH_STEPS)
    check.equal("W1 hvp calls", w1["search.hvp_calls"], SEARCH_STEPS)
    check.equal("W1 mixed-edge calls", w1["cell.mixed_edge_calls"],
                9 * PASSES_PER_ITER * SEARCH_STEPS)
    check.positive("W1", w1, ["tensor.forward_s", "tensor.backward_s", "cell.mixed_edge_s",
                              "cell.derive_s", "search.lookahead_s", "search.val_pass_s",
                              "search.hvp_s", "search.weight_pass_s", "optim.sgd_step_s",
                              "optim.adam_step_s", "optim.clip_s", "tasks.batch_s",
                              "runtime.gc_s", "cli.artifact_write_s",
                              "tensor.prim_s.select-index", "tensor.prim_s.tanh"])

    w2 = layers["desk-random-eval"]
    check.equal("W2 mixed-edge calls", w2["cell.mixed_edge_calls"], 0)
    check.equal("W2 taped passes", w2["tensor.taped_passes"], RETRAIN_PASSES)
    for kind in ("select-index", "elementwise-multiply", "softmax-over-axis"):
        check.equal(f"W2 {kind} records per pass", w2[f"tensor.records.{kind}"], 0)
    # A discrete pass: 2 stem and 1 head matmul, 3 node sums and 2 reduction
    # adds, 1 scale, 1 loss, and a matmul plus an activation per linear edge.
    # With 6 retained edges, 22 records is the all-linear maximum.
    linear_edges = w2["tensor.records.matrix-multiply"] - 3
    check.equal("W2 add records per pass", w2["tensor.records.add"], 5)
    check.equal("W2 records per pass", w2["tensor.records_per_pass"], 10 + 2 * linear_edges)
    check.true("W2 records per pass above 22", w2["tensor.records_per_pass"] <= 22)
    check.positive("W2", w2, ["search.train_genotype_s", "cell.discrete_forward_s",
                              "network.accuracy_s", "optim.clip_s", "optim.sgd_step_s"])

    w3 = layers["grad-check"]
    check.equal("W3 fidelity untaped passes", w3["fidelity.untaped_passes"], FIDELITY_UNTAPED)
    check.equal("W3 hvp calls (cell networks only)", w3["search.hvp_calls"], 20)
    check.positive("W3", w3, ["tensor.untaped_passes", "tensor.untaped_forward_s",
                              "fidelity.networks_s", "fidelity.quadratics_s",
                              "gradcheck.primitives_s"])

    for failure in check.failures:
        print("FAIL", failure)
    print(f"selftest: {'FAIL' if check.failures else 'PASS'} ({len(check.failures)} failures)")
    return 1 if check.failures else 0


if __name__ == "__main__":
    sys.exit(main())
