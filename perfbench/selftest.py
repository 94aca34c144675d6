"""Tests of the benchmark itself.

Run from the repository root (takes about two minutes, most of it in the
traced runs):

    python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402

# The layers each workload is built to stress.
TARGET_LAYERS = {
    "classify": ("grading",),
    "slices": ("identities", "linalg"),
    "algebra": ("algebra", "poset"),
    "small": ("cli", "corpus"),
}


def build_bytes(workload, seed):
    with tempfile.TemporaryDirectory() as workdir:
        ops = workloads.build(workload, seed, workdir)
        files = {}
        for name in sorted(os.listdir(workdir)):
            with open(os.path.join(workdir, name), "rb") as handle:
                files[name] = handle.read()
    return json.dumps(ops, sort_keys=True), files


def traced_run(workload, seed):
    """Per-layer metrics of one traced pass, through the benchmark command."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stdout
    return {name: m["value"] for name, m in result["metrics"].items()}


class InputTests(unittest.TestCase):
    def test_same_seed_gives_identical_inputs_and_ops(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(build_bytes(workload, 11), build_bytes(workload, 11))

    def test_other_seed_changes_inputs(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertNotEqual(build_bytes(workload, 11)[1],
                                    build_bytes(workload, 12)[1])


class SelfTimeTests(unittest.TestCase):
    # [id, parent, name, layer, site, start, end, info]
    SPANS = [
        [1, 0, "cli.main", "cli", "incgrade.cli", 100, 200, None],
        [2, 1, "corpus.load_poset", "corpus", "incgrade.cli", 110, 140, None],
        [3, 2, "poset.Poset.__init__", "poset", "incgrade.poset", 115, 125, None],
        [4, 1, "grading.classify_gradings", "grading", "incgrade.cli", 150, 190,
         {"maps": 8, "classes": 2}],
        [5, 4, "poset.automorphisms", "poset", "incgrade.grading", 150, 160, 2],
    ]

    def test_self_time_subtracts_children(self):
        self.assertEqual(tracer.self_times(self.SPANS),
                         {1: 30, 2: 20, 3: 10, 4: 30, 5: 10})

    def test_overlapping_children_are_counted_once(self):
        spans = [[1, 0, "a", "cli", "", 0, 100, None],
                 [2, 1, "b", "cli", "", 10, 50, None],
                 [3, 1, "c", "cli", "", 40, 60, None]]
        self.assertEqual(tracer.self_times(spans)[1], 50)

    def test_inclusive_time_counts_recursion_once(self):
        spans = [[1, 0, "a", "cli", "", 0, 100, None],
                 [2, 1, "a", "cli", "", 10, 50, None],
                 [3, 2, "b", "cli", "", 20, 30, None]]
        self.assertEqual(tracer.inclusive_times(spans), {"a": 100, "b": 10})

    def test_layers_sum_to_wall_and_startup_goes_to_cli(self):
        op = tracer.OpSpans(wall_ns=260, overhead_ns=10, spans=self.SPANS)
        self.assertEqual(op.layer_ns, {"cli": 180, "corpus": 20, "poset": 20,
                                       "algebra": 0, "grading": 30,
                                       "identities": 0, "linalg": 0})
        self.assertEqual(op.startup_ns, 150)
        self.assertEqual(op.cli_self_ns, 30)
        self.assertEqual(op.counts["grading.maps_enumerated"], 8)
        self.assertEqual(op.counts["poset.aut_size"], 2)


class CoverageTests(unittest.TestCase):
    def test_every_binding_site_is_wrapped(self):
        import incgrade.cli  # noqa: F401  (imports every module)
        import incgrade.identities
        import incgrade.linalg

        self.assertNotEqual(tracer.unwrapped_sites(), [])
        tracer.install(tracer.Tracer())
        self.assertEqual(tracer.unwrapped_sites(), [])
        for name in ("identities.nullspace", "grading.automorphisms",
                     "cli.classify_gradings"):
            module, attr = name.split(".")
            bound = getattr(sys.modules[f"incgrade.{module}"], attr)
            self.assertTrue(hasattr(bound, "__perfbench_original__"), name)
        # Undo one binding: the check must name it.
        wrapped = incgrade.identities.nullspace
        incgrade.identities.nullspace = wrapped.__perfbench_original__
        try:
            self.assertEqual(tracer.unwrapped_sites(), ["incgrade.identities.nullspace"])
        finally:
            incgrade.identities.nullspace = wrapped
        self.assertTrue(hasattr(incgrade.linalg.RowReducer.add, "__perfbench_original__"))


class TracedRunTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.runs = {w: (traced_run(w, 5), traced_run(w, 5)) for w in workloads.WORKLOADS}

    def test_work_counts_repeat_exactly(self):
        for workload, (first, second) in self.runs.items():
            for name in tracer.COUNTS:
                with self.subTest(workload=workload, count=name):
                    self.assertEqual(first[name], second[name])

    def test_target_layer_has_largest_self_time_share(self):
        for workload, (metrics, _) in self.runs.items():
            shares = {layer: metrics[f"layer.{layer}_pct"] for layer in tracer.LAYERS}
            target = sum(shares[layer] for layer in TARGET_LAYERS[workload])
            others = [v for layer, v in shares.items()
                      if layer not in TARGET_LAYERS[workload]]
            with self.subTest(workload=workload, shares=shares):
                self.assertGreater(target, max(others))


if __name__ == "__main__":
    unittest.main()
