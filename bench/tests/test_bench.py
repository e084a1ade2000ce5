"""Tests of the benchmark itself: tracer arithmetic and hygiene, repeatable
counts, and the golden gate.  Run with ``python3 -m pytest bench/tests``."""

import json
import subprocess
import sys

import numpy
import pytest

import run
from golden import Gate
from tracer import Tracer, by_name, layer_metrics
from workloads import WORKLOADS, PassRun, child_env


@pytest.fixture(scope="module")
def gate():
    return Gate.load()


def _small_word_algebra():
    """Two seeded tasks of every kind on both groups."""
    wl = WORKLOADS["word_algebra"]
    tasks, seen = [], {}
    for task in wl.setup(7):
        kind = task[:3:2]
        if seen.get(kind, 0) < 2:
            seen[kind] = seen.get(kind, 0) + 1
            tasks.append(task)
    return wl, tasks


def _small_ball_z2():
    wl = WORKLOADS["ball_z2"]
    return wl, [d for d in wl.setup(7) if d[0] == "asc"]


def test_self_time_on_synthetic_span_tree():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def work(dt):
        now[0] += dt

    h = tracer.wrap("h", lambda: work(7))

    def g_body():
        work(5)
        h()
    g = tracer.wrap("g", g_body)

    def outer_body():
        work(1)
        g()
        work(2)
        g()
        work(3)
    outer = tracer.wrap("outer", outer_body)

    tracer.begin_stage("stage", 4)
    outer()
    tracer.end_stage()

    spans = by_name(tracer.snapshot())
    assert spans["h"] == [2, 14.0, 14.0]
    assert spans["g"] == [2, 24.0, 10.0]      # 2 x (5 own + 7 in h)
    assert spans["outer"] == [1, 30.0, 6.0]   # 1 + 2 + 3 own
    parents = {(p, n) for _s, p, n, *_ in tracer.snapshot()["agg"]}
    assert parents == {(None, "outer"), ("outer", "g"), ("g", "h")}
    assert tracer.stage_spans == [("stage", 0.0, 30.0, None, 4)]


def _bindings():
    import bskit.arith
    import bskit.words
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "bskit" or name.startswith("bskit."):
            out.update({(name, k): v for k, v in vars(mod).items()})
    for cls in (bskit.arith.Lattice, bskit.words._Builder):
        out.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    out["eigvalsh"] = numpy.linalg.eigvalsh
    return out


def test_tracer_restores_every_original(gate):
    import bskit.cli  # noqa: F401  (its imported names are rebound too)
    wl, state = _small_word_algebra()
    before = _bindings()
    passes, traces, attempted, failed = run.run_passes(
        wl, state, gate, 0, 1, traced=True)
    assert failed == 0 and attempted == len(state)
    assert layer_metrics(traces[0])["words.britton_reduce.calls"] > 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_tracer_restores_after_a_failing_pass(gate):
    class Broken:
        name = "broken"

        def run_pass(self, state, p):
            from bskit import words
            p.op("broken/reduce", lambda: words.britton_reduce([], None),
                 stage="reduce")

    before = _bindings()
    passes, _, attempted, failed = run.run_passes(
        Broken(), None, Gate({}), 0, 1, traced=True)
    assert (attempted, failed) == (1, 1)
    assert passes[0].ops[0].error.startswith("AttributeError")
    after = _bindings()
    assert [k for k in before if after[k] is not before[k]] == []


@pytest.mark.parametrize("small", [_small_word_algebra, _small_ball_z2])
def test_layer_counts_repeat_across_traced_runs(gate, small):
    wl, state = small()

    def counts():
        _, traces, _, failed = run.run_passes(wl, state, gate, 0, 1,
                                                 traced=True)
        assert failed == 0
        m = layer_metrics(traces[0])
        return {k: v for k, v in m.items()
                if k.endswith((".calls", "_frac", ".max_height", "_bits"))}

    first = counts()
    assert first == counts()
    assert any(v for k, v in first.items() if k.endswith(".calls"))


@pytest.fixture(scope="module")
def bs12_outputs():
    wl = WORKLOADS["ball_n1"]
    p = PassRun(0)
    wl.run_pass([d for d in wl.setup(0) if d[0] == "bs12"], p)
    return {o.key: o.output for o in p.ops}


def test_gate_accepts_recorded_outputs(gate, bs12_outputs):
    for key, text in bs12_outputs.items():
        assert gate.check(key, text), key
    assert gate.mismatches == []


def test_gate_trips_on_swapped_sphere_elements(gate, bs12_outputs):
    key = "ball_n1/bs12/elements"
    spheres = bs12_outputs[key].split("\n\n")
    last = spheres[-1].split("\n")
    last[0], last[1] = last[1], last[0]
    spheres[-1] = "\n".join(last)
    assert not gate.check(key, "\n\n".join(spheres))
    assert gate.mismatches[-1][0] == key


def test_gate_trips_on_one_changed_csv_byte(gate, bs12_outputs):
    key = "ball_n1/bs12/properness_csv"
    csv = bs12_outputs[key]
    i = csv.rindex("true")
    assert not gate.check(key, csv[:i] + "T" + csv[i + 1:])


def test_gate_rounds_only_the_minimum_eigenvalue():
    from golden import fingerprint
    text = '{"min_eigenvalue": 1.2e-17, "elements": ["t"]}'
    assert fingerprint(text) == fingerprint(
        '{"min_eigenvalue": -3.4e-17, "elements": ["t"]}')
    assert fingerprint(text) != fingerprint(
        '{"min_eigenvalue": 1.2e-17, "elements": ["x^1"]}')
    assert fingerprint(text) != fingerprint(
        '{"min_eigenvalue": 1.2e-9, "elements": ["t"]}')


def test_percentile_is_linear_between_ranks():
    assert run.percentile([4, 1, 3, 2], 0.5) == 2.5
    assert run.percentile([1, 2, 3, 4, 5], 0.75) == 4
    assert run.percentile([10], 0.95) == 10


# One ``ball_n1`` run of two passes in a fresh process, optionally with a
# per-element cache of ``tree.act`` and ``affine.j_affine`` results (the
# kind of state a one-pass enumeration would carry), printing its peak RSS.
_RSS_PROBE = """
import sys
import run
run._prepare()
from golden import Gate
from workloads import WORKLOADS
if sys.argv[1] == "cache":
    import bskit.affine, bskit.embedding, bskit.haagerup, bskit.tree

    def cached(fn, memo):
        def wrapper(*args):
            key = args[:-1] + (id(args[-1]),)   # the last argument is spec
            if key not in memo:
                memo[key] = fn(*args)
            return memo[key]
        return wrapper

    acts, affs = {}, {}
    for mod in (bskit.embedding, bskit.haagerup):
        mod.act = cached(bskit.tree.act, acts)
        mod.j_affine = cached(bskit.affine.j_affine, affs)
wl = WORKLOADS["ball_n1"]
_, _, _, failed = run.run_passes(wl, wl.setup(1), Gate.load(), 0, 2,
                                    traced=False)
assert failed == 0
print(run.peak_rss_mb())
"""


def test_peak_rss_bound_catches_a_per_element_cache():
    bounds = {m["name"]: m["bound"] for m in json.loads(
        (run.ROOT / "BENCHMARK.json").read_text())["end_to_end"]}

    def peak_mb(mode):
        out = subprocess.run(
            [sys.executable, "-c", _RSS_PROBE, mode], cwd=run.BENCH_DIR,
            env=child_env(), capture_output=True, text=True, check=True, timeout=120)
        return float(out.stdout)

    plain, cached = peak_mb("plain"), peak_mb("cache")
    assert cached > plain * (1 + bounds["peak_rss_mb"])
