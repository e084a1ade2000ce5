"""The four benchmark workloads.

Each workload has a ``setup`` (imports, group data, generated inputs; timed
separately as ``setup_s``), a ``run_pass`` that makes the timed calls into
``bskit`` through one ``PassRun``, and a ``record`` that produces every
output the golden gate may be asked about.  Calls go through module
attributes (``embedding.enumerate_ball``), never through names imported
into this file, so the tracer's rebinding sees them.

Seeded inputs come from fixed pools: variant ``i`` of a task kind is built
from its own ``random.Random`` stream, the golden file holds a digest per
variant, and the run's seed only chooses which variants a run uses.
"""

from __future__ import annotations

import gc
import json
import os
import random
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


# The host's speed drifts: a neighbour's load slows this vCPU by up to
# about 1.8x, in episodes of seconds to minutes.  Each pass ends by timing
# a fixed pure-Python loop that touches no bskit code (tuples, a dict,
# Fractions, a str sort, like the library's own inner loops); every time
# measured in the pass is reported scaled by REF_NOMINAL_S / (that loop
# time), i.e. as seconds on a host where the loop takes 20 ms, about its
# time on the 2-vCPU Xeon host the benchmark was written on.
REF_NOMINAL_S = 0.020


def reference_loop() -> int:
    seen = {(): Fraction(0)}
    frontier = [()]
    for depth in range(7):
        nxt = []
        for w in frontier:
            for g in (1, -1, 2, -2):
                if w and w[-1] == -g:
                    continue
                u = w + (g,)
                if u not in seen:
                    seen[u] = seen[w] + Fraction(g, depth + 2)
                    nxt.append(u)
        nxt.sort(key=str)
        frontier = nxt
    return len(seen)


class Op:
    __slots__ = ("key", "variant", "stage", "seconds", "output", "units",
                 "error")

    def __init__(self, key, variant, stage):
        self.key, self.variant, self.stage = key, variant, stage
        self.seconds, self.output, self.units, self.error = 0.0, None, 0, None


class PassRun:
    """One pass: times each operation and keeps its rendered output.

    Only the call itself is timed; rendering for the golden gate happens
    after the clock stops.  With a tracer, each operation is a stage span.
    """

    def __init__(self, run_id, tracer=None):
        self.run_id = run_id
        self.tracer = tracer
        self.ops = []
        self.ref = None          # reference-loop seconds after the pass

    def op(self, key, fn, render=str, *, stage, variant=None, units=1):
        rec = Op(key, variant, stage)
        self.ops.append(rec)
        if self.tracer is not None:
            self.tracer.begin_stage(stage, self.run_id)
        t0 = time.perf_counter()
        try:
            try:
                result = fn()
            finally:
                rec.seconds = time.perf_counter() - t0
                if self.tracer is not None:
                    self.tracer.end_stage()
            rec.units = units(result) if callable(units) else units
            rec.output = render(result)
        except Exception as exc:
            rec.error = f"{type(exc).__name__}: {exc}"
            raise
        return result

    def time_reference(self):
        """Best of three runs of the reference loop, with the collector
        off: a collection inside it would cost in proportion to the
        workload's live heap, not to the host's speed."""
        gc.disable()
        try:
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                reference_loop()
                times.append(time.perf_counter() - t0)
        finally:
            gc.enable()
        self.ref = min(times)

    @property
    def wall_s(self):
        return sum(o.seconds for o in self.ops)

    @property
    def units(self):
        return sum(o.units for o in self.ops)


def _render_ball(ball):
    return "\n\n".join("\n".join(map(str, sphere)) for sphere in ball.spheres)


def _render_report(report):
    return json.dumps(report.to_json_dict(), sort_keys=True)


class Workload:
    name = unit = None
    tail_q = None
    runs_cli = False   # reports the cli.* layer metrics

    def setup_seconds(self, seed):
        """One set-up in a fresh interpreter: imports, group data, inputs."""
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
             self.name, "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=120, check=True)
        return float(out.stdout.split()[-1])


# ---------------------------------------------------------------------------

class BallN1(Workload):
    """Exhaustive balls of BS(2,3) and BS(1,2), then every per-element check.

    The balls are exhaustive, so the seed chooses nothing here.
    """

    name = "ball_n1"
    unit = "ball elements"
    tail_q = 0.75
    DATA = (("bs23", (2, 3), 7), ("bs12", (1, 2), 10))
    R_GRID = (1, 2, 4)
    C0_SCALE = 1.0

    def setup(self, seed):
        from bskit import presentation
        return [(tag, presentation.make_bs(p, q), L)
                for tag, (p, q), L in self.DATA]

    def run_pass(self, state, p):
        from bskit import embedding, haagerup
        for tag, spec, L in state:
            k = f"{self.name}/{tag}"
            ball = p.op(f"{k}/elements",
                        lambda: embedding.enumerate_ball(L, spec, max_length=L),
                        _render_ball, stage="enumerate_ball", units=len)
            p.op(f"{k}/properness_csv",
                 lambda: embedding.properness_profile(L, self.R_GRID, spec,
                                                      ball=ball),
                 lambda prof: prof.to_csv(), stage="properness_profile",
                 units=0)
            p.op(f"{k}/injectivity", lambda: embedding.check_injectivity(
                ball, spec), _render_report, stage="check_injectivity",
                units=0)
            p.op(f"{k}/stabilizer", lambda: embedding.check_stabilizer(
                ball, spec), _render_report, stage="check_stabilizer",
                units=0)
            p.op(f"{k}/c0_csv",
                 lambda: haagerup.c0_profile(L, self.C0_SCALE, spec,
                                             ball=ball),
                 haagerup.c0_profile_csv, stage="c0_profile", units=0)

    def record(self, rec):
        p = PassRun(0)
        self.run_pass(self.setup(0), p)
        for o in p.ops:
            rec.add(o.key, o.output)


class BallZ2(Workload):
    """Word-length balls of two Z^2 data, each followed by one seeded Gram
    sample (the ``bsk gram`` flow).  Tree, affine and witness code is idle
    here apart from the 40 sampled elements."""

    name = "ball_z2"
    unit = "ball elements"
    tail_q = 0.75
    DATA = (("asc", [[2, 1], [0, 2]], [[1, 0], [0, 1]], 6),
            ("nonasc", [[2, 1], [0, 2]], [[1, 1], [1, -1]], 6))
    GRAM_SIZE = 40
    GRAM_SCALE = 0.5
    GRAM_VARIANTS = 64

    def setup(self, seed):
        from bskit import presentation
        rng = random.Random(seed)
        return [(tag, presentation.make_matrix_group(A, B), L,
                 rng.randrange(self.GRAM_VARIANTS))
                for tag, A, B, L in self.DATA]

    def run_pass(self, state, p, gram_variants=None):
        from bskit import embedding
        for tag, spec, L, variant in state:
            k = f"{self.name}/{tag}"
            ball = p.op(f"{k}/elements",
                        lambda: embedding.enumerate_ball(L, spec, max_length=L),
                        _render_ball, stage="enumerate_ball", units=len)
            for v in (gram_variants or (variant,)):
                p.op(f"{k}/gram", lambda: self._gram(ball, spec, v),
                     lambda r: r.to_json(), stage="tree_gram", variant=v,
                     units=0)

    def _gram(self, ball, spec, variant):
        from bskit import haagerup
        elements = ball.elements
        sample = random.Random(variant).sample(elements, self.GRAM_SIZE)
        return haagerup.tree_gram(sample, self.GRAM_SCALE, spec)

    def record(self, rec):
        p = PassRun(0)
        self.run_pass(self.setup(0), p,
                      gram_variants=range(self.GRAM_VARIANTS))
        for o in p.ops:
            rec.add(o.key, o.output, o.variant)


class WordAlgebra(Workload):
    """Independent seeded tasks on BS(2,3) and the non-ascending Z^2 datum:
    long words, deep pinch chains, big integers, tree balls via neighbors."""

    name = "word_algebra"
    unit = "tasks"
    tail_q = 0.90
    GROUPS = (("bs23", [[2]], [[3]]),
              ("z2_nonasc", [[2, 1], [0, 2]], [[1, 1], [1, -1]]))
    KINDS = ("reduce", "multiply", "wp", "relator", "hom", "cocycle",
             "tree_ball")
    POOL = 256       # recorded variants per (group, kind)
    PER_KIND = 64    # variants a run draws per (group, kind)
    COCYCLE_BALL = 6
    TREE_RADIUS = 2

    def groups(self):
        from bskit import embedding, presentation
        out = []
        for tag, A, B in self.GROUPS:
            spec = presentation.make_matrix_group(A, B)
            L = self.COCYCLE_BALL
            pairs_from = embedding.enumerate_ball(L, spec,
                                                  max_length=L).elements
            out.append((tag, spec, pairs_from))
        return out

    def setup(self, seed):
        rng = random.Random(seed)
        tasks = []
        for tag, spec, pairs_from in self.groups():
            for kind in self.KINDS:
                for i in sorted(rng.sample(range(self.POOL), self.PER_KIND)):
                    tasks.append((tag, spec, kind, i,
                                  self.make_input(tag, spec, kind, i,
                                                  pairs_from)))
        rng.shuffle(tasks)
        return tasks

    # -- inputs: only generated words, vectors and ball-element pairs -------

    @staticmethod
    def _word(rng, n, length):
        from bskit.words import T, X
        letters = [T(1), T(-1)]
        for i in range(n):
            e = tuple(int(j == i) for j in range(n))
            letters += [X(e), X(tuple(-c for c in e))]
        return [rng.choice(letters) for _ in range(length)]

    @staticmethod
    def _inverse(word):
        from bskit.words import T, X
        return [X(tuple(-c for c in l.z)) if isinstance(l, X) else T(-l.eps)
                for l in reversed(word)]

    def make_input(self, tag, spec, kind, i, pairs_from):
        rng = random.Random(f"{self.name}/{tag}/{kind}/{i}")
        n = spec.n
        if kind == "reduce":
            return self._word(rng, n, 200)
        if kind == "multiply":
            return self._word(rng, n, 100), self._word(rng, n, 100)
        if kind == "wp":
            w = self._word(rng, n, 100)
            return w + self._inverse(w)
        if kind == "relator":
            # x^{Ah} t x^{-Bh} t^-1 with |h_i| < 10^30, conjugated by a word
            h = [rng.randrange(-10 ** 30, 10 ** 30) for _ in range(n)]
            Ah = [sum(a * x for a, x in zip(row, h)) for row in spec.A.rows]
            Bh = [-sum(b * x for b, x in zip(row, h)) for row in spec.B.rows]

            def atom(z):
                return f"x^{z[0]}" if n == 1 else "v[" + ",".join(
                    map(str, z)) + "]"
            return self._word(rng, n, 40), f"{atom(Ah)} t {atom(Bh)} t^-1"
        if kind == "hom":
            return self._word(rng, n, 60), self._word(rng, n, 60)
        if kind == "cocycle":
            return rng.choice(pairs_from), rng.choice(pairs_from)
        if kind == "tree_ball":
            return self._word(rng, n, 12)
        raise ValueError(kind)

    # -- tasks ---------------------------------------------------------------

    def task(self, spec, kind, data):
        from bskit import affine, haagerup, tree, words
        if kind == "reduce":
            return str(words.britton_reduce(data, spec))
        if kind == "multiply":
            a = words.britton_reduce(data[0], spec)
            b = words.britton_reduce(data[1], spec)
            return str(words.nf_multiply(words.nf_invert(a, spec), b, spec))
        if kind == "wp":
            return str(words.word_problem(data, spec))
        if kind == "relator":
            w, text = data
            rel = words.parse_word(text, spec)
            trivial = words.word_problem(w + rel + self._inverse(w), spec)
            return f"{trivial} {words.britton_reduce(w + rel, spec)}"
        if kind == "hom":
            u, v = data
            juv = affine.j_affine(u + v, spec)
            law = juv == affine.aff_compose(affine.j_affine(u, spec),
                                            affine.j_affine(v, spec), spec)
            return f"{juv} {law}"
        if kind == "cocycle":
            g, d = data
            return f"{haagerup.cocycle_identity_check(g, d, spec)} {g} | {d}"
        if kind == "tree_ball":
            center = tree.vertex_of(data, spec)
            r = self.TREE_RADIUS
            return "\n".join(map(str, tree.ball(center, r, spec,
                                                max_radius=r)))
        raise ValueError(kind)

    def run_pass(self, state, p):
        for tag, spec, kind, i, data in state:
            p.op(f"{self.name}/{tag}/{kind}",
                 lambda: self.task(spec, kind, data), stage=kind, variant=i)

    def record(self, rec):
        for tag, spec, pairs_from in self.groups():
            for kind in self.KINDS:
                for i in range(self.POOL):
                    data = self.make_input(tag, spec, kind, i, pairs_from)
                    rec.add(f"{self.name}/{tag}/{kind}",
                            self.task(spec, kind, data), i)


class CliReadme(Workload):
    """The README's ``bsk`` one-liners, run through the click entry point
    with stdout captured.  The seed only shuffles their order.

    Each command runs in this process: as separate processes their
    200-300 ms of interpreter start and import, redone on every command,
    could not be timed steadily on the shared host.  That per-command
    cost is ``setup_s`` here, from fresh ``import bskit.cli`` processes.
    """

    name = "cli_readme"
    unit = "commands"
    tail_q = 0.80
    runs_cli = True
    COMMANDS = (
        "--bs 2 3 reduce 't x^3 t^-1'",
        "--bs 2 3 wp 'x^2 t x^-3 t^-1'",
        "--bs 2 3 vertex 'x^3 t'",
        "--bs 2 3 dist 't x t'",
        "--bs 2 3 neighbors",
        "--bs 2 3 ball -R 2 --format dot",
        "--bs 2 3 affine 't x t'",
        "--bs 2 3 inject-check -L 6",
        "--bs 2 3 stab-check -L 6",
        "--bs 1 2 proper --lmax 10 -R 1,2,4",
        "--bs 2 3 cocycle 't x t'",
        "--bs 2 3 cocycle-check -L 4 --pairs 1000",
        "--bs 2 3 gram -L 6 -s 0.5 --size 40 --kernel tree",
        "--bs 1 2 witness 't' -s 1.0",
        "--bs 1 2 c0 --lmax 10 -s 1.0",
    )
    IMPORT_ONLY = "import bskit.cli"

    def setup(self, seed):
        import bskit.cli  # noqa: F401  (not in the first timed command)
        order = list(self.COMMANDS)
        random.Random(seed).shuffle(order)
        return order

    def setup_seconds(self, seed):
        """Wall time of a fresh ``import bskit.cli`` process.

        Its output is captured so that the end of the process is seen as
        the pipes close: with a timeout and no pipes, ``subprocess`` polls
        for the exit in sleeps of up to 50 ms, which would show in the
        figure."""
        env = child_env()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", self.IMPORT_ONLY], cwd=ROOT,
                       env=env, capture_output=True, check=True, timeout=120)
        return time.perf_counter() - t0

    def import_seconds(self):
        """``import bskit.cli`` timed inside a fresh process."""
        out = subprocess.run(
            [sys.executable, "-c", "import time; t = time.perf_counter(); "
             f"{self.IMPORT_ONLY}; print(time.perf_counter() - t)"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            check=True, timeout=120)
        return float(out.stdout)

    def run_pass(self, state, p):
        from click.testing import CliRunner
        import bskit.cli
        runner = CliRunner()
        for line in state:
            args = shlex.split(line)
            gc.collect()  # each real command starts with a fresh heap
            p.op(f"{self.name}/{line}",
                 lambda: runner.invoke(bskit.cli.main, args, prog_name="bsk"),
                 lambda r: f"exit {r.exit_code}\n{r.stdout}",
                 stage=args[3])

    def record(self, rec):
        p = PassRun(0)
        self.run_pass(self.COMMANDS, p)
        for o in p.ops:
            rec.add(o.key, o.output)


WORKLOADS = {w.name: w for w in (BallN1(), BallZ2(), WordAlgebra(),
                                 CliReadme())}


def child_env():
    """Environment for every subprocess: this checkout's ``src`` on the
    path, and no ``BSK_MAX_BALL`` that could resize a workload."""
    env = {k: v for k, v in os.environ.items() if k != "BSK_MAX_BALL"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env
