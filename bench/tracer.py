"""Layer tracing from outside the program.

The tracer rebinds the public entry points of each ``bskit`` layer to thin
wrappers, runs the workload, and restores every original afterwards.  It
keeps no per-call records: a ball pass makes millions of calls, so each
span is folded into an aggregate keyed by (stage, parent span, span name)
the moment it closes.  A span's self time is its duration minus the
durations of its direct child spans; the wrapper's own bookkeeping lands
in the parent's self time, which is why traced wall time is reported
beside untraced wall time as ``trace_overhead_frac``.

Stage spans are the benchmark's own top-level operations (one call such as
``enumerate_ball`` on one datum); those few are kept whole, with start,
end and the pass (run id) they belong to, and written out at the end.
"""

from __future__ import annotations

import sys
import time

# (span name, owner, attribute).  An owner given as a string is a module
# name: the function is rebound in that module and in every other loaded
# ``bskit`` module that imported it by name.  A class owner is patched in
# place, so calls through ``self`` are traced too.
def _targets():
    import numpy
    from bskit import arith, words

    return [
        ("arith.solve", arith.Lattice, "solve"),
        ("arith.decompose", arith.Lattice, "decompose"),
        ("words.parse_word", "bskit.words", "parse_word"),
        ("words.britton_reduce", "bskit.words", "britton_reduce"),
        ("words.nf_append", "bskit.words", "nf_append"),
        ("words.nf_multiply", "bskit.words", "nf_multiply"),
        ("words.nf_invert", "bskit.words", "nf_invert"),
        ("words.word_problem", "bskit.words", "word_problem"),
        ("tree.vertex_of", "bskit.tree", "vertex_of"),
        ("tree.act", "bskit.tree", "act"),
        ("tree.neighbors", "bskit.tree", "neighbors"),
        ("tree.ball", "bskit.tree", "ball"),
        ("tree.distance", "bskit.tree", "distance"),
        ("tree.geodesic", "bskit.tree", "geodesic"),
        ("affine.j_affine", "bskit.affine", "j_affine"),
        ("affine.aff_compose", "bskit.affine", "aff_compose"),
        ("affine.aff_invert", "bskit.affine", "aff_invert"),
        ("embedding.enumerate_ball", "bskit.embedding", "enumerate_ball"),
        ("embedding.check_injectivity", "bskit.embedding",
         "check_injectivity"),
        ("embedding.check_stabilizer", "bskit.embedding", "check_stabilizer"),
        ("embedding.properness_profile", "bskit.embedding",
         "properness_profile"),
        ("haagerup.cocycle", "bskit.haagerup", "cocycle"),
        ("haagerup.translate_cocycle", "bskit.haagerup", "translate_cocycle"),
        ("haagerup.cocycle_identity_check", "bskit.haagerup",
         "cocycle_identity_check"),
        ("haagerup.witness", "bskit.haagerup", "witness"),
        ("haagerup.c0_profile", "bskit.haagerup", "c0_profile"),
        ("haagerup.tree_gram", "bskit.haagerup", "tree_gram"),
        ("haagerup.eigvalsh", numpy.linalg, "eigvalsh"),
    ]


class Tracer:
    """Aggregating span recorder; ``install`` and ``restore`` bracket use."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []       # open spans: [child seconds, name]
        self.agg = {}         # (stage, parent, name) -> [calls, total, self]
        self.counters = {"t_appends": 0, "pinches": 0, "solve_hits": 0,
                         "ball_new": 0, "max_height": 0, "max_den_bits": 0}
        self.psd_margins = []
        self.stage_spans = []  # (name, start, end, parent, run id)
        self.stage = None
        self._stage_open = None  # (stage, start, run id)
        self._saved = []       # (owner, attribute, original)

    # -- spans -------------------------------------------------------------

    def wrap(self, name, fn, post=None):
        """A wrapper that records one span per call of ``fn``."""
        stack, agg, clock = self.stack, self.agg, self.clock
        tracer = self

        def traced(*args, **kwargs):
            frame = [0.0, name]
            parent = stack[-1][1] if stack else None
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                key = (tracer.stage, parent, name)
                rec = agg.get(key)
                if rec is None:
                    agg[key] = [1, dt, dt - frame[0]]
                else:
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += dt - frame[0]
            if post is not None:
                post(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def begin_stage(self, stage, run_id):
        self.stage = stage
        self._stage_open = (stage, self.clock(), run_id)

    def end_stage(self):
        stage, start, run_id = self._stage_open
        self.stage_spans.append((stage, start, self.clock(), None, run_id))
        self.stage = None

    # -- value hooks (read off returned values, not timed) -----------------

    def _solve_post(self, h):
        if h is not None:
            self.counters["solve_hits"] += 1

    def _ball_post(self, ball):
        self.counters["ball_new"] += len(ball) - 1

    def _affine_post(self, e):
        c = self.counters
        c["max_height"] = max(c["max_height"], abs(e.k))
        bits = max((x.denominator.bit_length() for x in e.a), default=0)
        c["max_den_bits"] = max(c["max_den_bits"], bits)

    def _gram_post(self, report):
        self.psd_margins.append(report.min_eigenvalue + report.tolerance)

    def _count_push_t(self, push_t):
        counters = self.counters

        def traced_push_t(builder, eps):
            before = len(builder.syl)
            push_t(builder, eps)
            counters["t_appends"] += 1
            if len(builder.syl) < before:
                counters["pinches"] += 1

        traced_push_t.__wrapped__ = push_t
        return traced_push_t

    # -- patching ----------------------------------------------------------

    def install(self):
        from bskit import words

        posts = {"arith.solve": self._solve_post,
                 "embedding.enumerate_ball": self._ball_post,
                 "affine.j_affine": self._affine_post,
                 "haagerup.tree_gram": self._gram_post}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "bskit" or n.startswith("bskit."))]
        for name, owner, attr in _targets():
            original = getattr(sys.modules[owner] if isinstance(owner, str)
                               else owner, attr)
            wrapper = self.wrap(name, original, posts.get(name))
            if isinstance(owner, str):
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)
            else:
                self._patch(owner, attr, wrapper)
        self._patch(words._Builder, "push_t",
                    self._count_push_t(words._Builder.push_t))

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data state of one pass."""
        return {"agg": [[s, p, n, *v] for (s, p, n), v in self.agg.items()],
                "counters": dict(self.counters),
                "psd_margins": list(self.psd_margins)}


def by_name(state) -> dict:
    """Span name -> [calls, total seconds, self seconds], over all stages."""
    out = {}
    for _s, _p, n, calls, total, self_s in state["agg"]:
        rec = out.setdefault(n, [0, 0.0, 0.0])
        rec[0] += calls
        rec[1] += total
        rec[2] += self_s
    return out


CONSUMERS = ("embedding.check_injectivity", "embedding.check_stabilizer",
             "embedding.properness_profile")


def layer_metrics(state) -> dict:
    """The per-layer metrics of one pass, from its snapshot."""
    spans = by_name(state)
    c = state["counters"]

    def calls(n):
        return spans.get(n, [0, 0.0, 0.0])[0]

    def self_s(*names):
        return sum(spans.get(n, [0, 0.0, 0.0])[2] for n in names)

    def layer_self(prefix):
        return sum(v[2] for n, v in spans.items() if n.startswith(prefix))

    appends_in_bfs = sum(a[3] for a in state["agg"]
                         if a[1] == "embedding.enumerate_ball"
                         and a[2] == "words.nf_append")
    margins = state["psd_margins"]
    return {
        "arith.solve.calls": calls("arith.solve"),
        "arith.solve.hit_frac": _ratio(c.get("solve_hits", 0),
                                       calls("arith.solve")),
        "arith.decompose.calls": calls("arith.decompose"),
        "arith.self_s": layer_self("arith."),
        "words.nf_append.calls": calls("words.nf_append"),
        "words.nf_append.self_s": self_s("words.nf_append"),
        "words.pinch_frac": _ratio(c.get("pinches", 0),
                                   c.get("t_appends", 0)),
        "words.britton_reduce.calls": calls("words.britton_reduce"),
        "words.britton_reduce.self_s": self_s("words.britton_reduce"),
        "words.nf_multiply.self_s": self_s("words.nf_multiply"),
        "tree.act.calls": calls("tree.act"),
        "tree.act.self_s": self_s("tree.act"),
        "tree.vertex_of.calls": calls("tree.vertex_of"),
        "tree.neighbors.calls": calls("tree.neighbors"),
        "tree.self_s": layer_self("tree."),
        "affine.j_affine.calls": calls("affine.j_affine"),
        "affine.j_affine.self_s": self_s("affine.j_affine"),
        "affine.max_height": c.get("max_height", 0),
        "affine.max_den_bits": c.get("max_den_bits", 0),
        "embedding.enumerate_ball.self_s": self_s("embedding.enumerate_ball"),
        "embedding.dedup_hit_frac": (1.0 - _ratio(c.get("ball_new", 0),
                                                  appends_in_bfs)
                                     if appends_in_bfs else 0.0),
        "embedding.consumers.self_s": self_s(*CONSUMERS),
        "haagerup.cocycle.calls": calls("haagerup.cocycle"),
        "haagerup.cocycle.self_s": self_s("haagerup.cocycle"),
        "haagerup.translate_cocycle.self_s":
            self_s("haagerup.translate_cocycle"),
        "haagerup.witness.self_s": self_s("haagerup.witness"),
        "haagerup.eigvalsh_s": self_s("haagerup.eigvalsh"),
        "haagerup.psd_margin": min(margins) if margins else 0.0,
    }


def _ratio(num, den):
    return num / den if den else 0.0
