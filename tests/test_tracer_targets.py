"""The names the benchmark's tracer patches stay importable.

``bench/tracer.py`` rebinds library entry points by ``getattr``; a renamed
or deleted target breaks every traced benchmark run.  The tracer module is
read from its source here, without writing anything under ``bench/``.
"""

import importlib
import math
import random
import sys
import types
from pathlib import Path

from click.testing import CliRunner
from conftest import GENERAL_DATA

import bskit.embedding
import bskit.haagerup
import bskit.tree
from bskit.affine import j_affine
from bskit.arith import IntMatrix, Lattice
from bskit.cli import main
from bskit.embedding import check_injectivity, check_stabilizer, enumerate_ball
from bskit.haagerup import (cocycle, cocycle_identity_check, translate_cocycle,
                            tree_gram, witness_gram)
from bskit.presentation import make_bs
from bskit.words import T, X, _Builder, britton_reduce, parse_word

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    module = types.ModuleType("bench_tracer")
    module.__file__ = str(TRACER)
    source = TRACER.read_text(encoding="utf-8")
    exec(compile(source, str(TRACER), "exec"), module.__dict__)
    return module


def test_every_tracer_target_resolves():
    targets = load_tracer()._targets()
    assert targets
    for name, owner, attr in targets:
        if isinstance(owner, str):
            owner = importlib.import_module(owner)
        assert callable(getattr(owner, attr)), name


def test_builder_keeps_the_vertex_stack_the_tracer_counts():
    # the tracer wraps _Builder.push_t and reads len(builder.syl)
    assert callable(_Builder.push_t)
    spec = make_bs(2, 3)
    b = _Builder(spec)
    b.push_x((1,))
    b.push_t(1)
    assert isinstance(b.syl, list) and len(b.syl) == 1
    b.push_t(-1)
    assert isinstance(b.syl, list)


def test_one_decompose_and_no_apply_per_t_letter(monkeypatch):
    # each t-letter is one pivot pass that also forms the carry, so the
    # tracer's arith.decompose.calls counts t-letters, pinches included
    calls = {"decompose": 0, "apply": 0}

    def counted(owner, attr):
        inner = getattr(owner, attr)

        def wrapper(*args):
            calls[attr] += 1
            return inner(*args)
        monkeypatch.setattr(owner, attr, wrapper)
    counted(Lattice, "decompose")
    counted(IntMatrix, "apply")
    rng = random.Random(7)
    for name, spec in GENERAL_DATA.items():
        word = []
        for _ in range(120):
            if rng.random() < 0.5:
                word.append(T(rng.choice((1, -1))))
            else:
                word.append(X(tuple(rng.randint(-9, 9)
                                    for _ in range(spec.n))))
        m = sum(isinstance(letter, T) for letter in word)
        calls.update(decompose=0, apply=0)
        britton_reduce(word, spec)
        assert calls == {"decompose": m, "apply": 0}, name


def test_ball_decomposes_each_tail_once_and_appends_by_name(monkeypatch):
    # enumerate_ball shares one (eps, tail) table over its t-appends, so
    # there arith.decompose.calls counts distinct tails per ball; both
    # letter kinds still pass through the nf_append the tracer patches
    decomposed, appended = [], set()
    decompose, append = Lattice.decompose, bskit.embedding.nf_append

    def counted_decompose(lattice, z, C):
        decomposed.append((lattice, z))
        return decompose(lattice, z, C)

    def counted_append(nf, letter, *rest):
        appended.add(type(letter))
        return append(nf, letter, *rest)
    monkeypatch.setattr(Lattice, "decompose", counted_decompose)
    monkeypatch.setattr(bskit.embedding, "nf_append", counted_append)
    for name, spec in GENERAL_DATA.items():
        decomposed.clear()
        enumerate_ball(4 if spec.n == 1 else 3, spec)
        assert decomposed, name
        assert len(set(decomposed)) == len(decomposed), name
    assert appended == {T, X}


def test_translation_decomposes_once_per_edge_and_multiplies_nothing(
        monkeypatch):
    # gamma . b(d) moves each vertex of b(d) from its parent's image by
    # two nf_append steps sharing one (eps, tail) table, so the tracer's
    # arith.decompose.calls is at most the edge count; one act per vertex
    # would multiply forms and decompose sum |u| times over the path
    decomposed = []
    decompose = Lattice.decompose

    def counted(lattice, z, C):
        decomposed.append(z)
        return decompose(lattice, z, C)

    def refused(*args):
        raise AssertionError("translation multiplied normal forms")
    rng, draws = random.Random(41), {}
    for name, spec in GENERAL_DATA.items():
        elements = enumerate_ball(4, spec).elements
        draws[name] = [rng.choice(elements) for _ in range(60)]
    monkeypatch.setattr(Lattice, "decompose", counted)
    monkeypatch.setattr(bskit.haagerup, "nf_multiply", refused)
    monkeypatch.setattr(bskit.tree, "nf_multiply", refused)
    for name, spec in GENERAL_DATA.items():
        longest = 0
        for gamma, d in zip(draws[name], reversed(draws[name])):
            cv = cocycle(d, spec)
            decomposed.clear()
            assert translate_cocycle(gamma, cv, spec).norm_sq() == len(
                cv.edges)
            assert len(decomposed) <= len(cv.edges), name
            longest = max(longest, len(cv.edges))
        assert longest >= 3, name


def count_calls(monkeypatch, original) -> list:
    """Rebind ``original`` to a counter in every bskit module, as the tracer
    rebinds its targets; the list it returns collects each call's args."""
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "bskit"
                                   or name.startswith("bskit.")):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    assert getattr(sys.modules[original.__module__],
                   original.__name__) is not original
    return calls


def test_consumers_holding_forms_read_their_vertex_without_vertex_of(
        monkeypatch, bs23_ball6):
    # the ball checks and the Gram samples hold normal forms, so they read
    # nf.vertex; vertex_of is rebound to a counter in every bskit module,
    # as the tracer rebinds its targets, and the reports stay the same
    spec = bs23_ball6.spec
    sample = random.Random(28).sample(bs23_ball6.elements, 40)

    def reports():
        checks = [check(bs23_ball6, spec).to_json_dict()
                  for check in (check_injectivity, check_stabilizer)]
        grams = [gram(sample, 0.5, spec) for gram in (tree_gram, witness_gram)]
        return checks, [(g.matrix.tolist(), g.min_eigenvalue) for g in grams]
    expected = reports()
    calls = count_calls(monkeypatch, bskit.tree.vertex_of)
    assert reports() == expected
    assert calls == []


def test_gram_matrices_take_m_minus_1_lcps_and_each_half_plane_pair_once(
        monkeypatch, bs12_ball10):
    # a 300-element sample: no tree.distance call, one lcp_length per
    # adjacent pair of sorted names, and one acosh per unordered pair of
    # distinct half-plane points at most
    spec, m = bs12_ball10.spec, 300
    sample = random.Random(30).sample(bs12_ball10.elements, m)
    expected = [gram(sample, 0.5, spec).matrix.tolist()
                for gram in (tree_gram, witness_gram)]
    dist, lcp = (count_calls(monkeypatch, original) for original in
                 (bskit.tree.distance, bskit.tree.lcp_length))
    acosh = []
    monkeypatch.setattr(math, "acosh",
                        lambda x, f=math.acosh: acosh.append(x) or f(x))
    assert tree_gram(sample, 0.5, spec).matrix.tolist() == expected[0]
    assert dist == [] and 0 < len(lcp) <= m - 1
    del lcp[:]
    assert witness_gram(sample, 0.5, spec).matrix.tolist() == expected[1]
    assert dist == [] and 0 < len(lcp) <= m - 1
    assert 0 < len(acosh) <= m * (m - 1) // 2


def test_cocycles_and_orbit_read_the_form_without_vertex_of_or_geodesic(
        monkeypatch):
    # b(d) is keyed by the prefixes of d's own vertex, translation by the
    # vertices of the moved forms, and bsk orbit prints each power's
    # vertex: on normal forms none of them calls vertex_of or geodesic
    rng, cases = random.Random(29), []
    for name, spec in GENERAL_DATA.items():
        elements = enumerate_ball(3, spec).elements
        cases += [(spec, rng.choice(elements), rng.choice(elements))
                  for _ in range(30)]
    spec = make_bs(2, 3)
    word = parse_word("t x t^-1 x t", spec)
    orbit = ["--bs", "2", "3", "orbit", "t x t^-1 x t", "-k", "6"]

    def results():
        values = []
        for spec_, g, d in cases:
            cv = cocycle(d, spec_)
            values.append((cv, translate_cocycle(g, cv, spec_),
                           cocycle_identity_check(g, d, spec_)))
        return values, CliRunner().invoke(main, orbit).output
    expected = results()
    assert all(law for _, _, law in expected[0])
    assert expected[1].splitlines() == [
        str(bskit.tree.vertex_of(word * j, spec)) for j in range(7)]
    calls = [count_calls(monkeypatch, original)
             for original in (bskit.tree.vertex_of, bskit.tree.geodesic)]
    assert results() == expected
    assert calls == [[], []]


def test_tracer_value_hooks_read_real_return_values():
    # the hooks read .k and .a of an affine image, len() of a ball and the
    # eigenvalue and tolerance of a Gram report; a changed return type
    # would otherwise break traced runs only
    tracer = load_tracer().Tracer()
    spec = make_bs(1, 2)
    tracer._affine_post(j_affine(parse_word("t^3 x", spec), spec))
    ball = enumerate_ball(2, spec)
    tracer._ball_post(ball)
    report = tree_gram(ball.elements[:5], 0.5, spec)
    tracer._gram_post(report)
    counters = tracer.counters
    assert counters["max_height"] == 3
    assert counters["max_den_bits"] == (8).bit_length()  # x at 2^-3
    assert counters["ball_new"] == len(ball) - 1 > 0
    assert tracer.psd_margins == [report.min_eigenvalue + report.tolerance]
