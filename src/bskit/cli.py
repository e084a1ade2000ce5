"""Command-line front end; every operation as a reproducible one-liner.

Exit codes: 0 success, 1 a check ran and found violations, 2 usage,
unreadable or unwritable files, resource or numeric-range errors.
Output is byte-stable: sorted orders and 12-significant-digit floats.
"""

from __future__ import annotations

import json
import random
import sys
from functools import cache

import click

from .affine import j_affine
from .arith import ConfigurationError
from .embedding import (check_injectivity, check_stabilizer, enumerate_ball,
                        properness_profile)
from .haagerup import (UnsupportedWitnessError, c0_profile, c0_profile_csv,
                       cocycle, cocycle_identity_check, tree_gram, witness,
                       witness_gram)
from .presentation import GroupSpec, make_bs, spec_from_dict
from .tree import (BASE, ResourceBoundError, Vertex, ball, distance, edges_csv,
                   neighbors, to_dot, tree_edges, vertex_of)
from .words import (ParseError, VertexTrie, britton_reduce, nf_multiply,
                    parse_word, word_problem)


def _exit_2(message: str):
    click.echo(message, err=True)
    sys.exit(2)


def _load_spec(ctx) -> GroupSpec:
    """The group of the --bs/--spec options in the group's context ctx; a
    bad or missing group is a usage error of bsk itself."""
    bs, spec_file = ctx.params["bs"], ctx.params["spec_file"]
    if bs is not None and spec_file is not None:
        raise click.UsageError("give exactly one of --bs and --spec", ctx)
    if bs is None and spec_file is None:
        raise click.UsageError("a group is required: --bs P Q or --spec FILE",
                               ctx)
    try:
        if bs is not None:
            return make_bs(bs[0], bs[1])
        with open(spec_file, encoding="utf-8") as fh:
            return spec_from_dict(json.load(fh))
    except OSError as exc:
        _exit_2(f"cannot read {spec_file}: {exc.strerror}")
    except UnicodeDecodeError:
        _exit_2(f"cannot read {spec_file}: not UTF-8 text")
    except (ConfigurationError, json.JSONDecodeError) as exc:
        raise click.UsageError(str(exc), ctx)


def _emit(text: str, out) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        except OSError as exc:
            _exit_2(f"cannot write {out}: {exc.strerror}")
    else:
        click.echo(text.rstrip("\n"))


class _Command(click.Command):
    """A bsk command, a plain function of the GroupSpec (click.pass_obj),
    run under the exit-code policy of the module docstring: bad input is a
    usage error of this command, and a body returning False exits 1.  The
    group is loaded here, once the command line has parsed, so that
    `bsk CMD --help` needs none."""

    def invoke(self, ctx):
        ctx.obj = _load_spec(ctx.parent)
        try:
            ok = super().invoke(ctx)
        except (ParseError, ConfigurationError, ValueError) as exc:
            raise click.UsageError(str(exc), ctx)
        except ResourceBoundError as exc:
            _exit_2(f"resource bound exceeded: {exc}")
        except UnsupportedWitnessError as exc:
            _exit_2(f"unsupported witness regime: {exc}")
        except OverflowError as exc:
            _exit_2(f"numeric range exceeded: {exc}")
        if ok is False:
            sys.exit(1)


@click.group()
@click.option("--bs", nargs=2, type=int, default=None,
              help="BS(P, Q) datum for n = 1.")
@click.option("--spec", "spec_file", type=click.Path(exists=True),
              default=None, help='Group file {"n":..,"A":..,"B":..}.')
def main(bs, spec_file):
    """Toolkit for generalized Baumslag-Solitar groups over Z^n."""


main.command_class = _Command


@main.command()
@click.argument("word")
@click.pass_obj
def reduce(spec, word):
    """Britton normal form of WORD."""
    click.echo(str(britton_reduce(parse_word(word, spec), spec)))


@main.command()
@click.argument("word")
@click.pass_obj
def wp(spec, word):
    """Word problem: trivial / nontrivial."""
    click.echo("trivial" if word_problem(parse_word(word, spec), spec)
               else "nontrivial")


@main.command()
@click.argument("word")
@click.pass_obj
def vertex(spec, word):
    """Canonical Bass-Serre vertex of WORD * G."""
    click.echo(str(vertex_of(parse_word(word, spec), spec)))


@main.command()
@click.argument("word")
@click.argument("word2", required=False)
@click.pass_obj
def dist(spec, word, word2):
    """Tree distance d(v, WORD v), or between two coset vertices."""
    u = vertex_of(parse_word(word, spec), spec)
    w = vertex_of(parse_word(word2, spec), spec) if word2 else BASE
    click.echo(str(distance(w, u)))


@main.command("neighbors")
@click.argument("word", required=False)
@click.pass_obj
def neighbors_cmd(spec, word):
    """Neighbors of the vertex of WORD (default: base vertex)."""
    u = vertex_of(parse_word(word, spec), spec) if word else BASE
    for w in neighbors(u, spec):
        click.echo(str(w))


@main.command("ball")
@click.option("-R", "--radius", type=int, required=True)
@click.option("--format", "fmt", type=click.Choice(["text", "dot", "csv"]),
              default="text")
@click.option("--out", type=click.Path(), default=None)
@click.pass_obj
def ball_cmd(spec, radius, fmt, out):
    """Tree ball around the base vertex."""
    vs = ball(BASE, radius, spec)
    if fmt == "text":
        _emit("\n".join(str(v) for v in vs), out)
    elif fmt == "dot":
        _emit(to_dot(vs, tree_edges(vs)), out)
    else:
        _emit(edges_csv(tree_edges(vs)), out)


@main.command()
@click.argument("word")
@click.option("-k", "--steps", type=click.IntRange(min=0), default=5)
@click.pass_obj
def orbit(spec, word, steps):
    """Vertices gamma^j v for j = 0..STEPS."""
    g = britton_reduce(parse_word(word, spec), spec)
    acc = britton_reduce([], spec)
    for _ in range(steps + 1):
        click.echo(str(Vertex(acc.vertex)))
        acc = nf_multiply(acc, g, spec)


@main.command()
@click.argument("word")
@click.pass_obj
def affine(spec, word):
    """Affine image (k; a) of WORD, exact rationals."""
    click.echo(str(j_affine(parse_word(word, spec), spec)))


def _check(checker, length, spec) -> bool:
    report = checker(enumerate_ball(length, spec), spec)
    click.echo(report.summary())
    for v in report.violations:
        click.echo(f"  {v}")
    return report.ok


@main.command("inject-check")
@click.option("-L", "--length", type=int, default=4)
@click.pass_obj
def inject_check(spec, length):
    """Injectivity shadow of the embedding over the word-length ball."""
    return _check(check_injectivity, length, spec)


@main.command("stab-check")
@click.option("-L", "--length", type=int, default=4)
@click.pass_obj
def stab_check(spec, length):
    """Stabilizer identity over the word-length ball."""
    return _check(check_stabilizer, length, spec)


@main.command()
@click.option("--lmax", "-L", type=int, default=8)
@click.option("-R", "--thresholds", default="1,2,4",
              help="Comma-separated R grid of distinct nonnegative "
              "integers.")
@click.option("--out", type=click.Path(), default=None)
@click.pass_obj
def proper(spec, lmax, thresholds, out):
    """Properness profile: sublevel counts and stabilization flags."""
    try:
        grid = [int(r) for r in thresholds.split(",")]
    except ValueError:  # properness_profile names the grid in its error
        grid = thresholds.split(",")
    profile = properness_profile(lmax, grid, spec)
    _emit(profile.to_csv(), out)


@main.command("cocycle")
@click.argument("word")
@click.pass_obj
def cocycle_cmd(spec, word):
    """Signed geodesic edge set b(WORD); one edge per line."""
    cv = cocycle(parse_word(word, spec), spec)
    click.echo(f"norm_sq {cv.norm_sq()}")
    for (u, w), c in cv.coefficients:
        click.echo(f"{c:+d} [{u}] -> [{w}]")


@main.command("cocycle-check")
@click.option("-L", "--length", type=int, default=4)
@click.option("--pairs", type=click.IntRange(min=0), default=200)
@click.option("--seed", type=int, default=0)
@click.pass_obj
def cocycle_check(spec, length, pairs, seed):
    """Random-pair check of the 1-cocycle law over the ball."""
    ball = enumerate_ball(length, spec)
    keys = [key for sphere in ball.keys for key in sphere]
    form = cache(ball.form)  # one form per key, however often it is drawn
    rng, trie = random.Random(seed), VertexTrie()  # one step table per run
    bad = sum(not cocycle_identity_check(
        form(rng.choice(keys)), form(rng.choice(keys)), spec, trie=trie)
        for _ in range(pairs))
    status = "OK" if bad == 0 else "FAIL"
    click.echo(f"{status}: {bad} violations / {pairs} pairs")
    return bad == 0


@main.command()
@click.option("-L", "--length", type=int, default=5)
@click.option("-s", "--scale", type=float, default=1.0)
@click.option("--size", type=click.IntRange(min=0), default=40)
@click.option("--seed", type=int, default=0)
@click.option("--kernel", type=click.Choice(["tree", "witness"]),
              default="tree")
@click.option("--out", type=click.Path(), default=None)
@click.pass_obj
def gram(spec, length, scale, size, seed, kernel, out):
    """Kernel PSD certificate on a random sample from the ball (JSON)."""
    ball = enumerate_ball(length, spec)
    keys = [key for sphere in ball.keys for key in sphere]
    rng = random.Random(seed)  # reads len and indices: keys draw as forms
    sample = [ball.form(k) for k in rng.sample(keys, min(size, len(keys)))]
    fn = tree_gram if kernel == "tree" else witness_gram
    _emit(fn(sample, scale, spec).to_json(), out)


@main.command("witness")
@click.argument("word")
@click.option("-s", "--scale", type=float, default=1.0)
@click.pass_obj
def witness_cmd(spec, word, scale):
    """Witness value psi_s(WORD)."""
    click.echo(format(witness(parse_word(word, spec), scale, spec), ".12g"))


@main.command()
@click.option("--lmax", "-L", type=int, default=8)
@click.option("-s", "--scale", type=float, default=1.0)
@click.option("--out", type=click.Path(), default=None)
@click.pass_obj
def c0(spec, lmax, scale, out):
    """C0 decay profile: max witness value per word-length sphere (CSV)."""
    _emit(c0_profile_csv(c0_profile(lmax, scale, spec)), out)


if __name__ == "__main__":
    main()
