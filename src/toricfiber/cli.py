"""Command line interface.

All commands default to the bundled dataset; pass --input (and friends)
to analyze your own documents.  Output is a human table by default or
stable machine-readable lines with --format structured.  Exit codes:
0 success, 1 validation error, 2 internal invariant violation.
"""

from __future__ import annotations

import functools
import sys
from fractions import Fraction

import click

from . import data
from .analysis import (DISCRIMINANTS, adjunction_genus, discriminant_eval,
                       facet_interior_sum, fiber_pattern_note,
                       intersection_table, moduli_dimension, resolve_pipeline)
from .bundles import (LaurentSection, fibred_form, homogeneous_form,
                      restrict_section_to_orbit_closure)
from .documents import (Document, DocumentError, fan_document,
                        fan_from_document, lattice_map_from_document, parse,
                        polytope_document, polytope_from_document, serialize)
from .fans import fan_equal, singular_locus_cones, star_subdivide
from .intlinalg import cokernel_index, mat_rank
from .morphism import EMPTY, FanMap, is_map_of_fans
from .polytopes import (Polytope, dual_polytope, is_reflexive,
                        restriction_polytope)
from .surfaces import CATALOG_RAYS, catalog_fan


def rows(fn):
    """A command whose body yields (key, value) rows.  Adds --format and
    prints the rows once the body has finished, so a failing command
    prints nothing: a table whose keys are padded to the longest key plus
    two spaces, or one `key: value` line per row."""
    @click.option("--format", "fmt", default="table",
                  type=click.Choice(["table", "structured"]),
                  help="output style")
    @functools.wraps(fn)
    def command(fmt, **options):
        out = [(str(k), str(v)) for k, v in fn(**options)]
        width = max((len(k) for k, _ in out), default=0)
        for k, v in out:
            click.echo(f"{k}: {v}" if fmt == "structured"
                       else f"{k.ljust(width)}  {v}")
    return command


input_option = click.option("--input", "input_path", default=None,
                            type=click.Path(exists=True),
                            help="input document (defaults to bundled data)")


def map_options(fn):
    """--map, --source and --target: the documents of a map of fans."""
    for name, what in (("target", "target fan"), ("source", "source fan"),
                       ("map", "lattice_map")):
        fn = click.option(f"--{name}", f"{name}_path", default=None,
                          type=click.Path(exists=True),
                          help=f"{what} document")(fn)
    return fn


def _vec(v) -> str:
    return " ".join(str(x) for x in v)


def _load(path: str) -> Document:
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


def _check_bundled_rank(rank: int, what: str):
    """An --input that a command pairs with the bundled fan needs its rank."""
    if rank != data.projection().source_rank:
        raise DocumentError(f"--input {what} has rank {rank}, but the bundled "
                            f"fan has rank {data.projection().source_rank}")


def _fan_and_names(input_path, paired=False):
    if input_path is None:
        return data.total_fan(), data.total_ray_names()
    fan, names = fan_from_document(_load(input_path))
    if paired:
        _check_bundled_rank(fan.rank, "fan")
    return fan, list(names)


def _polytope(input_path, paired=False) -> Polytope:
    if input_path is None:
        return data.section_polytope()
    p = polytope_from_document(_load(input_path))
    if paired:
        _check_bundled_rank(p.ambient_rank, "polytope")
    return p


def _fans(map_path, source_path, target_path):
    """(phi, source, target, source ray names, target ray names), with the
    bundled projection and fans for the documents not given."""
    phi = lattice_map_from_document(_load(map_path)) if map_path \
        else data.projection()
    source, snames = _fan_and_names(source_path)
    target, tnames = fan_from_document(_load(target_path)) if target_path \
        else (data.base_fan(), data.base_ray_names())
    return phi, source, target, snames, list(tnames)


def _morphism(map_path, source_path, target_path):
    if map_path is None and source_path is None and target_path is None:
        return (data.fibration_map(), data.total_ray_names(),
                data.base_ray_names())
    phi, source, target, snames, tnames = _fans(map_path, source_path,
                                                target_path)
    return FanMap(phi, source, target), snames, tnames


def _on_bundled_map(input_path, tau, sigma=None):
    """Yields the rows that name the source cone `tau` and, when given,
    the target cone `sigma` of the bundled map, and returns (the --input
    polytope or the bundled one, the map, tau, sigma or None)."""
    p = _polytope(input_path, paired=True)
    m = data.fibration_map()
    snames, tnames = data.total_ray_names(), data.base_ray_names()
    tau_idx = _cone_from_names(tau, snames)
    sigma_idx = None if sigma is None else _cone_from_names(sigma, tnames)
    yield "tau", data.cone_name(snames, tau_idx)
    if sigma is not None:
        yield "sigma", data.cone_name(tnames, sigma_idx)
    return p, m, tau_idx, sigma_idx


def _image_names(m: FanMap, tnames) -> list[str]:
    """The image fan's ray names: each ray is named after the target cone
    whose relative interior holds it, that cone's ray names joined by
    '+', so a target ray keeps its own name."""
    return ["+".join(tnames[i] for i in c) for c in m.image_ray_carriers()]


def _numbers(text: str, option: str, kind=int) -> list:
    """The numbers of an option value, separated by commas or spaces; a
    value that does not parse is a usage error naming the option."""
    try:
        return [kind(x) for x in text.replace(",", " ").split()]
    except (ValueError, ZeroDivisionError):
        what = "integers" if kind is int else "integers or fractions"
        raise click.BadParameter(f'expected {what}, got "{text}"',
                                 param_hint=option) from None


def _cone_from_names(expr: str, names) -> tuple[int, ...]:
    idx = set()
    for p in ([] if expr == "0" else expr.replace(",", " ").split()):
        if p not in names:
            raise click.UsageError(f"unknown ray name {p!r}")
        idx.add(names.index(p))
    return tuple(sorted(idx))


def _stratum(rep, snames) -> str:
    """A stratum's fiber: its index, primitive cones and component labels."""
    prim = " ".join(data.cone_name(snames, t) for t in rep.primitive)
    labels = " ".join(c.label for c in rep.components)
    return f"Ind={rep.index} primitive=[{prim}] components=[{labels}]"


def _resolved(fan, phi, target):
    """The fan's resolution by the bundled rays, inserted in order, and
    the rays of its generic fiber as text."""
    rep = resolve_pipeline(fan, [data.RESOLUTION_RAYS[n]
                                 for n in data.RESOLUTION_ORDER],
                           phi=phi, target=target)
    return rep, "; ".join(_vec(r) for r in rep.generic_fiber_rays)


@click.group()
def cli():
    """Exact toric morphism and fiber analysis."""


# -- fan -----------------------------------------------------------------


@cli.group()
def fan():
    """Fan construction and smoothness."""


@fan.command("check")
@input_option
@rows
def fan_check(input_path):
    f, _ = _fan_and_names(input_path)
    yield "rank", f.rank
    yield "rays", len(f.rays)
    yield "maximal_cones", len(f.maximal_cones)
    yield "cones_total", len(f.all_cone_indices)
    yield "f_vector", _vec(f.f_vector())
    yield "complete", f.is_complete()


@fan.command("smooth")
@input_option
@rows
def fan_smooth(input_path):
    yield "smooth", _fan_and_names(input_path)[0].is_smooth()


@fan.command("singular")
@input_option
@rows
def fan_singular(input_path):
    f, names = _fan_and_names(input_path)
    locus = singular_locus_cones(f)
    yield "singular_cones", len(locus)
    for idx in locus:
        yield data.cone_name(names, idx), f.cone(idx).multiplicity()


@fan.command("subdivide")
@input_option
@click.option("--ray", "rays", multiple=True, required=True,
              help="subdivision ray, e.g. '0 0 0 1 1' (repeatable)")
def fan_subdivide(input_path, rays):
    f, names = _fan_and_names(input_path)
    for expr in rays:
        f = star_subdivide(f, _numbers(expr, "--ray"))
        if len(f.rays) > len(names):
            k = len(names)
            while f"s{k}" in names:
                k += 1
            names.append(f"s{k}")
    click.echo(serialize(fan_document(f, names)), nl=False)


# -- morphism ------------------------------------------------------------


@cli.group()
def morphism():
    """Toric morphism analysis."""


@morphism.command("check")
@map_options
@rows
def morphism_check(**paths):
    # no FanMap: its constructor refuses a map that is not a map of fans
    phi, source, target, _, _ = _fans(**paths)
    yield "map_of_fans", is_map_of_fans(phi, source, target)
    yield "surjective", mat_rank(phi.matrix) == target.rank
    yield "degree", cokernel_index(phi)


@morphism.command("image")
@map_options
@rows
def morphism_image(**paths):
    m, _, _ = _morphism(**paths)
    img = m.image_fan()
    yield "equals_target", fan_equal(img, m.target)
    yield "rank", img.rank
    yield "rays", len(img.rays)
    yield "maximal_cones", len(img.maximal_cones)


@morphism.command("fibers")
@map_options
@click.option("--sigma", required=True, help="image-fan cone names, e.g. 'r1'")
@rows
def morphism_fibers(sigma, **paths):
    m, snames, tnames = _morphism(**paths)
    inames = _image_names(m, tnames)
    rep = m.fiber_report(_cone_from_names(sigma, inames))
    yield "sigma", data.cone_name(inames, rep.sigma)
    yield "stratum_cones", len(rep.sigma_prime_set)
    yield "index", rep.index
    yield "components", len(rep.components)
    for comp in rep.components:
        yield ("component " + data.cone_name(snames, comp.primitive_cone),
               f"{comp.label} dim={comp.dim}")
    if note := fiber_pattern_note([c.label for c in rep.components]):
        yield "pattern", note
    for subset, dim in sorted(rep.intersections.items()):
        key = " & ".join(data.cone_name(snames, t) for t in subset)
        yield "intersection " + key, dim if dim == EMPTY else f"dim={dim}"


@morphism.command("stratify")
@map_options
@rows
def morphism_stratify(**paths):
    m, snames, tnames = _morphism(**paths)
    inames = _image_names(m, tnames)
    for sigma, rep in m.flattening_stratification():
        yield data.cone_name(inames, sigma), _stratum(rep, snames)


@morphism.command("fibration")
@map_options
@rows
def morphism_fibration(**paths):
    m, snames, tnames = _morphism(**paths)
    cert = m.is_fibration()
    yield "fibration", cert.is_fibration
    yield "skeleton_onto", cert.skeleton_onto
    for sigma, tau in cert.violations:
        yield ("violation", f"{data.cone_name(tnames, sigma)} <- "
                            f"{data.cone_name(snames, tau)}")


# -- polytope ------------------------------------------------------------


@cli.group()
def polytope():
    """Lattice polytope queries."""


@polytope.command("points")
@input_option
@rows
def polytope_points(input_path):
    pts = _polytope(input_path).lattice_points()
    yield "count", len(pts)
    yield "first", _vec(pts[0])
    yield "last", _vec(pts[-1])


@polytope.command("facets")
@input_option
@rows
def polytope_facets(input_path):
    p = _polytope(input_path)
    yield "facets", len(p.facets)
    for (n, c), inc in zip(p.facets, p.facet_vertex_incidence()):
        yield ("normal " + _vec(n),
               f"offset={c} vertices=" + ",".join(str(i) for i in inc))


@polytope.command("dual")
@input_option
def polytope_dual(input_path):
    p = _polytope(input_path)
    click.echo(serialize(polytope_document(dual_polytope(p))), nl=False)


@polytope.command("reflexive")
@input_option
@rows
def polytope_reflexive(input_path):
    yield "reflexive", is_reflexive(_polytope(input_path))


@polytope.command("restrict")
@input_option
@click.option("--tau", required=True, help="source cone ray names")
@rows
def polytope_restrict(input_path, tau):
    p, m, tau_idx, _ = yield from _on_bundled_map(input_path, tau)
    r = restriction_polytope(p, tau_idx, m.source)
    pts = r.polytope.lattice_points()
    yield "dim", r.polytope.dim
    yield "count", len(pts)
    for pt in pts:
        yield "point", _vec(pt)


@polytope.command("project")
@input_option
@click.option("--tau", required=True, help="source cone ray names")
@click.option("--sigma", required=True, help="target cone ray names")
@rows
def polytope_project(input_path, tau, sigma):
    p, m, tau_idx, sigma_idx = yield from _on_bundled_map(input_path, tau,
                                                           sigma)
    r = restriction_polytope(p, tau_idx, m.source)
    star = m.relative_star(tau_idx, sigma_idx)
    pts = m.project_polytope(r, star).lattice_points()
    yield "count", len(pts)
    yield "component", m.component_label(star)
    for pt in pts:
        yield "point", _vec(pt)


# -- bundle --------------------------------------------------------------


@cli.group()
def bundle():
    """Line bundle sections and their restrictions."""


@bundle.command("sections")
@input_option
@rows
def bundle_sections(input_path):
    yield "sections", len(_polytope(input_path).lattice_points())


@bundle.command("restrict")
@input_option
@click.option("--tau", required=True, help="source cone ray names")
@rows
def bundle_restrict(input_path, tau):
    p, m, tau_idx, _ = yield from _on_bundled_map(input_path, tau)
    s = LaurentSection.generic(p)
    restricted, _ = restrict_section_to_orbit_closure(s, tau_idx, p, m.source)
    yield "original_terms", len(s)
    yield "surviving_terms", len(restricted)


@bundle.command("fibred")
@input_option
@click.option("--tau", required=True, help="source cone ray names")
@click.option("--sigma", required=True, help="target cone ray names")
@click.option("--xi", "xi_spec", default="auto",
              help="'auto' or a lattice_map document path")
@rows
def bundle_fibred(input_path, tau, sigma, xi_spec):
    p, m, tau_idx, sigma_idx = yield from _on_bundled_map(input_path, tau,
                                                           sigma)
    xi = None if xi_spec == "auto" else \
        lattice_map_from_document(_load(xi_spec))
    form = fibred_form(LaurentSection.generic(p), tau_idx, sigma_idx, m, p,
                       xi=xi)
    yield "groups", len(form.groups)
    for f, terms in form.groups:
        yield "fiber " + _vec(f), f"{len(terms)} terms"


@bundle.command("homogeneous")
@input_option
@click.option("--coeffs", default=None,
              help="divisor coefficients, comma separated (default all 1)")
@rows
def bundle_homogeneous(input_path, coeffs):
    p = _polytope(input_path, paired=True)
    fan = data.total_fan()
    a = _numbers(coeffs, "--coeffs") if coeffs else [1] * len(fan.rays)
    table = homogeneous_form(LaurentSection.generic(p), p, fan, a)
    yield "monomials", len(table.ray_exponents)
    yield "degrees", _vec(sorted({sum(e) for _, e in table.ray_exponents}))


# -- analysis ------------------------------------------------------------


@cli.group()
def analysis():
    """Discriminants, intersection numbers, genus, moduli, resolution."""


@analysis.command("discriminant")
@click.option("--shape", required=True,
              type=click.Choice(sorted(DISCRIMINANTS)))
@click.option("--coeffs", required=True,
              help="coefficients in support order, comma separated")
@rows
def analysis_discriminant(shape, coeffs):
    sh = DISCRIMINANTS[shape]
    values = _numbers(coeffs, "--coeffs", Fraction)
    yield "shape", shape
    yield "support", " ".join(f"({a},{b})" for a, b in sh.support)
    yield "value", discriminant_eval(sh, values)


@analysis.command("intersections")
@click.option("--surface", required=True,
              type=click.Choice(sorted(CATALOG_RAYS)))
@rows
def analysis_intersections(surface):
    table = intersection_table(catalog_fan(surface))
    yield "surface", surface
    yield "rays", "; ".join(_vec(r) for r in table.rays)
    for i, row in enumerate(table.entries):
        yield f"D{i}", _vec(row)
    yield "K_squared", table.canonical_squared()


@analysis.command("genus")
@click.option("--surface", required=True,
              type=click.Choice(sorted(CATALOG_RAYS)))
@click.option("--curve", required=True,
              help="ray coefficients of the curve class, comma separated")
@rows
def analysis_genus(surface, curve):
    fan, coeffs = catalog_fan(surface), _numbers(curve, "--curve")
    yield "surface", surface
    yield "genus", adjunction_genus(fan, coeffs)


@analysis.command("moduli")
@input_option
@rows
def analysis_moduli(input_path):
    p = _polytope(input_path)
    yield "lattice_points", len(p.lattice_points())
    yield "facet_interior_sum", facet_interior_sum(p)
    yield "moduli_dimension", moduli_dimension(p)


@analysis.command("resolve")
@input_option
@rows
def analysis_resolve(input_path):
    f, _ = _fan_and_names(input_path, paired=True)
    rep, fiber = _resolved(f, data.projection(), data.base_fan())
    for step, name in zip(rep.steps, data.RESOLUTION_ORDER):
        yield f"insert {name}", f"maximal_cones={step.maximal_cones}"
    yield "smooth", rep.smooth
    yield "generic_fiber_rays", fiber


# -- pipeline ------------------------------------------------------------


@cli.command("pipeline")
@click.argument("action", type=click.Choice(["report"]))
def pipeline(action):
    """Full deterministic reproduction of the bundled analysis."""
    for line in pipeline_report_lines():
        click.echo(line)


def pipeline_report_lines() -> list[str]:
    m = data.fibration_map()
    p = data.section_polytope()
    snames = data.total_ray_names()
    tnames = data.base_ray_names()
    cert = m.is_fibration()
    out = ["== dataset ==",
           f"source fan: rank {m.source.rank}, {len(m.source.rays)} rays, "
           f"{len(m.source.maximal_cones)} maximal cones",
           f"target fan: rank {m.target.rank}, {len(m.target.rays)} rays, "
           f"{len(m.target.maximal_cones)} maximal cones, "
           f"{len(m.target.all_cone_indices)} cones, "
           f"smooth={m.target.is_smooth()}",
           f"polytope: {len(p.vertices)} vertices, {len(p.facets)} facets, "
           f"{len(p.lattice_points())} lattice points, "
           f"reflexive={is_reflexive(p)}",
           f"fibration={cert.is_fibration} skeleton_onto={cert.skeleton_onto}",
           "", "== strata =="]
    total_prim = 0
    table = m.flattening_stratification()
    for sigma, rep in table:
        total_prim += sum(1 for t in rep.primitive if t)
        out.append(f"{data.cone_name(tnames, sigma):10s} "
                   f"{_stratum(rep, snames)}")
    out += [f"nonzero primitive cones: {total_prim}", "",
            "== restrictions =="]
    vno = {v: i + 1 for i, v in enumerate(data.POLYTOPE_VERTICES)}
    for sigma, rep in table:
        for comp in rep.components:
            tau = comp.primitive_cone
            if not tau:
                continue
            r = restriction_polytope(p, tau, m.source)
            hull_ids = sorted(vno[v] for v in r.face)
            count = p.tight_point_count(r.face_mask)
            proj = m.project_polytope(r, comp.star)
            out.append(f"{data.cone_name(snames, tau):16s} "
                       f"hull={','.join(str(i) for i in hull_ids):24s} "
                       f"points={count:5d} fiber_points="
                       f"{len(proj.lattice_points())} label={comp.label}")
    out += ["", "== moduli ==",
            f"lattice points: {len(p.lattice_points())}",
            f"facet interior sum: {facet_interior_sum(p)}",
            f"moduli dimension: {moduli_dimension(p)}", "", "== resolution =="]
    rep, fiber = _resolved(m.source, m.phi, m.target)
    for step, name in zip(rep.steps, data.RESOLUTION_ORDER):
        out.append(f"insert {name}: maximal cones {step.maximal_cones}")
    return out + [f"smooth: {rep.smooth}", f"generic fiber rays: {fiber}"]


def main():
    try:
        cli.main(standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        sys.exit(1)
    except click.ClickException as exc:
        exc.show()
        sys.exit(1)
    except (DocumentError, ValueError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    except click.exceptions.Abort:
        sys.exit(1)
    except ArithmeticError as exc:
        click.echo(f"internal invariant violation: {exc}", err=True)
        sys.exit(2)


if __name__ == "__main__":
    main()
