"""Command line interface.

All commands default to the bundled dataset; pass --input (and friends)
to analyze your own documents.  Output is a human table by default or
stable machine-readable lines with --format structured.  Exit codes:
0 success, 1 validation error, 2 internal invariant violation.
"""

from __future__ import annotations

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
from .morphism import EMPTY, FanMap, is_map_of_fans
from .polytopes import (Polytope, dual_polytope, is_reflexive, lattice_points,
                        restriction_polytope)
from .surfaces import CATALOG_RAYS, catalog_fan


class Emitter:
    def __init__(self, fmt: str):
        self.fmt = fmt
        self.rows: list[tuple[str, str]] = []

    def add(self, key, value):
        self.rows.append((str(key), str(value)))

    def flush(self):
        if self.fmt == "structured":
            for k, v in self.rows:
                click.echo(f"{k}: {v}")
        else:
            width = max((len(k) for k, _ in self.rows), default=0)
            for k, v in self.rows:
                click.echo(f"{k.ljust(width)}  {v}")


fmt_option = click.option("--format", "fmt", default="table",
                          type=click.Choice(["table", "structured"]),
                          help="output style")
input_option = click.option("--input", "input_path", default=None,
                            type=click.Path(exists=True),
                            help="input document (defaults to bundled data)")


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


def _morphism(map_path, source_path, target_path):
    if map_path is None and source_path is None and target_path is None:
        return (data.fibration_map(), data.total_ray_names(),
                data.base_ray_names())
    phi = lattice_map_from_document(_load(map_path)) if map_path \
        else data.projection()
    source, snames = _fan_and_names(source_path)
    if target_path is None:
        target, tnames = data.base_fan(), data.base_ray_names()
    else:
        target, tnames = fan_from_document(_load(target_path))
    return FanMap(phi, source, target), list(snames), list(tnames)


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
    if expr in ("0", ""):
        return ()
    parts = [p for p in expr.replace(",", " ").split() if p]
    idx = []
    for p in parts:
        if p not in names:
            raise click.UsageError(f"unknown ray name {p!r}")
        idx.append(names.index(p))
    return tuple(sorted(set(idx)))


map_options = [
    click.option("--map", "map_path", default=None,
                 type=click.Path(exists=True), help="lattice_map document"),
    click.option("--source", "source_path", default=None,
                 type=click.Path(exists=True), help="source fan document"),
    click.option("--target", "target_path", default=None,
                 type=click.Path(exists=True), help="target fan document"),
]


def add_options(options):
    def wrap(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn
    return wrap


@click.group()
def cli():
    """Exact toric morphism and fiber analysis."""


# -- fan -----------------------------------------------------------------


@cli.group()
def fan():
    """Fan construction and smoothness."""


@fan.command("check")
@input_option
@fmt_option
def fan_check(input_path, fmt):
    f, names = _fan_and_names(input_path)
    em = Emitter(fmt)
    em.add("rank", f.rank)
    em.add("rays", len(f.rays))
    em.add("maximal_cones", len(f.maximal_cones))
    em.add("cones_total", len(f.all_cone_indices))
    em.add("f_vector", " ".join(str(x) for x in f.f_vector()))
    em.add("complete", f.is_complete())
    em.flush()


@fan.command("smooth")
@input_option
@fmt_option
def fan_smooth(input_path, fmt):
    f, _ = _fan_and_names(input_path)
    em = Emitter(fmt)
    em.add("smooth", f.is_smooth())
    em.flush()


@fan.command("singular")
@input_option
@fmt_option
def fan_singular(input_path, fmt):
    f, names = _fan_and_names(input_path)
    em = Emitter(fmt)
    locus = singular_locus_cones(f)
    em.add("singular_cones", len(locus))
    for idx in locus:
        em.add(data.cone_name(names, idx), f.cone(idx).multiplicity())
    em.flush()


@fan.command("subdivide")
@input_option
@click.option("--ray", "rays", multiple=True, required=True,
              help="subdivision ray, e.g. '0 0 0 1 1' (repeatable)")
def fan_subdivide(input_path, rays):
    f, names = _fan_and_names(input_path)
    names = list(names)
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
@add_options(map_options)
@fmt_option
def morphism_check(map_path, source_path, target_path, fmt):
    m, _, _ = _morphism(map_path, source_path, target_path)
    em = Emitter(fmt)
    em.add("map_of_fans", is_map_of_fans(m.phi, m.source, m.target))
    em.add("surjective", m.is_surjective_real())
    em.add("degree", m.degree())
    em.flush()


@morphism.command("image")
@add_options(map_options)
@fmt_option
def morphism_image(map_path, source_path, target_path, fmt):
    m, _, tnames = _morphism(map_path, source_path, target_path)
    img = m.image_fan()
    em = Emitter(fmt)
    em.add("equals_target", fan_equal(img, m.target))
    em.add("rank", img.rank)
    em.add("rays", len(img.rays))
    em.add("maximal_cones", len(img.maximal_cones))
    em.flush()


@morphism.command("fibers")
@add_options(map_options)
@click.option("--sigma", required=True, help="image-fan cone names, e.g. 'r1'")
@fmt_option
def morphism_fibers(map_path, source_path, target_path, sigma, fmt):
    m, snames, tnames = _morphism(map_path, source_path, target_path)
    inames = _image_names(m, tnames)
    sigma_idx = _cone_from_names(sigma, inames)
    rep = m.fiber_report(sigma_idx)
    em = Emitter(fmt)
    em.add("sigma", data.cone_name(inames, rep.sigma))
    em.add("stratum_cones", len(rep.sigma_prime_set))
    em.add("index", rep.index)
    em.add("components", len(rep.components))
    for comp in rep.components:
        em.add("component " + data.cone_name(snames, comp.primitive_cone),
               f"{comp.label} dim={comp.dim}")
    note = fiber_pattern_note([c.label for c in rep.components])
    if note:
        em.add("pattern", note)
    for subset, dim in sorted(rep.intersections.items()):
        key = " & ".join(data.cone_name(snames, t) for t in subset)
        em.add("intersection " + key, dim if dim == EMPTY else f"dim={dim}")
    em.flush()


@morphism.command("stratify")
@add_options(map_options)
@fmt_option
def morphism_stratify(map_path, source_path, target_path, fmt):
    m, snames, tnames = _morphism(map_path, source_path, target_path)
    inames = _image_names(m, tnames)
    em = Emitter(fmt)
    for sigma, rep in m.flattening_stratification():
        prim = " ".join(data.cone_name(snames, t) for t in rep.primitive)
        labels = " ".join(c.label for c in rep.components)
        em.add(data.cone_name(inames, sigma),
               f"Ind={rep.index} primitive=[{prim}] components=[{labels}]")
    em.flush()


@morphism.command("fibration")
@add_options(map_options)
@fmt_option
def morphism_fibration(map_path, source_path, target_path, fmt):
    m, snames, tnames = _morphism(map_path, source_path, target_path)
    cert = m.is_fibration()
    em = Emitter(fmt)
    em.add("fibration", cert.is_fibration)
    em.add("skeleton_onto", cert.skeleton_onto)
    for sigma, tau in cert.violations:
        em.add("violation",
               f"{data.cone_name(tnames, sigma)} <- {data.cone_name(snames, tau)}")
    em.flush()


# -- polytope ------------------------------------------------------------


@cli.group()
def polytope():
    """Lattice polytope queries."""


@polytope.command("points")
@input_option
@fmt_option
def polytope_points(input_path, fmt):
    p = _polytope(input_path)
    pts = lattice_points(p)
    em = Emitter(fmt)
    em.add("count", len(pts))
    em.add("first", " ".join(str(x) for x in pts[0]))
    em.add("last", " ".join(str(x) for x in pts[-1]))
    em.flush()


@polytope.command("facets")
@input_option
@fmt_option
def polytope_facets(input_path, fmt):
    p = _polytope(input_path)
    em = Emitter(fmt)
    em.add("facets", len(p.facets))
    for (n, c), inc in zip(p.facets, p.facet_vertex_incidence()):
        key = "normal " + " ".join(str(x) for x in n)
        em.add(key, f"offset={c} vertices=" +
               ",".join(str(i) for i in inc))
    em.flush()


@polytope.command("dual")
@input_option
def polytope_dual(input_path):
    p = _polytope(input_path)
    click.echo(serialize(polytope_document(dual_polytope(p))), nl=False)


@polytope.command("reflexive")
@input_option
@fmt_option
def polytope_reflexive(input_path, fmt):
    p = _polytope(input_path)
    em = Emitter(fmt)
    em.add("reflexive", is_reflexive(p))
    em.flush()


@polytope.command("restrict")
@input_option
@click.option("--tau", required=True, help="source cone ray names")
@fmt_option
def polytope_restrict(input_path, tau, fmt):
    p = _polytope(input_path, paired=True)
    fan, names = data.total_fan(), data.total_ray_names()
    tau_idx = _cone_from_names(tau, names)
    r = restriction_polytope(p, tau_idx, fan)
    pts = lattice_points(r.polytope)
    em = Emitter(fmt)
    em.add("tau", data.cone_name(names, tau_idx))
    em.add("dim", r.polytope.dim)
    em.add("count", len(pts))
    for pt in pts:
        em.add("point", " ".join(str(x) for x in pt))
    em.flush()


@polytope.command("project")
@input_option
@click.option("--tau", required=True, help="source cone ray names")
@click.option("--sigma", required=True, help="target cone ray names")
@fmt_option
def polytope_project(input_path, tau, sigma, fmt):
    p = _polytope(input_path, paired=True)
    m = data.fibration_map()
    snames, tnames = data.total_ray_names(), data.base_ray_names()
    tau_idx = _cone_from_names(tau, snames)
    sigma_idx = _cone_from_names(sigma, tnames)
    r = restriction_polytope(p, tau_idx, m.source)
    star = m.relative_star(tau_idx, sigma_idx)
    proj = m.project_polytope(r, star)
    em = Emitter(fmt)
    em.add("tau", data.cone_name(snames, tau_idx))
    em.add("sigma", data.cone_name(tnames, sigma_idx))
    em.add("count", len(lattice_points(proj)))
    em.add("component", m.component_label(star))
    for pt in lattice_points(proj):
        em.add("point", " ".join(str(x) for x in pt))
    em.flush()


# -- bundle --------------------------------------------------------------


@cli.group()
def bundle():
    """Line bundle sections and their restrictions."""


@bundle.command("sections")
@input_option
@fmt_option
def bundle_sections(input_path, fmt):
    p = _polytope(input_path)
    em = Emitter(fmt)
    em.add("sections", len(lattice_points(p)))
    em.flush()


@bundle.command("restrict")
@input_option
@click.option("--tau", required=True, help="source cone ray names")
@fmt_option
def bundle_restrict(input_path, tau, fmt):
    p = _polytope(input_path, paired=True)
    fan, names = data.total_fan(), data.total_ray_names()
    tau_idx = _cone_from_names(tau, names)
    s = LaurentSection.generic(p)
    restricted, _ = restrict_section_to_orbit_closure(s, tau_idx, p, fan)
    em = Emitter(fmt)
    em.add("tau", data.cone_name(names, tau_idx))
    em.add("original_terms", len(s))
    em.add("surviving_terms", len(restricted))
    em.flush()


@bundle.command("fibred")
@input_option
@click.option("--tau", required=True, help="source cone ray names")
@click.option("--sigma", required=True, help="target cone ray names")
@click.option("--xi", "xi_spec", default="auto",
              help="'auto' or a lattice_map document path")
@fmt_option
def bundle_fibred(input_path, tau, sigma, xi_spec, fmt):
    p = _polytope(input_path, paired=True)
    m = data.fibration_map()
    snames, tnames = data.total_ray_names(), data.base_ray_names()
    tau_idx = _cone_from_names(tau, snames)
    sigma_idx = _cone_from_names(sigma, tnames)
    xi = None if xi_spec == "auto" else \
        lattice_map_from_document(_load(xi_spec))
    s = LaurentSection.generic(p)
    form = fibred_form(s, tau_idx, sigma_idx, m, p, xi=xi)
    em = Emitter(fmt)
    em.add("tau", data.cone_name(snames, tau_idx))
    em.add("sigma", data.cone_name(tnames, sigma_idx))
    em.add("groups", len(form.groups))
    for f, terms in form.groups:
        key = "fiber " + " ".join(str(x) for x in f)
        em.add(key, f"{len(terms)} terms")
    em.flush()


@bundle.command("homogeneous")
@input_option
@click.option("--coeffs", default=None,
              help="divisor coefficients, comma separated (default all 1)")
@fmt_option
def bundle_homogeneous(input_path, coeffs, fmt):
    p = _polytope(input_path, paired=True)
    fan = data.total_fan()
    a = _numbers(coeffs, "--coeffs") if coeffs else [1] * len(fan.rays)
    s = LaurentSection.generic(p)
    table = homogeneous_form(s, p, fan, a)
    em = Emitter(fmt)
    em.add("monomials", len(table.ray_exponents))
    degs = {sum(e) for _, e in table.ray_exponents}
    em.add("degrees", " ".join(str(d) for d in sorted(degs)))
    em.flush()


# -- analysis ------------------------------------------------------------


@cli.group()
def analysis():
    """Discriminants, intersection numbers, genus, moduli, resolution."""


@analysis.command("discriminant")
@click.option("--shape", required=True,
              type=click.Choice(sorted(DISCRIMINANTS)))
@click.option("--coeffs", required=True,
              help="coefficients in support order, comma separated")
@fmt_option
def analysis_discriminant(shape, coeffs, fmt):
    sh = DISCRIMINANTS[shape]
    values = _numbers(coeffs, "--coeffs", Fraction)
    em = Emitter(fmt)
    em.add("shape", shape)
    em.add("support", " ".join(f"({a},{b})" for a, b in sh.support))
    em.add("value", discriminant_eval(sh, values))
    em.flush()


@analysis.command("intersections")
@click.option("--surface", required=True,
              type=click.Choice(sorted(CATALOG_RAYS)))
@fmt_option
def analysis_intersections(surface, fmt):
    table = intersection_table(catalog_fan(surface))
    em = Emitter(fmt)
    em.add("surface", surface)
    em.add("rays", "; ".join(" ".join(str(x) for x in r) for r in table.rays))
    for i, row in enumerate(table.entries):
        em.add(f"D{i}", " ".join(str(x) for x in row))
    em.add("K_squared", table.canonical_squared())
    em.flush()


@analysis.command("genus")
@click.option("--surface", required=True,
              type=click.Choice(sorted(CATALOG_RAYS)))
@click.option("--curve", required=True,
              help="ray coefficients of the curve class, comma separated")
@fmt_option
def analysis_genus(surface, curve, fmt):
    fan = catalog_fan(surface)
    coeffs = _numbers(curve, "--curve")
    em = Emitter(fmt)
    em.add("surface", surface)
    em.add("genus", adjunction_genus(fan, coeffs))
    em.flush()


@analysis.command("moduli")
@input_option
@fmt_option
def analysis_moduli(input_path, fmt):
    p = _polytope(input_path)
    em = Emitter(fmt)
    em.add("lattice_points", len(lattice_points(p)))
    em.add("facet_interior_sum", facet_interior_sum(p))
    em.add("moduli_dimension", moduli_dimension(p))
    em.flush()


@analysis.command("resolve")
@input_option
@fmt_option
def analysis_resolve(input_path, fmt):
    f, names = _fan_and_names(input_path, paired=True)
    rays = [data.RESOLUTION_RAYS[n] for n in data.RESOLUTION_ORDER]
    rep = resolve_pipeline(f, rays, phi=data.projection(),
                           target=data.base_fan())
    em = Emitter(fmt)
    for step, name in zip(rep.steps, data.RESOLUTION_ORDER):
        em.add(f"insert {name}", f"maximal_cones={step.maximal_cones}")
    em.add("smooth", rep.smooth)
    em.add("generic_fiber_rays",
           "; ".join(" ".join(str(x) for x in r)
                     for r in rep.generic_fiber_rays))
    em.flush()


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
    out = []
    out.append("== dataset ==")
    out.append(f"source fan: rank {m.source.rank}, {len(m.source.rays)} rays, "
               f"{len(m.source.maximal_cones)} maximal cones")
    out.append(f"target fan: rank {m.target.rank}, {len(m.target.rays)} rays, "
               f"{len(m.target.maximal_cones)} maximal cones, "
               f"{len(m.target.all_cone_indices)} cones, "
               f"smooth={m.target.is_smooth()}")
    out.append(f"polytope: {len(p.vertices)} vertices, {len(p.facets)} facets, "
               f"{len(lattice_points(p))} lattice points, "
               f"reflexive={is_reflexive(p)}")
    cert = m.is_fibration()
    out.append(f"fibration={cert.is_fibration} skeleton_onto={cert.skeleton_onto}")
    out.append("")
    out.append("== strata ==")
    total_prim = 0
    table = m.flattening_stratification()
    for sigma, rep in table:
        prim = " ".join(data.cone_name(snames, t) for t in rep.primitive)
        labels = " ".join(c.label for c in rep.components)
        total_prim += sum(1 for t in rep.primitive if t)
        out.append(f"{data.cone_name(tnames, sigma):10s} Ind={rep.index} "
                   f"primitive=[{prim}] components=[{labels}]")
    out.append(f"nonzero primitive cones: {total_prim}")
    out.append("")
    out.append("== restrictions ==")
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
                       f"{len(lattice_points(proj))} label={comp.label}")
    out.append("")
    out.append("== moduli ==")
    out.append(f"lattice points: {len(lattice_points(p))}")
    out.append(f"facet interior sum: {facet_interior_sum(p)}")
    out.append(f"moduli dimension: {moduli_dimension(p)}")
    out.append("")
    out.append("== resolution ==")
    rep = resolve_pipeline(m.source,
                           [data.RESOLUTION_RAYS[n]
                            for n in data.RESOLUTION_ORDER],
                           phi=m.phi, target=m.target)
    for step, name in zip(rep.steps, data.RESOLUTION_ORDER):
        out.append(f"insert {name}: maximal cones {step.maximal_cones}")
    out.append(f"smooth: {rep.smooth}")
    out.append("generic fiber rays: "
               + "; ".join(" ".join(str(x) for x in r)
                           for r in rep.generic_fiber_rays))
    return out


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
