import itertools

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (cone_is_map_of_fans, cone_sigma_of,
                     image_cone_violations, intersection_star_ranks,
                     member_index)
from strategies import (NON_SIMPLICIAL_FANS, OCTAHEDRAL, SMALL_FANS,
                        TRIANGULATED_OCTAHEDRAL, fan_maps,
                        maps_into_non_simplicial)
from toricfiber import data, fans, geometry, morphism
from toricfiber.analysis import resolve_pipeline
from toricfiber.fans import Fan, fan_equal, zero_fan
from toricfiber.intlinalg import LatticeMap, cokernel_index
from toricfiber.morphism import EMPTY, FanMap, is_map_of_fans
from toricfiber.polytopes import (Polytope, lattice_points, normal_fan,
                                  restriction_polytope)
from toricfiber.surfaces import catalog_fan, complete_fan_from_rays


def line_fan():
    return Fan(1, [(1,), (-1,)], [[0], [1]])


def cp2_fan():
    return Fan(2, [(1, 0), (0, 1), (-1, -1)], [[0, 1], [1, 2], [2, 0]])


def union(cones):
    return tuple(sorted(set(itertools.chain.from_iterable(cones))))


def test_is_map_of_fans_examples():
    m = data.fibration_map()
    assert is_map_of_fans(m.phi, m.source, m.target)
    f = data.base_fan()
    assert is_map_of_fans(LatticeMap.identity(3), f, f)
    # a cone straddling both half-lines is not compatible
    straddle = Fan(2, [(1, 1), (-1, 1)], [[0, 1]])
    proj = LatticeMap.from_rows([[1, 0]])
    assert not is_map_of_fans(proj, straddle, line_fan())
    with pytest.raises(ValueError):
        FanMap(proj, straddle, line_fan())


def test_image_fan_surjective_is_target():
    m = data.fibration_map()
    assert m.image_fan() is m.target


def test_image_fan_line_in_plane():
    # x-axis inclusion into the plane of a complete surface fan
    phi = LatticeMap.from_rows([[1], [0]])
    src = line_fan()
    m = FanMap(phi, src, cp2_fan())
    img = m.image_fan()
    assert img.rank == 1
    assert fan_equal(img, line_fan())


def test_image_fan_zero_map():
    phi = LatticeMap.from_rows([[0], [0]])
    m = FanMap(phi, line_fan(), cp2_fan())
    img = m.image_fan()
    assert img.rank == 0
    assert img.all_cone_indices == [()]


def test_sigma_prime_of_table_rows():
    m = data.fibration_map()
    tnames = data.total_ray_names()
    # over the zero cone: exactly the kernel subfan on b', v4', v5'
    over_zero = m.sigma_prime_of(())
    kernel_rays = {tnames.index(n) for n in ("b'", "v4'", "v5'")}
    assert all(set(sp) <= kernel_rays for sp in over_zero)
    assert max(len(sp) for sp in over_zero) == 2
    # over r2: cones with at least one of c1', c2'
    over_r2 = m.sigma_prime_of(data.base_cone("r2"))
    c_rays = {tnames.index("c1'"), tnames.index("c2'")}
    assert all(set(sp) & c_rays for sp in over_r2)
    # over d4: v1' joined onto the kernel subfan
    over_d4 = m.sigma_prime_of(data.base_cone("d4"))
    v1 = tnames.index("v1'")
    assert all(v1 in sp and set(sp) - {v1} <= kernel_rays for sp in over_d4)


def test_sigma_prime_requires_image_cone():
    m = data.fibration_map()
    with pytest.raises(ValueError):
        m.sigma_prime_of((0, 1, 2, 3))


def test_primitive_cones_examples():
    m = data.fibration_map()
    tnames = data.total_ray_names()
    named = lambda cones: {data.cone_name(tnames, c) for c in cones}
    assert named(m.primitive_cones(data.base_cone("r2"))) == {"c1'", "c2'"}
    assert named(m.primitive_cones(data.base_cone("r1"))) == {"e1'", "e2'", "e3'"}
    assert m.primitive_cones(()) == [()]


def test_primitive_cones_have_no_proper_face_over_sigma():
    m = data.fibration_map()
    for sigma in m.image_fan().all_cone_indices:
        members = m.sigma_prime_of(sigma)
        assert m.primitive_cones(sigma) == [
            sp for sp in members
            if not any(f in members for f in m.source.proper_faces(sp))]


def test_partition_property():
    m = data.fibration_map()
    seen = []
    for sigma in m.image_fan().all_cone_indices:
        seen.extend(m.sigma_prime_of(sigma))
    assert sorted(seen) == sorted(m.source.all_cone_indices)


def test_index_identity_map():
    f = data.base_fan()
    m = FanMap(LatticeMap.identity(3), f, f)
    for sigma in f.all_cone_indices:
        assert m.index_of(sigma) == 1
        rep = m.fiber_report(sigma)
        assert rep.primitive == (sigma,)
        assert rep.components[0].dim == 0


def test_index_doubling_map():
    f = line_fan()
    m = FanMap(LatticeMap.from_rows([[2]]), f, f)
    assert m.index_of(()) == 2
    assert m.index_of((0,)) == 1
    assert m.index_of((1,)) == 1
    table = m.flattening_stratification()
    assert {sigma: rep.index for sigma, rep in table} == {
        (): 2, (0,): 1, (1,): 1}
    # Ind(0) = Ind(sigma) * [N_sigma : N_sigma cap phi(N')]
    from oracles import lattice_intersection, sublattice_index
    deg = cokernel_index(m.phi)
    assert deg == 2
    for sigma in [(0,), (1,)]:
        n_sigma = [f.rays[i] for i in sigma]
        image = [m.phi.apply((1,)), m.phi.apply((-1,))]
        inter = lattice_intersection(n_sigma, [(2,)], 1)
        assert deg == m.index_of(sigma) * sublattice_index(n_sigma, inter, 1)


def test_index_all_one_bundled_map():
    m = data.fibration_map()
    for sigma in m.image_fan().all_cone_indices:
        assert m.index_of(sigma) == 1


def test_relative_star_labels():
    m = data.fibration_map()
    star = m.relative_star(data.total_cone("c1'"), data.base_cone("r2"))
    assert m.component_label(star) == "X(4)"
    star = m.relative_star(data.total_cone("e2'"), data.base_cone("r1"))
    assert m.component_label(star) == "WCP2(1,1,3)"
    star = m.relative_star((), ())
    assert m.component_label(star) == "WCP2(1,2,3)"
    with pytest.raises(ValueError):
        m.relative_star(data.total_cone("c1'"), data.base_cone("r1"))


def test_component_dimension_law():
    # dim of each component = codim tau' - codim sigma
    m = data.fibration_map()
    n_src, n_dst = m.source.rank, m.target.rank
    for sigma, rep in m.flattening_stratification():
        sigma_dim = m.target.cone(sigma).dim
        for comp in rep.components:
            tau_dim = m.source.cone(comp.primitive_cone).dim
            assert comp.dim == (n_src - tau_dim) - (n_dst - sigma_dim)


def test_fiber_report_r1():
    m = data.fibration_map()
    rep = m.fiber_report(data.base_cone("r1"))
    assert rep.index == 1
    assert [c.label for c in rep.components] == ["X(5)", "WCP2(1,1,3)", "F2"]
    assert all(c.dim == 2 for c in rep.components)
    inter = rep.intersections
    pairs = [subset for subset in inter if len(subset) == 2]
    assert [inter[subset] for subset in pairs] == [1, 1, 1]
    assert all(m.relative_star(union(subset), rep.sigma).fan.is_complete()
               for subset in pairs)
    (triple_dim,) = [dim for subset, dim in inter.items() if len(subset) == 3]
    assert triple_dim == 0


def test_fiber_report_single_component():
    m = data.fibration_map()
    rep = m.fiber_report(data.base_cone("d4 d2 u"))
    assert len(rep.components) == 1
    assert rep.components[0].label == "WCP2(1,2,3)"


def test_total_primitive_count():
    m = data.fibration_map()
    total = sum(1 for sigma in m.image_fan().all_cone_indices
                for t in m.primitive_cones(sigma) if t)
    assert total == 59


def test_is_fibration_bundled_map():
    cert = data.fibration_map().is_fibration()
    assert cert.is_fibration
    assert cert.skeleton_onto
    assert cert.violations == ()


def test_is_fibration_identity():
    f = data.base_fan()
    assert FanMap(LatticeMap.identity(3), f, f).is_fibration().is_fibration


def test_is_fibration_blowup_false():
    # blow-up of the plane mapping to the plane: the exceptional ray is
    # primitive over the full quadrant, with a dimension drop
    blowup = Fan(2, [(1, 0), (0, 1), (1, 1)], [[0, 2], [2, 1]])
    quadrant = Fan(2, [(1, 0), (0, 1)], [[0, 1]])
    m = FanMap(LatticeMap.identity(2), blowup, quadrant)
    cert = m.is_fibration()
    assert not cert.is_fibration
    assert ((0, 1), (2,)) in cert.violations
    # equivalence with the component-dimension computation
    expected = m.source.rank - m.target.rank
    dims_ok = all(c.dim == expected
                  for sigma, rep in m.flattening_stratification()
                  for c in rep.components)
    assert dims_ok == cert.is_fibration


@settings(max_examples=150, deadline=None)
@given(fan_maps())
def test_fiber_reads_agree_with_stars_and_image_cones(m):
    # intersection dims against the ranks of the old relative stars, and
    # the fibration test against a double description of each image
    for sigma in m.image_fan().all_cone_indices:
        if m.sigma_prime_of(sigma):
            assert m.fiber_report(sigma).intersections == \
                intersection_star_ranks(m, sigma)
    if m.is_surjective_real():
        assert m.is_fibration().violations == image_cone_violations(m)


def test_fiber_reads_agree_on_the_bundled_map_and_a_fan_of_many_fibers():
    # rays (1, j), |j| <= 2, lie over the ray of P^1 under (x, y) -> x:
    # five primitive cones, whose pairs meet only when adjacent
    many = complete_fan_from_rays([(1, j) for j in range(-2, 3)] +
                                  [(0, 1), (-1, 0), (0, -1)])
    line = FanMap(LatticeMap.from_rows([[1, 0]]), many, line_fan())
    inter = line.fiber_report((0,)).intersections
    assert len(inter) == 26
    assert sum(dim != EMPTY for dim in inter.values()) == 4
    for m in (data.fibration_map(), line):
        for sigma, rep in m.flattening_stratification():
            assert rep.intersections == intersection_star_ranks(m, sigma)
        assert m.is_fibration().violations == image_cone_violations(m)


def test_fiber_reads_build_no_intersection_star_or_image_cone(monkeypatch):
    # one relative star per fiber component, and no double description
    # in the fibration test; the bundled map's strata hold 60 components
    bundled = data.fibration_map()
    m = FanMap(bundled.phi, bundled.source, bundled.target)
    calls = {"relative_star": 0, "dual_description": 0}

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(FanMap, "relative_star",
                        counted("relative_star", FanMap.relative_star))
    table = m.flattening_stratification()
    assert calls["relative_star"] == \
        sum(len(rep.components) for _, rep in table) == 60
    dd = counted("dual_description", geometry.dual_description)
    for module in (geometry, fans, morphism):
        monkeypatch.setattr(module, "dual_description", dd)
    assert m.is_fibration().is_fibration
    assert calls["dual_description"] == 0


def test_is_fibration_requires_surjective():
    phi = LatticeMap.from_rows([[1], [0]])
    m = FanMap(phi, line_fan(), cp2_fan())
    with pytest.raises(ValueError):
        m.is_fibration()


def test_branch_locus_doubling():
    f = line_fan()
    m = FanMap(LatticeMap.from_rows([[2]]), f, f)
    assert m.branch_locus() == [(0,), (1,)]


def test_index_well_defined_across_strata():
    # index_of reads one index per stratum; taken member by member, every
    # sigma' over sigma gives that index and one image lattice
    f = line_fan()
    for m in (data.fibration_map(), FanMap(LatticeMap.from_rows([[2]]), f, f)):
        for sigma in m.image_fan().all_cone_indices:
            per_member = {member_index(m, sigma, sp)
                          for sp in m.sigma_prime_of(sigma)}
            assert len(per_member) == 1
            assert per_member.pop()[0] == m.index_of(sigma)


def test_lighted_part_zero_cone():
    m = data.fibration_map()
    p = data.section_polytope()
    part = m.lighted_part(p, ())
    all_idx = tuple(range(len(p.vertices)))
    sets = {f.vertex_indices for f in part.faces}
    assert all_idx in sets
    prim = [f for f in part.faces if f.primitive]
    assert len(prim) == 1 and prim[0].vertex_indices == all_idx
    # non-full faces are those with normal data kill by the projection
    assert len(part.faces) == 7


def test_lighted_part_cross_check():
    # every primitive cone's face appears in the lighted part, and the
    # primitive faces are exactly the inclusion-maximal ones among them
    m = data.fibration_map()
    p = data.section_polytope()
    for sigma in [data.base_cone("r2"), data.base_cone("r1"),
                  data.base_cone("d4 r1"), data.base_cone("d4")]:
        part = m.lighted_part(p, sigma)
        prim_faces = {f.vertex_indices for f in part.faces if f.primitive}
        cone_faces = {part.face_of_cone[t] for t in m.primitive_cones(sigma)}
        assert prim_faces <= cone_faces
    # over r2 the two facets are incomparable: counts agree
    part = m.lighted_part(p, data.base_cone("r2"))
    assert sum(f.primitive for f in part.faces) == 2
    assert len(m.primitive_cones(data.base_cone("r2"))) == 2
    # over r1 the refinement makes two fiber polytopes boundary faces of
    # the third, so the face count undercounts the three components
    part = m.lighted_part(p, data.base_cone("r1"))
    assert sum(f.primitive for f in part.faces) == 1
    assert len(m.primitive_cones(data.base_cone("r1"))) == 3


def test_lighted_part_one_dim_base():
    # a segment mapping to the line: primitive faces over sigma+ are the
    # maximal faces of the lighted part
    src = Fan(1, [(1,), (-1,)], [[0], [1]])
    m = FanMap(LatticeMap.identity(1), src, src)
    p = Polytope([(-2,), (3,)])
    part = m.lighted_part(p, (0,))
    assert [f.vertices for f in part.faces if f.primitive] == [((-2,),)]


def test_project_polytope_counts():
    m = data.fibration_map()
    p = data.section_polytope()
    counts = {"WCP2(1,2,3)": 7, "X(4)": 4, "CP2": 6, "X(5)": 2,
              "WCP2(1,1,3)": 5, "F2": 4}
    for sigma, rep in m.flattening_stratification():
        for comp in rep.components:
            r = restriction_polytope(p, comp.primitive_cone, m.source)
            proj = m.project_polytope(r, comp.star)
            assert len(lattice_points(proj)) == counts[comp.label]


def test_empty_intersection_recorded():
    # two primitive cones over r2 of a 3-dim stratum never span a cone
    # missing from the fan here, but synthesize one: use the blow-up map
    blowup = Fan(2, [(1, 0), (0, 1), (1, 1)], [[0, 2], [2, 1]])
    m = FanMap(LatticeMap.identity(2), blowup,
               Fan(2, [(1, 0), (0, 1)], [[0, 1]]))
    rep = m.fiber_report((0, 1))
    assert rep.intersections == {}  # single primitive cone, no subsets
    bundled = data.fibration_map()
    rep = bundled.fiber_report(data.base_cone("r2"))
    (pair,) = [k for k in rep.intersections]
    assert rep.intersections[pair] != EMPTY


def test_relative_star_over_a_non_simplicial_source():
    # (normal fan of the octahedron) x P1 -> P1; its maximal cones over
    # the cube's faces are not simplicial
    octahedron = Polytope([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                           (0, 0, 1), (0, 0, -1)])
    nf = normal_fan(octahedron)
    n = len(nf.rays)
    rays = [r + (0,) for r in nf.rays] + [(0, 0, 0, 1), (0, 0, 0, -1)]
    cones = [c + (k,) for k in (n, n + 1) for c in nf.maximal_cones]
    m = FanMap(LatticeMap.from_rows([[0, 0, 0, 1]]), Fan(4, rays, cones),
               line_fan())
    s = m.relative_star((0,), ())
    assert s.rank == 2 and s.fan.is_complete()


def test_map_to_a_point_is_a_fibration():
    source = catalog_fan("X(5)")
    m = FanMap(LatticeMap.from_columns([(), ()]), source, zero_fan(0))
    assert (m.phi.target_rank, m.phi.source_rank) == (0, 2)
    table = m.flattening_stratification()
    assert [(sigma, rep.index, [c.label for c in rep.components])
            for sigma, rep in table] == [((), 1, ["X(5)"])]
    assert m.is_fibration().is_fibration
    assert fan_equal(m.relative_star((), ()).fan, source)


def test_stars_share_one_fan_per_distinct_star():
    # every star of the bundled map's fibers, against the star taken on a
    # map of its own, which has no other star to share a fan with
    m = data.fibration_map()
    stars = []
    for _, rep in m.flattening_stratification():
        stars += [c.star for c in rep.components]
        stars += [m.relative_star(union(subset), rep.sigma)
                  for subset, dim in rep.intersections.items() if dim != EMPTY]
    for s in stars:
        fresh = FanMap(m.phi, m.source, m.target).relative_star(
            s.tau, s.sigma)
        assert fresh.fan is not s.fan
        assert (s.fan.rank, s.fan.rays, s.fan.maximal_cones,
                s.fan.is_complete()) == \
            (fresh.fan.rank, fresh.fan.rays, fresh.fan.maximal_cones,
             fresh.fan.is_complete())
        assert s.lifts == fresh.lifts
    assert len({id(s.fan) for s in stars}) < len(stars)
    # two stars listing only the cone tau itself differ by their rank
    f = Fan(2, [(1, 0), (0, 1), (-1, -1)], [[0, 1], [2]])
    assert [morphism.star(f, tau).rank for tau in ((0, 1), (2,))] == [0, 1]


# -- image cones read off ray carriers, against the per-cone oracle -------


@settings(max_examples=150, deadline=None)
@given(fan_maps())
def test_sigma_of_matches_the_per_cone_oracle(m):
    assert m._sigma_of == cone_sigma_of(m)


def test_sigma_of_matches_the_per_cone_oracle_on_non_simplicial_targets():
    for phi, source, target in maps_into_non_simplicial():
        m = FanMap(phi, source, target)
        assert m._sigma_of == cone_sigma_of(m)


def test_sigma_of_is_the_smallest_face_holding_the_carriers():
    # a diagonal of a square cone maps to two opposite rays, which span no
    # cone: the image of its relint lies in the relint of the square cone
    m = FanMap(LatticeMap.identity(3), TRIANGULATED_OCTAHEDRAL, OCTAHEDRAL)
    diagonals = [c for c in TRIANGULATED_OCTAHEDRAL.all_cone_indices
                 if len(c) == 2 and not OCTAHEDRAL.has_cone(c)]
    assert len(diagonals) == 6
    for c in diagonals:
        sigma = m.sigma_of(c)
        assert len(sigma) == 4 and set(c) < set(sigma)
        assert sigma in OCTAHEDRAL.maximal_cones


def test_sigma_of_matches_the_per_cone_oracle_on_the_bundled_maps():
    m = data.fibration_map()
    resolved = resolve_pipeline(
        m.source, [data.RESOLUTION_RAYS[n] for n in data.RESOLUTION_ORDER],
        phi=m.phi, target=m.target).fan
    for fm in (m, FanMap(m.phi, resolved, m.target)):
        assert fm._sigma_of == cone_sigma_of(fm)
        assert cone_is_map_of_fans(fm.phi, fm.source, fm.target)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SMALL_FANS + NON_SIMPLICIAL_FANS + (
           TRIANGULATED_OCTAHEDRAL,)),
       st.sampled_from(SMALL_FANS + NON_SIMPLICIAL_FANS), st.data())
def test_is_map_of_fans_matches_the_per_cone_oracle(source, target, picks):
    entries = st.integers(-2, 2)
    phi = LatticeMap.from_rows(picks.draw(st.lists(
        st.lists(entries, min_size=source.rank, max_size=source.rank),
        min_size=target.rank, max_size=target.rank)))
    assert is_map_of_fans(phi, source, target) == \
        cone_is_map_of_fans(phi, source, target)


def test_is_map_of_fans_accepts_only_what_the_oracle_accepts():
    for phi, source, target in maps_into_non_simplicial():
        assert cone_is_map_of_fans(phi, source, target)
