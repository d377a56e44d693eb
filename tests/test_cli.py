import os
import subprocess
import sys

import click
import pytest
from click.testing import CliRunner

from toricfiber import data
from toricfiber.cli import cli, main, pipeline_report_lines
from toricfiber.documents import fan_document, serialize
from toricfiber.fans import Fan
from toricfiber.morphism import FanMap
from toricfiber.polytopes import Polytope, RestrictedPolytope
from toricfiber.surfaces import catalog_fan


def run(*args):
    return CliRunner().invoke(cli, args, catch_exceptions=False)


def test_fan_check():
    res = run("fan", "check", "--format", "structured")
    assert res.exit_code == 0
    assert "maximal_cones: 54" in res.output
    assert "complete: True" in res.output


def test_fan_check_layout():
    # table keys are padded to the longest key plus two spaces
    assert run("fan", "check").output == (
        "rank           5\n"
        "rays           13\n"
        "maximal_cones  54\n"
        "cones_total    393\n"
        "f_vector       1 13 60 130 135 54\n"
        "complete       True\n")
    assert run("fan", "check", "--format", "structured").output == (
        "rank: 5\nrays: 13\nmaximal_cones: 54\ncones_total: 393\n"
        "f_vector: 1 13 60 130 135 54\ncomplete: True\n")


def leaf_commands(group, path=()):
    for name, cmd in group.commands.items():
        if isinstance(cmd, click.Group):
            yield from leaf_commands(cmd, path + (name,))
        else:
            yield " ".join(path + (name,)), cmd


def test_every_row_command_takes_format():
    documents = {"fan subdivide", "polytope dual", "pipeline"}
    leaves = dict(leaf_commands(cli))
    assert documents < leaves.keys()
    for name, cmd in leaves.items():
        fmt = [p for p in cmd.params if p.name == "fmt"]
        if name in documents:
            assert fmt == [], name
            continue
        assert [p.opts for p in fmt] == [["--format"]], name
        assert list(fmt[0].type.choices) == ["table", "structured"], name
        assert fmt[0].default == "table", name


def test_fan_smooth_and_singular():
    assert "False" in run("fan", "smooth").output
    out = run("fan", "singular").output
    assert "v5'.b'" in out and "v4'.e1'.e2'" in out


def test_morphism_check_reports_a_map_that_is_not_a_map_of_fans(tmp_path):
    # (x, y) -> x takes the CP2 cone spanned by (0, 1) and (-1, -1) onto
    # the whole line, which is no cone of P1; phi is still onto, of degree 1
    paths = []
    for name, text in (("map", "toricfiber lattice_map v1\nrows 1\ncols 2\n"
                               "row 1 0\n"),
                       ("source", "toricfiber fan v1\nrank 2\nray x 1 0\n"
                                  "ray y 0 1\nray z -1 -1\ncone x y\n"
                                  "cone y z\ncone z x\n"),
                       ("target", "toricfiber fan v1\nrank 1\nray a 1\n"
                                  "ray b -1\ncone a\ncone b\n")):
        (tmp_path / name).write_text(text)
        paths.append(f"--{name}={tmp_path / name}")
    res = run("morphism", "check", *paths, "--format", "structured")
    assert res.exit_code == 0
    assert res.output == "map_of_fans: False\nsurjective: True\ndegree: 1\n"


def test_morphism_commands():
    out = run("morphism", "check", "--format", "structured").output
    assert "map_of_fans: True" in out and "degree: 1" in out
    out = run("morphism", "image", "--format", "structured").output
    assert "equals_target: True" in out
    out = run("morphism", "fibers", "--sigma", "r1",
              "--format", "structured").output
    assert "index: 1" in out
    assert "X(5)" in out and "WCP2(1,1,3)" in out and "F2" in out
    lines = out.splitlines()
    for line in ("intersection e1' & e2': dim=1",
                 "intersection e1' & e3': dim=1",
                 "intersection e2' & e3': dim=1",
                 "intersection e1' & e2' & e3': dim=0"):
        assert line in lines
    out = run("morphism", "fibers", "--sigma", "r2",
              "--format", "structured").output
    assert "intersection c1' & c2': dim=1" in out.splitlines()
    out = run("morphism", "fibration", "--format", "structured").output
    assert "fibration: True" in out
    out = run("morphism", "stratify", "--format", "structured").output
    assert out.count("Ind=1") == 33


def test_polytope_commands():
    out = run("polytope", "points", "--format", "structured").output
    assert "count: 3365" in out
    out = run("polytope", "facets", "--format", "structured").output
    assert "facets: 9" in out
    out = run("polytope", "reflexive").output
    assert "True" in out
    out = run("polytope", "dual").output
    assert out.count("vertex") == 9
    out = run("polytope", "restrict", "--tau", "v1',e2'",
              "--format", "structured").output
    assert "count: 11" in out
    out = run("polytope", "project", "--tau", "v1',e2'", "--sigma", "d4,r1",
              "--format", "structured").output
    assert "count: 5" in out and "component: WCP2(1,1,3)" in out


def test_bundle_commands():
    out = run("bundle", "sections", "--format", "structured").output
    assert "sections: 3365" in out
    out = run("bundle", "restrict", "--tau", "c1'",
              "--format", "structured").output
    assert "surviving_terms: 154" in out
    out = run("bundle", "fibred", "--tau", "v1',e2'", "--sigma", "d4,r1",
              "--format", "structured").output
    assert "groups: 5" in out
    out = run("bundle", "homogeneous", "--format", "structured").output
    assert "monomials: 3365" in out


def test_analysis_commands():
    out = run("analysis", "discriminant", "--shape", "F2",
              "--coeffs", "0,-1,0,1", "--format", "structured").output
    assert "value: -4" in out
    out = run("analysis", "intersections", "--surface", "WCP2(1,2,3)",
              "--format", "structured").output
    assert "K_squared: 6" in out
    out = run("analysis", "genus", "--surface", "WCP2(1,2,3)",
              "--curve", "1,1,1", "--format", "structured").output
    assert "genus: 1" in out
    out = run("analysis", "moduli", "--format", "structured").output
    assert "moduli_dimension: 2897" in out
    out = run("analysis", "resolve", "--format", "structured").output
    assert "smooth: True" in out


def test_unknown_ray_name_is_usage_error():
    res = CliRunner().invoke(cli, ["morphism", "fibers", "--sigma", "zz"])
    assert res.exit_code != 0


def test_input_document_flow(tmp_path):
    doc = serialize(fan_document(data.base_fan(), data.base_ray_names()))
    path = tmp_path / "base.fan"
    path.write_text(doc)
    out = run("fan", "check", "--input", str(path),
              "--format", "structured").output
    assert "cones_total: 33" in out


def test_subdivided_fan_reads_back(tmp_path):
    # the new ray used to be named s3 beside a ray already named s3
    path = tmp_path / "p2.fan"
    path.write_text("toricfiber fan v1\nrank 2\nray x 1 0\nray y 0 1\n"
                    "ray s3 -1 -1\ncone x y\ncone y s3\ncone x s3\n")
    doc = run("fan", "subdivide", "--input", str(path), "--ray", "1 1").output
    assert "ray s4 1 1" in doc
    path.write_text(doc)
    assert run("fan", "check", "--input", str(path)).exit_code == 0


def stratify_structured(tmp_path, **texts):
    """`morphism stratify` output on the map, source and target texts."""
    args = ["morphism", "stratify", "--format", "structured"]
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
        args += [f"--{name}", str(tmp_path / name)]
    res = run(*args)
    assert res.exit_code == 0
    return res.output


POINT_FAN = "toricfiber fan v1\nrank 0\n"


def test_stratify_over_a_point(tmp_path):
    out = stratify_structured(
        tmp_path, map="toricfiber lattice_map v1\nrows 0\ncols 2\n",
        source=serialize(fan_document(catalog_fan("X(5)"),
                                      ["a", "b", "c", "d", "e"])),
        target=POINT_FAN)
    assert out == "0: Ind=1 primitive=[0] components=[X(5)]\n"


def test_stratify_from_a_point(tmp_path):
    out = stratify_structured(
        tmp_path, map="toricfiber lattice_map v1\nrows 3\ncols 0\n"
                      "row\nrow\nrow\n",
        source=POINT_FAN,
        target=serialize(fan_document(data.base_fan(),
                                      data.base_ray_names())))
    assert out == "0: Ind=1 primitive=[0] components=[point]\n"


def test_image_rays_are_named_after_their_target_cones(tmp_path):
    # P^1 onto the x-axis of CP2: the image ray (-1, 0) is no target ray
    # but lies inside the cone y.z, so it is named y+z, and y names nothing
    out = stratify_structured(
        tmp_path, map="toricfiber lattice_map v1\nrows 2\ncols 1\n"
                      "row 1\nrow 0\n",
        source="toricfiber fan v1\nrank 1\nray a 1\nray b -1\n"
               "cone a\ncone b\n",
        target="toricfiber fan v1\nrank 2\nray x 1 0\nray y 0 1\n"
               "ray z -1 -1\ncone x y\ncone y z\ncone z x\n")
    assert out == ("0: Ind=1 primitive=[0] components=[point]\n"
                   "x: Ind=1 primitive=[a] components=[point]\n"
                   "y+z: Ind=1 primitive=[b] components=[point]\n")
    paths = [f"--{name}={tmp_path / name}" for name in ("map", "source",
                                                          "target")]
    out = run("morphism", "fibers", *paths, "--sigma", "y+z",
              "--format", "structured").output
    assert out.startswith("sigma: y+z\n") and "component b: point" in out
    res = CliRunner().invoke(cli, ["morphism", "fibers", *paths,
                                   "--sigma", "y"])
    assert res.exit_code != 0 and "unknown ray name 'y'" in res.output


def test_fan_check_drops_a_listed_face(tmp_path):
    path = tmp_path / "p1.fan"
    path.write_text("toricfiber fan v1\nrank 1\nray a 1\nray b -1\n"
                    "cone a\ncone b\ncone\n")
    out = run("fan", "check", "--input", str(path),
              "--format", "structured").output
    assert "maximal_cones: 2" in out and "complete: True" in out


def test_invalid_document_fails(tmp_path):
    path = tmp_path / "bad.fan"
    path.write_text("toricfiber fan v1\nrank 2\nray a 2 4\ncone a\n")
    res = CliRunner().invoke(cli, ["fan", "check", "--input", str(path)])
    assert res.exit_code != 0


def test_malformed_key_line_reports_its_line(tmp_path, monkeypatch, capsys):
    path = tmp_path / "bad.fan"
    path.write_text("toricfiber fan v1\nrank\n")
    monkeypatch.setattr(sys, "argv",
                        ["toricfiber", "fan", "check", "--input", str(path)])
    with pytest.raises(SystemExit) as exit_:
        main()
    assert exit_.value.code == 1
    err = capsys.readouterr().err
    assert "line 2" in err and "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["polytope", "restrict", "--tau", "c1'"],
    ["polytope", "project", "--tau", "v1',e2'", "--sigma", "d4,r1"],
    ["bundle", "restrict", "--tau", "c1'"],
    ["bundle", "fibred", "--tau", "v1',e2'", "--sigma", "d4,r1"],
    ["bundle", "homogeneous"],
    ["analysis", "resolve"],
])
def test_input_rank_must_match_bundled_fan(command, tmp_path, monkeypatch, capsys):
    path = tmp_path / "rank2.txt"
    if command[0] == "analysis":
        path.write_text("toricfiber fan v1\nrank 2\nray a 1 0\nray b 0 1\n"
                        "ray c -1 -1\ncone a b\ncone b c\ncone c a\n")
    else:
        path.write_text("toricfiber polytope v1\nrank 2\n"
                        "vertex 0 0\nvertex 1 0\nvertex 0 1\n")
    monkeypatch.setattr(sys, "argv",
                        ["toricfiber", *command, "--input", str(path)])
    with pytest.raises(SystemExit) as exit_:
        main()
    assert exit_.value.code == 1
    err = capsys.readouterr().err
    assert "has rank 2" in err and "has rank 5" in err


@pytest.mark.parametrize("command, named", [
    (["fan", "subdivide", "--ray", "0 0 0 1 x"], ["--ray"]),
    (["fan", "subdivide", "--ray", "0 0 0 1"], ["4 coordinates", "rank 5"]),
    (["bundle", "homogeneous", "--coeffs", "1,x"], ["--coeffs"]),
    (["analysis", "genus", "--surface", "CP2", "--curve", "1,y"], ["--curve"]),
    (["analysis", "discriminant", "--shape", "F2", "--coeffs", "0,-1,0,1/0"],
     ["--coeffs"]),
])
def test_numeric_options_fail_naming_the_option(command, named, monkeypatch,
                                                 capsys):
    monkeypatch.setattr(sys, "argv", ["toricfiber", *command])
    with pytest.raises(SystemExit) as exit_:
        main()
    assert exit_.value.code == 1
    err = capsys.readouterr().err
    assert all(n in err for n in named)
    assert "invalid literal" not in err and "Fraction" not in err
    assert "lengths" not in err and "Traceback" not in err


def test_fibred_xi_of_the_wrong_shape_names_both_shapes(tmp_path,
                                                         monkeypatch, capsys):
    path = tmp_path / "xi.txt"
    path.write_text("toricfiber lattice_map v1\nrows 2\ncols 2\n"
                    "row 1 0\nrow 0 1\n")
    monkeypatch.setattr(sys, "argv", [
        "toricfiber", "bundle", "fibred", "--tau", "v1',e2'",
        "--sigma", "d4,r1", "--xi", str(path)])
    with pytest.raises(SystemExit) as exit_:
        main()
    assert exit_.value.code == 1
    err = capsys.readouterr().err
    assert err == ("error: xi maps Z^2 to Z^2, but a section of the quotient "
                   "surjection maps Z^1 to Z^3\n")


@pytest.mark.parametrize("command", [["polytope", "project"],
                                     ["bundle", "fibred"]])
def test_tau_off_sigma_is_named(command, monkeypatch, capsys):
    # v1' lies over d4, not over r1
    monkeypatch.setattr(sys, "argv", ["toricfiber", *command, "--tau", "v1'",
                                      "--sigma", "r1"])
    with pytest.raises(SystemExit) as exit_:
        main()
    assert exit_.value.code == 1
    assert capsys.readouterr().err == (
        "error: tau does not lie over the relative interior of sigma\n")


@pytest.mark.parametrize("repeated, once", [
    (["morphism", "fibers", "--sigma", "r1,r1"],
     ["morphism", "fibers", "--sigma", "r1"]),
    (["polytope", "restrict", "--tau", "v1',v1'"],
     ["polytope", "restrict", "--tau", "v1'"]),
])
def test_repeated_ray_names_name_one_ray(repeated, once):
    res = run(*repeated)
    assert res.exit_code == 0
    assert res.output == run(*once).output


def test_pipeline_report_deterministic():
    first = pipeline_report_lines()
    second = pipeline_report_lines()
    assert first == second
    joined = "\n".join(first)
    assert "nonzero primitive cones: 59" in joined
    assert "moduli dimension: 2897" in joined
    assert "smooth: True" in joined


def test_pipeline_report_reads_each_fact_once(monkeypatch):
    """The report scans the section polytope once and builds no charted
    hull of a restriction, and each map locates each source ray's image
    once to check the map and once more to place its cones."""
    expected = pipeline_report_lines()
    maps, scanned, located, hulls = [], [], [], []

    def spy(owner, name, record):
        original = getattr(owner, name)

        def wrapper(self, *args):
            record.append(self)
            return original(self, *args)
        monkeypatch.setattr(owner, name, wrapper)

    spy(FanMap, "__init__", maps)
    spy(Polytope, "_scan", scanned)
    spy(Fan, "locate_relint", located)
    monkeypatch.setattr(RestrictedPolytope, "polytope", property(
        lambda r: hulls.append(r) or Polytope(r.vertices)))
    # fresh objects, so that no cached work from earlier reports is read
    section = Polytope(data.POLYTOPE_VERTICES)
    fibration = FanMap(data.projection(), data.total_fan(), data.base_fan())
    monkeypatch.setattr(data, "section_polytope", lambda: section)
    monkeypatch.setattr(data, "fibration_map", lambda: fibration)
    assert pipeline_report_lines() == expected
    assert hulls == []
    assert [p for p in scanned if p is section] == [section]
    assert len(maps) == 2 and all("_sigma_of" in vars(m) for m in maps)
    # one locate per star subdivision, at its new ray
    assert len(located) == sum(2 * len(m.source.rays) for m in maps) \
        + len(data.RESOLUTION_ORDER)


def test_pipeline_report_builds_one_star_per_component(monkeypatch):
    """The report's 60 fiber components each get one relative star, which
    the fiber polytope is projected through, and the resolved map one more
    for its generic fiber."""
    expected = pipeline_report_lines()
    stars = []
    original = FanMap.relative_star

    def counted(self, tau_idx, sigma_idx):
        stars.append((id(self), tuple(tau_idx), tuple(sigma_idx)))
        return original(self, tau_idx, sigma_idx)

    monkeypatch.setattr(FanMap, "relative_star", counted)
    assert pipeline_report_lines() == expected
    assert len(stars) == len(set(stars)) == 61


def src_env():
    """The environment with the checkout's src/ first on PYTHONPATH."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_package_runs_as_a_module():
    res = subprocess.run([sys.executable, "-m", "toricfiber", "pipeline",
                          "report"], env=src_env(), capture_output=True,
                         text=True, timeout=60)
    assert res.returncode == 0 and res.stderr == ""
    assert res.stdout == "".join(ln + "\n" for ln in pipeline_report_lines())


def test_failed_invariant_exits_2_under_optimised_python():
    # a doubled kernel basis leaves the member rays outside the preimage
    # of N_sigma, so the stratum check must fail, with asserts stripped by -O
    env = src_env()
    code = ("import sys\n"
            "from dataclasses import replace\n"
            "from toricfiber import cli, morphism\n"
            "kernel_coords = morphism.kernel_coords\n"
            "def doubled(f):\n"
            "    coords, index = kernel_coords(f)\n"
            "    return replace(coords, basis=tuple(tuple(2 * x for x in b)\n"
            "                   for b in coords.basis)), index\n"
            "morphism.kernel_coords = doubled\n"
            "sys.argv = ['toricfiber', 'morphism', 'fibers', '--sigma', 'r1']\n"
            "cli.main()\n")
    res = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.startswith("internal invariant violation: stratum "
                                 "over sigma (3,): member (7,) has ray 7 "
                                 "outside the preimage of N_sigma")
