import pytest

from toricfiber import data
from toricfiber.documents import (DocumentError, fan_document,
                                  fan_from_document, lattice_map_document,
                                  lattice_map_from_document, parse,
                                  polytope_document, polytope_from_document,
                                  serialize)


def roundtrip(text):
    doc = parse(text)
    once = serialize(doc)
    assert serialize(parse(once)) == once
    return doc


def test_fan_roundtrip_bundled():
    doc = fan_document(data.total_fan(), data.total_ray_names())
    text = serialize(doc)
    parsed = roundtrip(text)
    fan, names = fan_from_document(parsed)
    assert len(fan.rays) == 13
    assert len(fan.maximal_cones) == 54
    assert list(names) == data.total_ray_names()


def test_empty_fan_document():
    doc = parse("toricfiber fan v1\nrank 0\n")
    fan, _ = fan_from_document(doc)
    assert fan.rank == 0
    assert fan.all_cone_indices == [()]


def test_non_primitive_ray_rejected():
    text = "toricfiber fan v1\nrank 5\nray bad 0 0 0 2 4\n"
    with pytest.raises(DocumentError) as err:
        parse(text)
    assert "not primitive" in str(err.value)
    assert "line 3" in str(err.value)


def test_unknown_cone_ray_rejected():
    text = "toricfiber fan v1\nrank 2\nray a 1 0\ncone a b\n"
    with pytest.raises(DocumentError) as err:
        parse(text)
    assert "unknown ray" in str(err.value)


def test_bad_header():
    with pytest.raises(DocumentError):
        parse("nonsense here\n")
    with pytest.raises(DocumentError):
        parse("toricfiber fan v99\nrank 1\n")
    with pytest.raises(DocumentError):
        parse("")
    with pytest.raises(DocumentError) as err:
        parse("toricfiber job v1\ntask morphism.fibers\n")
    assert "unknown document kind" in str(err.value)
    assert "line 1" in str(err.value)
    for text, line in (("toricfiber fan v1", 2),
                       ("\ntoricfiber polytope v1\n\n", 3),
                       ("toricfiber lattice_map v1\nrows 1\n", 3),
                       ("toricfiber fan v1\nrank\n", 2),
                       ("toricfiber fan v1\nrank x\n", 2),
                       ("toricfiber polytope v1\nrank -1\nvertex\n", 2),
                       ("toricfiber lattice_map v1\nrows 1\ncols\nrow 1\n", 3)):
        with pytest.raises(DocumentError) as err:
            parse(text)
        assert err.value.line == line


def test_polytope_roundtrip():
    doc = polytope_document(data.section_polytope())
    parsed = roundtrip(serialize(doc))
    p = polytope_from_document(parsed)
    assert p == data.section_polytope()


def test_lattice_map_roundtrip():
    doc = lattice_map_document(data.projection())
    parsed = roundtrip(serialize(doc))
    m = lattice_map_from_document(parsed)
    assert m.matrix == data.projection().matrix


def test_lattice_map_bad_row():
    text = "toricfiber lattice_map v1\nrows 2\ncols 2\nrow 1 0\nrow 1\n"
    with pytest.raises(DocumentError) as err:
        parse(text)
    assert "line 5" in str(err.value)


@pytest.mark.parametrize("ranks, text", [
    ((0, 5), "toricfiber lattice_map v1\nrows 0\ncols 5\n"),
    ((3, 0), "toricfiber lattice_map v1\nrows 3\ncols 0\nrow\nrow\nrow\n")])
def test_lattice_map_with_a_zero_rank_keeps_both_ranks(ranks, text):
    m = lattice_map_from_document(roundtrip(text))
    assert (m.target_rank, m.source_rank) == ranks
    assert serialize(lattice_map_document(m)) == text


def test_section_kind_is_rejected_on_line_1():
    text = "toricfiber section v1\nrank 1\nterm 0 = 1\n"
    with pytest.raises(DocumentError) as err:
        parse(text)
    assert "unknown document kind 'section'" in str(err.value)
    assert err.value.line == 1


def test_kind_mismatch_conversions():
    doc = parse("toricfiber polytope v1\nrank 1\nvertex 0\n")
    with pytest.raises(DocumentError):
        fan_from_document(doc)
    with pytest.raises(DocumentError):
        lattice_map_from_document(doc)
