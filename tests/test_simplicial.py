import pytest

from bigtor.errors import InputError
from bigtor.simplicial import (
    SubgroupData,
    all_faces,
    build_complex,
    check_connected_kernel,
    check_local_freeness,
    face_count_by_size,
)
from bigtor.stanley_reisner import LinearForm, forms_of

import oracles
from conftest import from_lists


def test_build_complex_absorbs_contained_faces():
    K = build_complex(3, [(1, 2), (1,), (2, 3)])
    assert K.face_vertices() == [(1, 2), (2, 3)]


def test_build_complex_keeps_input_order():
    K = build_complex(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert K.face_vertices() == [(1, 2), (2, 3), (3, 4), (1, 4)]


def test_build_complex_rejects_bad_vertices():
    with pytest.raises(InputError):
        build_complex(2, [(1, 3)])
    with pytest.raises(InputError):
        build_complex(2, [(0,)])
    with pytest.raises(InputError):
        build_complex(-1, [])
    # no truncation: these once gave the face {1 2} and m = 2
    with pytest.raises(InputError, match="vertex 1.5 is not an integer"):
        build_complex(3, [(1.5, 2)])
    with pytest.raises(InputError, match="vertex count 2.9 is not an integer"):
        build_complex(2.9, [(1, 2)])
    with pytest.raises(InputError, match="vertex True is not an integer"):
        build_complex(2, [(True, 2)])


def mask(*vertices):
    return sum(1 << (v - 1) for v in vertices)


def test_face_membership():
    K = build_complex(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    faces = all_faces(K)
    assert mask() in faces
    assert mask(2) in faces
    assert mask(1, 2) in faces
    assert mask(1, 3) not in faces
    assert mask(1, 2, 3) not in faces
    assert mask(2, 3) in faces
    assert mask(2, 4) not in faces


def test_all_faces_matches_downward_closure():
    K = build_complex(5, [(1, 4), (4, 5), (1, 5)])
    expected = oracles.downward_closure([(1, 4), (4, 5), (1, 5)])
    got = {
        frozenset(v + 1 for v in range(K.m) if mask >> v & 1)
        for mask in all_faces(K)
    }
    assert got == expected
    assert face_count_by_size(K) == (1, 3, 3, 0, 0, 0)


def test_ghost_vertices_are_not_faces():
    # vertices 2 and 3 appear in no face, so the singletons are nonfaces
    K = build_complex(5, [(1, 4), (4, 5), (1, 5)])
    assert mask(2) not in all_faces(K)
    assert mask(3) not in all_faces(K)


def test_subgroup_data_validation():
    S = SubgroupData(from_lists([[2, -1]]))
    assert S.n == 1
    assert S.m == 2
    assert forms_of(S) == (LinearForm((2, -1)),)
    with pytest.raises(InputError, match="linearly dependent"):
        SubgroupData(from_lists([[1, 2], [2, 4]]))  # rank-deficient rows
    with pytest.raises(InputError, match="no more rows than columns"):
        SubgroupData(from_lists([[1, 0], [0, 1], [1, 1]]))  # n > m


def test_subgroup_data_value_semantics():
    S = SubgroupData(from_lists([[1, 0, -2], [0, 2, -1]]))
    same = SubgroupData(from_lists([[1, 0, -2], [0, 2, -1]]))
    assert S == same and hash(S) == hash(same)
    assert S != SubgroupData(from_lists([[1, 0, -2], [0, 2, 1]]))
    assert S != S.B
    with pytest.raises(AttributeError):
        S.n = 3


def test_local_freeness_pass_cases():
    K = build_complex(2, [(1,), (2,)])
    report = check_local_freeness(K, SubgroupData(from_lists([[2, -1]])))
    assert report.status == "PASS"
    assert report.face_dets == (((1,), 2), ((2,), -1))

    square = build_complex(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    report = check_local_freeness(
        square, SubgroupData(from_lists([[1, 0, -2, 0], [0, 2, 0, -1]]))
    )
    assert report.status == "PASS"
    assert [d for _, d in report.face_dets] == [2, 4, 2, -1]


def test_local_freeness_fail_case():
    square = build_complex(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    report = check_local_freeness(
        square, SubgroupData(from_lists([[1, 0, -1, 0], [1, 0, -1, 1]]))
    )
    assert report.status == "FAIL"
    assert (2, 3) in report.failing_faces


def test_local_freeness_not_applicable_on_mixed_dimensions():
    K = build_complex(3, [(1, 2), (3,)])
    report = check_local_freeness(K, SubgroupData(from_lists([[1, 1, 1], [0, 1, 2]])))
    assert report.status == "NOT_APPLICABLE"
    assert report.reason


def test_connected_kernel():
    assert check_connected_kernel(SubgroupData(from_lists([[1, 0, -2, 0], [0, 2, 0, -1]])))
    assert not check_connected_kernel(SubgroupData(from_lists([[2, 4]])))
    assert check_connected_kernel(SubgroupData(from_lists([[2, -1]])))
