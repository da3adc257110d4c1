"""Net files, mesh/CSV writers, timestamps, and atomic output."""

import json
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import gtplateau.io as io_module
from format_reference import _format_rows, curvature_text, obj_text
from gtplateau.errors import ConfigurationError, NetFormatError
from gtplateau.io import (
    _face_block,
    atomic_write_text,
    format_table,
    load_net,
    net_from_payload,
    net_to_payload,
    save_net,
    utc_timestamp,
    write_convergence_csv,
    write_curvature_csv,
    write_obj,
    write_summary,
)
from gtplateau.patch import ControlNet, FundamentalForms, Patch, mean_curvature_grid, triangulate_grid


class TestNetRoundTrip:
    def test_partial_net(self, wave_net, tmp_path):
        target = tmp_path / "net.json"
        save_net(wave_net, target)
        loaded = load_net(target)
        np.testing.assert_array_equal(loaded.points, wave_net.points)
        np.testing.assert_array_equal(loaded.fixed, wave_net.fixed)
        payload = json.loads(target.read_text())
        assert payload["degrees"] == [3, 3]
        assert payload["points"][1][1] is None
        assert "fixed" not in payload

    def test_save_load_save_is_stable(self, dome_net, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_net(dome_net, first)
        save_net(load_net(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_explicit_mask_survives(self, tmp_path):
        # a finite point deliberately left free must keep its flag
        points = np.zeros((4, 4, 3))
        fixed = np.ones((4, 4), dtype=bool)
        fixed[2, 2] = False
        net = ControlNet(points=points, fixed=fixed)
        target = tmp_path / "masked.json"
        save_net(net, target)
        payload = json.loads(target.read_text())
        assert payload["fixed"][2][2] is False
        loaded = load_net(target)
        np.testing.assert_array_equal(loaded.fixed, fixed)
        assert loaded.points[2, 2].tolist() == [0.0, 0.0, 0.0]


#: Doubles a JSON round trip could lose: signed zeros, the smallest subnormal,
#: the largest finite value and an integer-valued float past 2**53.
NET_DOUBLES = (0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 2.0**53 + 1)


@st.composite
def nets(draw):
    """Random nets from 2x2 to 7x7: null (unknown) cells, and known points
    that are free as well as fixed."""
    shape = (draw(st.integers(2, 7)), draw(st.integers(2, 7)))
    cells = st.one_of(st.sampled_from(NET_DOUBLES), st.floats(allow_nan=False, allow_infinity=False))
    points = draw(hnp.arrays(np.float64, shape + (3,), elements=cells))
    known = draw(hnp.arrays(np.bool_, shape))
    fixed = known & draw(hnp.arrays(np.bool_, shape))
    points[~known] = np.nan
    return ControlNet(points=points, fixed=fixed)


def edge_net():
    """Every double of NET_DOUBLES, fixed and known-but-free, around one unknown point."""
    points = np.resize(np.array(NET_DOUBLES), (3, 3, 3))
    points[1, 1] = np.nan
    fixed = np.isfinite(points).all(axis=-1)
    fixed[0, 1] = False
    return ControlNet(points=points, fixed=fixed)


@settings(max_examples=100, deadline=None)
@given(nets())
@example(edge_net())
def test_net_json_round_trip_is_bitwise(tmp_path_factory, net):
    target = tmp_path_factory.getbasetemp() / "round_trip.json"
    save_net(net, target)
    loaded = load_net(target)
    assert loaded.points.tobytes() == net.points.tobytes()  # every bit, sign bits included
    np.testing.assert_array_equal(loaded.fixed, net.fixed)


class TestLoadErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_net(tmp_path / "absent.json")

    def test_invalid_json_names_location(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"points": [\n  [[0, 0, 0]],\n')
        with pytest.raises(NetFormatError, match="invalid JSON at line"):
            load_net(bad)

    def test_unreadable_file_names_path(self, malformed_net_file):
        with pytest.raises(NetFormatError, match=malformed_net_file.name):
            load_net(malformed_net_file)

    @pytest.mark.parametrize(
        "payload,fragment",
        [
            ([1, 2], "top level"),
            ({}, "missing required key 'points'"),
            ({"points": "grid"}, "at least 2 rows"),
            ({"points": [[[0, 0, 0]]]}, "at least 2 rows"),
            (
                {"points": [[[0, 0, 0], [1, 0, 0]], [[0, 1, 0]]]},
                "row 1 has 1 entries, expected 2",
            ),
            ({"points": [[[0, 0], None], [None, None]]}, r"point \[0\]\[0\]"),
            ({"points": [[[0, 0, "x"], None], [None, None]]}, r"point \[0\]\[0\]"),
            ({"points": [[[0, 0, True], None], [None, None]]}, r"point \[0\]\[0\]"),
            (
                {"points": [[[0, 0, 0], [1, 0, 0]], [[0, 1, 0], [1, 1, 0]]], "degrees": [3, 3]},
                "do not match",
            ),
            (
                {"points": [[[0, 0, 0], [1, 0, 0]], [[0, 1, 0], [1, 1, 0]]], "fixed": [[True]]},
                "'fixed' must be",
            ),
            (
                {
                    "points": [[[0, 0, 0], [1, 0, 0]], [[0, 1, 0], [1, 1, 0]]],
                    "fixed": [[1, 1], [1, 1]],
                },
                "'fixed' must be",
            ),
            (
                {
                    "points": [[[0, 0, 0], None], [[0, 1, 0], [1, 1, 0]]],
                    "fixed": [[True, True], [True, True]],
                },
                "finite coordinates",
            ),
            # JSON's NaN, Infinity and overflowing literals decode to non-finite floats
            (
                {"points": json.loads("[[[0,0,0],[1,0,0],[2,0,0]], [[0,1,0],[1,1,NaN],[2,1,0]],"
                                      " [[0,2,0],[1,2,0],[2,2,0]]]")},
                r"point \[1\]\[1\] must be null or a list of 3 finite numbers",
            ),
            (
                {"points": json.loads("[[[0,0,0],[1,0,1e400],[2,0,0]], [[0,1,0],null,[2,1,0]],"
                                      " [[0,2,0],[1,2,0],[2,2,-Infinity]]]")},
                r"point \[0\]\[1\] must be null or a list of 3 finite numbers",
            ),
            # true and 1.0 equal 1 in Python, but degrees are JSON integers
            *(
                ({"points": [[[0, 0, 0], [1, 0, 0]], [[0, 1, 0], [1, 1, 0]]], "degrees": degrees},
                 r"do not match the 2x2 point grid, whose degrees are the integers \[1, 1\]")
                for degrees in ([1, True], [True, True], [1.0, 1.0])
            ),
        ],
    )
    def test_payload_validation(self, payload, fragment):
        with pytest.raises(NetFormatError, match=fragment):
            net_from_payload(payload)

    def test_integer_degrees_load(self):
        payload = {"points": [[[0, 0, 0], [1, 0, 0]], [[0, 1, 0], [1, 1, 0]]], "degrees": [1, 1]}
        assert net_from_payload(payload).points.shape == (2, 2, 3)

    def test_source_appears_in_message(self):
        with pytest.raises(NetFormatError, match="my-net.json"):
            net_from_payload([], source="my-net.json")


class TestWriters:
    def test_obj_text(self, tmp_path):
        target = tmp_path / "mesh.obj"
        vertices = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.25, 1.0, -2.0]])
        faces = np.array([[0, 1, 2]])
        write_obj(target, vertices, faces)
        assert target.read_text() == (
            "v 0 0 0\nv 1 0 0\nv 0.25 1 -2\nf 1 2 3\n"
        )

        edge = tmp_path / "edge.obj"
        vertices = np.array([[np.nan, -0.0, 1e-300], [1.5e300, -2.5, 3.0]])
        write_obj(edge, vertices, np.array([[1, 0, 1]]))
        assert edge.read_text() == (
            "v nan -0 1e-300\nv 1.5000000000000001e+300 -2.5 3\nf 2 1 2\n"
        )

    @pytest.mark.parametrize("index", [-1, 3])
    def test_obj_face_outside_the_vertices(self, tmp_path, index):
        # a gather would wrap -1 to the last vertex; both ends are refused
        target = tmp_path / "mesh.obj"
        with pytest.raises(ConfigurationError, match=r"\[0, 3\)"):
            write_obj(target, np.zeros((3, 3)), np.array([[0, 1, 2], [0, index, 2]]))
        assert not target.exists()

    def test_obj_shared_face_block(self, tmp_path):
        # a block formatted once gives the array's bytes, and only on its vertex count
        vertices = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.25, 1.0, -2.0]])
        faces = np.array([[0, 1, 2], [2, 1, 0]])
        write_obj(tmp_path / "array.obj", vertices, faces)
        write_obj(tmp_path / "block.obj", vertices, _face_block(faces, len(vertices)))
        assert (tmp_path / "block.obj").read_bytes() == (tmp_path / "array.obj").read_bytes()
        with pytest.raises(ConfigurationError, match="face block is for 4 vertices, not 3"):
            write_obj(tmp_path / "other.obj", vertices, _face_block(faces, 4))
        assert not (tmp_path / "other.obj").exists()

    def test_curvature_csv(self, tmp_path):
        points = np.stack(
            np.broadcast_arrays(
                np.arange(3.0)[:, None], np.arange(3.0)[None, :], np.zeros((1, 1))
            ),
            axis=-1,
        )
        us, vs, forms = mean_curvature_grid(
            Patch.bernstein(ControlNet(points=points)), 4
        )
        target = tmp_path / "curvature.csv"
        write_curvature_csv(target, us, vs, forms)
        lines = target.read_text().splitlines()
        assert lines[0] == "u,v,H,E,F,G"
        assert len(lines) == 1 + 16
        # row-major in u: second row holds u=0, v=1/3
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"

        zeros = np.zeros((1, 2))
        forms = FundamentalForms(
            E=np.array([[1e-300, 2.0]]),
            F=np.array([[-0.0, 0.5]]),
            G=np.array([[3.0, 1.5e300]]),
            L=zeros, M=zeros, N=zeros,
            H=np.array([[np.nan, -0.0]]),
        )
        edge = tmp_path / "edge.csv"
        write_curvature_csv(edge, [0.25], [0.0, 1.0], forms)
        assert edge.read_text().splitlines()[1:] == [
            "0.25,0,nan,1e-300,-0,3",
            "0.25,1,-0,2,0.5,1.5000000000000001e+300",
        ]

    def test_convergence_csv(self, tmp_path):
        target = tmp_path / "convergence.csv"
        write_convergence_csv(target, [3.5, 2.0, 2.0])
        assert target.read_text() == "iteration,best_value\n0,3.5\n1,2\n2,2\n"

    def test_float_format_round_trips(self, tmp_path):
        # 17 significant digits reproduce the double exactly
        target = tmp_path / "c.csv"
        value = 38.84292521991595
        write_convergence_csv(target, [value])
        printed = target.read_text().splitlines()[1].split(",")[1]
        assert float(printed) == value and len(printed) >= 17



def percent_lines(template, rows):
    """Python's own text of ``template % row`` for every row, one per line."""
    return "".join(template % tuple(row) + "\n" for row in rows)


def doubles_of_bits(bits):
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


def dyadic_ties():
    """Doubles q / 2**(17 - X) with q odd: their decimal expansion has exactly
    18 significant digits, the last a 5, so "%.17g" must round half to even."""

    def ties(exponent):
        places = 17 - exponent
        low, high = 10.0**exponent * 2**places, min(10.0 ** (exponent + 1) * 2**places, 2.0**53)
        return st.integers(int(low) // 2, int(high) // 2 - 1).map(lambda n: (2 * n + 1) / 2**places)

    return st.integers(-8, 15).flatmap(ties)


#: Both sides of the switch to exponent notation (X = -5 | -4 and 16 | 17), and
#: every power of ten the array path covers and a few past it, each +-1 ulp.
EDGE_DOUBLES = np.array(
    [m * 10.0**e for e in (-5, -4, 16, 17) for m in (1.0, 1.2345678901234567, 9.999999999999998)]
    + [10.0**p for p in range(-110, 111)]
    + [1e16 - 2, 1e16 + 2, 1e17 - 16, 1e17 + 16, 99999999999999984.0, 0.5, 2.5, 1000000000000000.2]
    + [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
)
with np.errstate(over="ignore"):  # the largest double steps up to inf
    EDGE_DOUBLES = np.concatenate(
        [EDGE_DOUBLES, -EDGE_DOUBLES, np.nextafter(EDGE_DOUBLES, 0), np.nextafter(EDGE_DOUBLES, np.inf)]
    )


def array_table(*tables, **kwargs):
    """format_table with every table on the numpy byte-array path, however small."""
    with mock.patch.object(io_module, "_ARRAY_MIN_CELLS", 0):
        return format_table(*tables, **kwargs)


class TestFormatTable:
    """format_table writes every number byte for byte as Python's "%" does."""

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(0, 64), elements=st.floats(allow_subnormal=True)))
    def test_any_double(self, values):
        assert array_table(values) == percent_lines("%.17g", values[:, None].tolist())

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.uint64, st.integers(1, 64)))
    def test_any_bit_pattern(self, bits):
        values = doubles_of_bits(bits)
        assert array_table(values) == percent_lines("%.17g", values[:, None].tolist())

    @settings(max_examples=100, deadline=None)
    @given(st.lists(dyadic_ties(), min_size=1, max_size=32))
    def test_exact_ties_round_half_even(self, ties):
        assert array_table(np.array(ties)) == percent_lines("%.17g", [[x] for x in ties])

    def test_edge_doubles(self):
        assert array_table(EDGE_DOUBLES) == percent_lines("%.17g", EDGE_DOUBLES[:, None].tolist())
        assert "%.17g" % 1000000000000000.25 == "1000000000000000.2"  # a tie in the list
        assert array_table(np.array([1000000000000000.25, 1000000000000000.75])) == (
            "1000000000000000.2\n1000000000000000.8\n"
        )

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-(2**53), 2**53), min_size=1, max_size=64))
    @example([0, 1, -1, 9, 10, 9999, 10000, 2**40, -(2**40), 10**15, 2**53 - 1, 2**53, -(2**53)])
    def test_integers_print_as_their_doubles(self, ints):
        # up to 2**53 an integer is its double exactly, and "%.17g" of an
        # integral double below 10**17 is "%d"'s text
        expected = percent_lines("%d", [[n] for n in ints])
        assert array_table(np.array(ints, dtype=np.int64)) == expected
        assert array_table(np.array(ints, dtype=float)) == expected

    def test_tables_and_blocks(self):
        # mixed int and float tables, a head, and more rows than one block
        rows = 2 * io_module._BLOCK_ROWS + 5
        rng = np.random.default_rng(3)
        ints = rng.integers(-5, 10**6, rows)
        doubles = rng.standard_normal((rows, 2)) * 10.0 ** rng.integers(-12, 20, (rows, 2))
        expected = percent_lines("x %d;%.17g;%.17g", np.column_stack([ints, doubles]).tolist())
        # column_stack made the ints floats; %d of an integral float prints the same
        assert format_table(ints, doubles, sep=";", head="x ") == expected
        assert format_table(np.zeros((0, 3))) == ""

    def test_python_fallback_is_byte_identical(self, monkeypatch):
        # with no margin to a tie, every value is formatted by Python
        values = np.concatenate([EDGE_DOUBLES, np.random.default_rng(5).standard_normal(500)])
        expected = format_table(values)
        formatted = []
        python_format = io_module._python_format

        def counted(numbers, out, slow):
            formatted.append(int(np.count_nonzero(slow)))
            python_format(numbers, out, slow)

        monkeypatch.setattr(io_module, "_TIE_MARGIN", 0.0)
        monkeypatch.setattr(io_module, "_python_format", counted)
        assert format_table(values) == expected
        assert sum(formatted) == len(values)


class TestSmallTables:
    """Tables below ``_ARRAY_MIN_CELLS`` cells are formatted by Python, the
    rest on the array path; both give the per-row reference's bytes."""

    @settings(max_examples=100, deadline=None)
    @given(
        hnp.arrays(np.float64, st.tuples(st.integers(0, io_module._ARRAY_MIN_CELLS // 2), st.integers(1, 3)),
                   elements=st.floats(allow_subnormal=True)),
        st.data(),
    )
    def test_either_side_of_the_threshold(self, doubles, data):
        rows, columns = doubles.shape
        ints = data.draw(hnp.arrays(np.int64, rows, elements=st.integers(-(2**53), 2**53)))
        slow = []
        python_format = io_module._python_format

        def counted(numbers, out, where):
            slow.append(int(np.count_nonzero(where)))
            python_format(numbers, out, where)

        with mock.patch.object(io_module, "_python_format", counted):
            text = format_table(ints, doubles, sep=";", head="x ")
        reference = np.empty((rows, columns + 1), dtype=object)  # Python ints and floats
        reference[:, 0], reference[:, 1:] = ints, doubles
        assert text == _format_rows("x %d" + ";%.17g" * columns + "\n", reference)
        if rows * (columns + 1) < io_module._ARRAY_MIN_CELLS:
            assert sum(slow) == rows * (columns + 1)

    def test_convergence_csv_of_a_short_swarm(self, tmp_path):
        history = np.array([3.25, 1.0 / 3.0, 1e-300, -0.0, 38.428812345678901])
        target = tmp_path / "convergence.csv"
        write_convergence_csv(target, history)
        expected = _format_rows("%d,%.17g\n", np.array([list(range(5)), history.tolist()], dtype=object).T)
        assert target.read_text() == "iteration,best_value\n" + expected


class TestWritersMatchReference:
    """The writers give the text of the per-row ``%`` formatter they replaced."""

    def test_obj_on_a_129_grid(self, tmp_path):
        rng = np.random.default_rng(129)
        vertices = rng.standard_normal((129 * 129, 3)) * 10.0 ** rng.integers(-9, 9, (129 * 129, 3))
        vertices[:2] = [[np.nan, -0.0, 1e-300], [1.5e300, -2.5, 3.0]]
        faces = rng.integers(0, 129 * 129, (2 * 128 * 128, 3))
        faces[0] = [0, 129 * 129 - 1, 1]  # both ends of the vertex range
        target = tmp_path / "surface.obj"
        write_obj(target, vertices, faces)
        assert target.read_text() == obj_text(vertices, faces)

    def test_curvature_on_a_129_grid(self, tmp_path):
        rng = np.random.default_rng(128)
        shape = (129, 129)
        e, g = rng.random(shape) * 4.0, rng.random(shape) * 1e-3
        f = rng.uniform(-1.0, 1.0, shape) * np.sqrt(e * g)
        h = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 6, shape)
        e[0, :2], f[0, :2], g[0, :2], h[0, :2] = [1e-300, 2.0], [-0.0, 0.5], [3.0, 1.5e300], [np.nan, -0.0]
        zeros = np.zeros(shape)
        forms = FundamentalForms(E=e, F=f, G=g, L=zeros, M=zeros, N=zeros, H=h)
        us, vs = np.sort(rng.random(129)), np.linspace(0.0, 1.0, 129)
        target = tmp_path / "curvature.csv"
        write_curvature_csv(target, us, vs, forms)
        assert target.read_text() == curvature_text(us, vs, forms)


class TestNarrowCells:
    """``_cells`` gives each number the fewest whole words that hold its text and
    a spare byte, and the writers gather them into the reference's bytes."""

    @staticmethod
    def texts(cells):
        return [bytes(row).replace(b"\0", b"").decode("ascii") for row in cells]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.integers(0, 10**7 - 1), st.integers(-(2**53), 2**53)), min_size=1, max_size=64))
    @example([0, 9, 10, 9999, 10000, 10001, 99999, 10**6, 10**7 - 1])
    @example([1, 10**7])
    @example([-1, 5])
    def test_integer_cells_are_percent_d(self, ints):
        cells = io_module._cells(np.array(ints, dtype=np.int64))
        # one word each when every integer lies in [0, 10**7), else the doubles' cells cut short
        assert cells.shape[1] % 8 == 0
        if all(0 <= n < 10**7 for n in ints):
            assert cells.shape[1] == 8
        assert not cells[:, -1].any()
        assert self.texts(cells) == ["%d" % n for n in ints]

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(1, 32), elements=st.floats(allow_subnormal=True)))
    @example(np.array([1.5e100]))  # Python's text, 8 bytes: its cell takes a second word
    @example(np.array([0.5, -1e-100, 1.0 / 3.0]))
    def test_double_cells_keep_a_spare_byte(self, values):
        cells = io_module._cells(values)
        assert cells.shape[1] % 8 == 0 and not cells[:, -1].any()
        assert self.texts(cells) == ["%.17g" % x for x in values.tolist()]

    @pytest.mark.parametrize("tess", [1, 2, 99, 100])
    def test_face_block_is_the_reference_face_text(self, tess):
        # tess 99 has exactly 10**4 vertices, the first 5-digit vertex number
        vertices, faces = triangulate_grid(np.zeros((tess + 1, tess + 1, 3)))
        block = _face_block(faces, len(vertices))
        assert block.text == obj_text(np.zeros((0, 3)), faces)

    @pytest.mark.parametrize(
        "params, width",
        [
            ([0.0, 0.5, 1.0], 8),
            ([0.0, 1e-5, 0.5, 1.0], 48),
            ([1.0 / 3.0, 0.1, 0.75], 40),
            (np.linspace(0.0, 1.0, 129), 24),
            ([0.0, 2.0**-20, 1e-300, 1.0], 48),
        ],
    )
    def test_curvature_parameter_cells(self, tmp_path, params, width):
        # texts of different lengths, fixed and exponent notation, in one column
        assert io_module._cells(params).shape == (len(params), width)
        rng = np.random.default_rng(len(params))
        shape = (len(params), 3)
        e, g = rng.random(shape), rng.random(shape)
        forms = FundamentalForms(
            E=e, F=rng.uniform(-1.0, 1.0, shape) * np.sqrt(e * g), G=g,
            L=np.zeros(shape), M=np.zeros(shape), N=np.zeros(shape), H=rng.standard_normal(shape),
        )
        vs = [1e-5, 0.25, 1.0]
        target = tmp_path / "curvature.csv"
        write_curvature_csv(target, params, vs, forms)
        assert target.read_text() == curvature_text(params, vs, forms)


class TestTimestamp:
    def test_epoch_override(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        assert utc_timestamp() == "1970-01-01T00:00:00Z"
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "86400")
        assert utc_timestamp() == "1970-01-02T00:00:00Z"
        # the first second of year 1: ISO 8601 pads the year to four digits
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "-62135596800")
        assert utc_timestamp() == "0001-01-01T00:00:00Z"

    def test_invalid_epoch(self, monkeypatch):
        # not an integer; past the platform's time_t; before year 1
        for stamp in ("yesterday", "99999999999999999999", "-99999999999999"):
            monkeypatch.setenv("SOURCE_DATE_EPOCH", stamp)
            with pytest.raises(ConfigurationError, match=f"SOURCE_DATE_EPOCH .* got '{stamp}'"):
                utc_timestamp()

    def test_live_clock_format(self, monkeypatch):
        monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
        import datetime

        datetime.datetime.strptime(utc_timestamp(), "%Y-%m-%dT%H:%M:%SZ")


class TestRunSummary:
    def test_round_trip(self, monkeypatch, tmp_path):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        settings = {"quad": 32, "basis": "bernstein"}
        results = {"energy": 39.220659340659346, "area": 38.84292521991595}
        target = tmp_path / "summary.json"
        write_summary(target, "solve", utc_timestamp(), settings, results)
        text = target.read_text()
        assert text.endswith("}\n")
        payload = json.loads(text)
        assert payload["command"] == "solve"
        assert payload["timestamp"] == "1970-01-01T00:00:00Z"
        assert payload["results"]["area"] == 38.84292521991595
        assert list(payload) == ["command", "timestamp", "settings", "results"]
        assert text == json.dumps(payload, indent=2) + "\n"


class TestAtomicWrite:
    def test_writes_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "payload\n")
        assert target.read_text() == "payload\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_failure_cleans_up_and_preserves_target(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "original\n")
        with pytest.raises(TypeError):
            atomic_write_text(target, 12345)  # not a string
        assert target.read_text() == "original\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_net_payload_skips_mask_when_implied(self, wave_net):
        assert "fixed" not in net_to_payload(wave_net)
