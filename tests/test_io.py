"""Net files, mesh/CSV writers, timestamps, and atomic output."""

import json
import os

import numpy as np
import pytest

from gtplateau.errors import ConfigurationError, NetFormatError
from gtplateau.io import (
    RunSummary,
    atomic_write_text,
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
from gtplateau.patch import ControlNet, FundamentalForms, Patch, mean_curvature_grid


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


class TestLoadErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_net(tmp_path / "absent.json")

    def test_invalid_json_names_location(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"points": [\n  [[0, 0, 0]],\n')
        with pytest.raises(NetFormatError, match="invalid JSON at line"):
            load_net(bad)

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
        ],
    )
    def test_payload_validation(self, payload, fragment):
        with pytest.raises(NetFormatError, match=fragment):
            net_from_payload(payload)

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
        write_obj(edge, vertices, np.array([[0, 1, 2**40]]))
        assert edge.read_text() == (
            "v nan -0 1e-300\nv 1.5000000000000001e+300 -2.5 3\nf 1 2 1099511627777\n"
        )

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


class TestTimestamp:
    def test_epoch_override(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        assert utc_timestamp() == "1970-01-01T00:00:00Z"
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "86400")
        assert utc_timestamp() == "1970-01-02T00:00:00Z"

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
        summary = RunSummary(
            command="solve",
            settings={"quad": 32, "basis": "bernstein"},
            results={"energy": 39.220659340659346, "area": 38.84292521991595},
        )
        text = summary.to_json()
        assert text.endswith("}\n")
        payload = json.loads(text)
        assert payload["command"] == "solve"
        assert payload["timestamp"] == "1970-01-01T00:00:00Z"
        assert payload["results"]["area"] == 38.84292521991595

        target = tmp_path / "summary.json"
        write_summary(summary, target)
        assert target.read_text() == text


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
