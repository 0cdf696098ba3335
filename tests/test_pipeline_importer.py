"""Unit tests for the measurement CSV importer."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import FrameError, ReproError
from repro.frames import Frame, read_csv_text, to_csv_text, write_csv
from repro.netsim.ids import Prefix
from repro.pipeline import (
    detect_crossings_from_hops,
    import_csv,
    load_ixp_prefixes,
    normalise_measurements,
    run_ixp_study,
)
from tests.oracle import (
    assert_frames_identical,
    oracle_normalise_measurements,
    oracle_read_csv_text,
)

PREFIXES = {"NAPAfrica-JNB": [Prefix.parse("196.60.8.0/24")]}


def raw_frame() -> Frame:
    return Frame.from_dict(
        {
            "asn": [3741, 3741, 37053],
            "city": ["East London", "East London", "Cape Town"],
            "time_hour": [0.5, 25.0, 1.0],
            "rtt_ms": [30.0, 28.0, 45.0],
            "hop_ips": [
                "10.0.1.1|10.0.2.1",
                "10.0.1.1|196.60.8.7|10.0.3.1",
                "10.0.4.1|*",
            ],
        }
    )


class TestHopMatching:
    def test_crossing_detected(self):
        assert detect_crossings_from_hops(
            "10.0.0.1|196.60.8.9", load_ixp_prefixes({"NAP": ["196.60.8.0/24"]})
        ) == ["NAP"]

    def test_no_crossing(self):
        assert detect_crossings_from_hops("10.0.0.1", PREFIXES) == []

    def test_unparseable_hops_skipped(self):
        assert detect_crossings_from_hops("*|?|196.60.8.3", PREFIXES) == [
            "NAPAfrica-JNB"
        ]
        assert detect_crossings_from_hops("*|*|10.0.0.1|*", PREFIXES) == []

    def test_each_ixp_once(self):
        hops = "196.60.8.1|196.60.8.2"
        assert detect_crossings_from_hops(hops, PREFIXES) == ["NAPAfrica-JNB"]


class TestNormalisation:
    def test_derives_unit_day_and_crossings(self):
        out = normalise_measurements(raw_frame(), PREFIXES)
        rows = list(out.iter_rows())
        assert rows[0]["unit"] == "AS3741/East London"
        assert rows[1]["day"] == 1
        assert rows[1]["ixps"] == "NAPAfrica-JNB"
        assert rows[1]["crosses_ixp"] in (True, 1)
        assert rows[0]["ixps"] == ""

    def test_fills_optional_columns(self):
        out = normalise_measurements(raw_frame(), PREFIXES)
        assert set(out.column_names) >= {
            "unit",
            "day",
            "ixps",
            "crosses_ixp",
            "trigger",
            "server_site",
            "as_path",
        }

    def test_missing_required_column(self):
        bad = raw_frame().drop("rtt_ms")
        with pytest.raises(FrameError, match="missing required"):
            normalise_measurements(bad, PREFIXES)

    def test_non_numeric_rtt_rejected(self):
        bad = raw_frame().with_column("rtt_ms", ["a", "b", "c"])
        with pytest.raises(FrameError):
            normalise_measurements(bad, PREFIXES)

    def test_all_missing_rows_rejected(self):
        empty = Frame.from_dict(
            {
                "asn": [3741, 37053],
                "city": ["X", "Y"],
                "time_hour": [None, 1.0],
                "rtt_ms": [10.0, None],
            }
        )
        with pytest.raises(FrameError, match="no complete"):
            normalise_measurements(empty, PREFIXES)

    def test_no_prefixes_yields_empty_crossings(self):
        out = normalise_measurements(raw_frame())
        assert all(r["ixps"] == "" for r in out.iter_rows())


class TestAsnValidation:
    HEADER = "asn,city,time_hour,rtt_ms\n"

    def _import(self, tmp_path, asn):
        path = tmp_path / "m.csv"
        path.write_text(f"{self.HEADER}{asn},Durban,1,20.5\n3741,Durban,2,21.0\n")
        return import_csv(path)

    @pytest.mark.parametrize(
        "asn, shown",
        [("abc", "'abc'"), ("true", "True"), ("-5", "-5"), ("1e23", "1e\\+23"),
         ("4294967296", "4294967296"), ("inf", "inf"), ("12.5", "12.5")],
    )
    def test_non_asn_values_raise_a_frame_error(self, tmp_path, asn, shown):
        with pytest.raises(FrameError, match=f"column 'asn' .*got {shown}$"):
            self._import(tmp_path, asn)

    @pytest.mark.parametrize(
        "asn, unit", [("3741.0", "AS3741/Durban"), ("0", "AS0/Durban"),
                      ("4294967295", "AS4294967295/Durban")],
    )
    def test_integral_values_in_range_are_asns(self, tmp_path, asn, unit):
        assert list(self._import(tmp_path, asn)["unit"])[0] == unit


#: Per-column cells: mostly well-formed, with the malformed values each
#: column has been seen to receive.
_CELLS = {
    "asn": ["3741", "3741.0", "0", "-5", "1e23", "4294967296", "abc", "true", ""],
    "city": ["Durban", "Cape Town", "7", "true", ""],
    "time_hour": ["1", "25.5", "48", "inf", "nan", "x", ""],
    "rtt_ms": ["20.5", "7", "-1", "nan", "abc", ""],
    "hop_ips": ["196.60.8.9|10.0.0.1", "10.0.0.1", "*|²", '"a,b"', ""],
    "trigger": ["user", "1", ""],
}


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    st.permutations(list(_CELLS)),
    st.sets(st.sampled_from(list(_CELLS)), max_size=2),
    st.data(),
)
def test_import_csv_raises_only_repro_errors(tmp_path, columns, dropped, data):
    header = [c for c in columns if c not in dropped]
    rows = data.draw(
        st.lists(
            st.tuples(*(st.sampled_from(_CELLS[c]) for c in header)), max_size=6
        )
    )
    path = tmp_path / "fuzz.csv"
    lines = [",".join(header)] + [",".join(row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    try:
        import_csv(path, PREFIXES)
    except ReproError:
        pass


class TestRoundTripThroughPipeline:
    def test_csv_import_feeds_study(self, tmp_path, small_scenario, small_frame):
        """Export simulated data to CSV, re-import, and re-run the study:
        the result must match the in-memory run."""
        in_memory = run_ixp_study(small_frame, small_scenario.ixp_name)

        csv_path = tmp_path / "mlab_export.csv"
        export = small_frame.select(
            ["asn", "city", "time_hour", "rtt_ms", "ixps", "trigger"]
        )
        write_csv(export, csv_path)
        imported = import_csv(csv_path)
        re_run = run_ixp_study(imported, small_scenario.ixp_name)

        assert {r.unit for r in re_run.rows} == {r.unit for r in in_memory.rows}
        by_unit = {r.unit: r for r in in_memory.rows}
        for row in re_run.rows:
            assert row.rtt_delta_ms == pytest.approx(
                by_unit[row.unit].rtt_delta_ms, abs=1e-6
            )


class TestMalformedHops:
    def test_non_ascii_digit_octet_is_skipped(self):
        assert detect_crossings_from_hops("196.60.8.²|196.60.8.3", PREFIXES) == [
            "NAPAfrica-JNB"
        ]

    def test_programming_errors_propagate(self, monkeypatch):
        def broken(self, address):
            raise TypeError("bug in the matcher")

        monkeypatch.setattr(Prefix, "contains", broken)
        with pytest.raises(TypeError, match="bug in the matcher"):
            detect_crossings_from_hops("196.60.8.3", PREFIXES)


class TestColumnwiseMatchesRowwise:
    """``normalise_measurements`` against the row-wise oracle."""

    def test_generated_frame(self, small_frame):
        assert_frames_identical(
            normalise_measurements(small_frame),
            oracle_normalise_measurements(small_frame),
        )

    def test_csv_round_trip_of_generated_frame(self, small_frame):
        text = to_csv_text(small_frame)
        assert_frames_identical(read_csv_text(text), oracle_read_csv_text(text))

    def test_missing_required_cells_and_float_asn(self):
        text = (
            "asn,city,time_hour,rtt_ms,trigger\n"
            "3741.0,East London,0.5,30.0,baseline\n"
            ",East London,1.5,31.0,baseline\n"
            "37053.0,Cape Town,,45.0,\n"
            "37053.0,,2.0,40.0,x\n"
            "3741.0,East London,25.0,,\n"
            "37053.0,Cape Town,49.0,41.0,baseline\n"
            "3741.0,East London,47.9,29.0,baseline\n"
        )
        raw = read_csv_text(text)
        assert raw.column("asn").kind == "float"
        out = normalise_measurements(raw)
        assert_frames_identical(out, oracle_normalise_measurements(raw))
        assert out["unit"].tolist() == [
            "AS3741/East London", "AS37053/Cape Town", "AS3741/East London",
        ]
        assert out["day"].tolist() == [0, 2, 1]

    def test_hop_ips_with_prefix_mapping(self):
        prefixes = load_ixp_prefixes(
            {"NAPAfrica-JNB": ["196.60.8.0/24"], "NAPAfrica-CPT": ["196.10.140.0/24"]}
        )
        hops = [
            "10.0.1.1|10.0.2.1",
            "10.0.1.1|196.60.8.7|10.0.3.1",
            "*|196.10.140.2|196.60.8.9",
            "",
            "10.0.4.1|*",
        ]
        lines = ["asn,city,time_hour,rtt_ms,hop_ips"]
        for i in range(60):
            lines.append(
                f"{3741 + i % 3},City{i % 4},{i * 1.7},{20 + i % 7},{hops[i % 5]}"
            )
        raw = read_csv_text("\n".join(lines) + "\n")
        out = normalise_measurements(raw, prefixes)
        assert_frames_identical(out, oracle_normalise_measurements(raw, prefixes))
        assert set(out["ixps"]) == {"", "NAPAfrica-JNB", "NAPAfrica-CPT,NAPAfrica-JNB"}

    def test_non_finite_time_hour_is_a_typed_error(self):
        # A finite hour whose day overflows int64 is as unusable as inf.
        for bad in ("inf", "-inf", "1e23", "-1e23", "2.2136092888451462e20"):
            raw = read_csv_text(
                f"asn,city,time_hour,rtt_ms\n1,A,{bad},3.0\n1,A,2.0,3.0\n"
            )
            with pytest.raises(FrameError, match="time_hour"):
                normalise_measurements(raw)
        # Large hours whose days still fit int64 import exactly.
        raw = read_csv_text(
            "asn,city,time_hour,rtt_ms\n1,A,1e17,3.0\n1,A,-2.2136092888451462e20,3.0\n"
        )
        out = normalise_measurements(raw)
        assert out["day"].tolist() == [int(1e17 // 24), -(2**63)]
        assert_frames_identical(out, oracle_normalise_measurements(raw))


def test_study_import_path_loads_no_scipy():
    """The import path and a robust study plus a stream run without scipy."""
    script = textwrap.dedent(
        """
        import sys
        import repro.frames.io, repro.mplatform, repro.netsim, repro.pipeline, repro.stream
        from repro.netsim import build_table1_scenario
        from repro.mplatform import measurements_frame
        from repro.pipeline import run_ixp_study
        from repro.stream import StreamStudy, slice_frame

        scenario = build_table1_scenario(n_donor_ases=6, duration_days=12, join_day=6, seed=0)
        frame = measurements_frame(scenario, rng=0)
        run_ixp_study(frame, scenario.ixp_name, method="robust")
        live = StreamStudy(scenario.ixp_name)
        for batch in slice_frame(frame, batch_hours=48.0):
            live.ingest(batch)
        live.finalize()
        print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
        """
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
