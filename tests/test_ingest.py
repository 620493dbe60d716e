import csv
import io
from datetime import datetime, timedelta, timezone
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from countnet import hawkes
from countnet.ingest import EventLog, aggregate, clean, read_event_csv


def log_of(times, codes=None, t0=0.0, t1=None, labels=("a",)):
    times = np.asarray(times, dtype=float)
    if codes is None:
        codes = np.zeros(len(times), dtype=np.int64)
    if t1 is None:
        t1 = float(times.max()) if times.size else t0
    return EventLog(times, codes, t0, t1, list(labels))


class TestAggregate:
    def test_hand_binning(self):
        series = aggregate(log_of([0.05, 0.07, 0.15], t1=0.2), dt=0.1)
        assert series.counts[:, 0].tolist() == [2, 1]

    def test_boundary_event_goes_to_later_bin(self):
        series = aggregate(log_of([0.1], t1=0.2), dt=0.1)
        assert series.counts[:, 0].tolist() == [0, 1]

    def test_event_at_window_end_lands_in_last_bin(self):
        series = aggregate(log_of([0.2], t1=0.2), dt=0.1)
        assert series.counts.shape[0] == 2
        assert series.counts[:, 0].tolist() == [0, 1]

    def test_step_count_at_fine_resolution(self):
        # 0.1-hour bins over a ~328.5-day window
        series = aggregate(log_of([0.0, 7883.15], t1=7883.2), dt=0.1)
        assert series.n_steps == 78832

    def test_empty_log_zero_series(self):
        log = EventLog(np.array([]), [], 0.0, 1.0, ["a", "b"])
        series = aggregate(log, dt=0.25)
        assert series.counts.shape == (4, 2)
        assert series.counts.sum() == 0

    def test_multiple_nodes_use_label_order(self):
        log = log_of([0.05, 0.15, 0.16], codes=[1, 0, 1], t1=0.2, labels=["a", "b"])
        series = aggregate(log, dt=0.1)
        assert series.node_labels == ["a", "b"]
        assert series.counts.tolist() == [[0, 1], [1, 1]]

    @given(
        times=st.lists(st.floats(0.0, 99.0), min_size=0, max_size=60),
        dt=st.floats(0.05, 5.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_count_conservation(self, times, dt):
        log = log_of(times, t1=100.0)
        series = aggregate(log, dt=dt)
        assert int(series.counts.sum()) == len(times)
        assert series.n_steps == int(np.ceil(100.0 / dt))


class TestClean:
    def test_input_log_unchanged(self):
        log = EventLog([1.0, 2.0, 3.0, 4.0, 30.0, 31.0, 40.0, 60.0], [0, 0, 0, 1, 1, 2, 1, 0], 0.0, 72.0,
                       ["a", "b", "c"])
        times, nodes = log.times.copy(), log.nodes.copy()
        cleaned, report = clean(log, min_node_total=2, dead_day_threshold=1)
        assert (report.removed_nodes, report.removed_days) == (["c"], [2])
        assert np.array_equal(log.times, times) and np.array_equal(log.nodes, nodes)
        assert (log.t0, log.t1, log.labels) == (0.0, 72.0, ["a", "b", "c"])
        assert cleaned.n_events == 6

    def test_node_threshold(self):
        times = np.arange(50) * 0.5
        codes = [0] * 45 + [1] * 5
        log, report = clean(log_of(times, codes, t1=25.0, labels=["busy", "quiet"]), min_node_total=40)
        assert log.labels == ["busy"]
        assert report.removed_nodes == ["quiet"]
        assert log.n_events == 45

    def test_node_threshold_counts(self):
        # 10 nodes, node k holds k+35 events: exactly those below 40 drop
        times, codes = [], []
        t = 0.0
        for k in range(10):
            for _ in range(35 + k):
                times.append(t)
                t += 0.01
                codes.append(k)
        labels = [f"n{k}" for k in range(10)]
        log, report = clean(log_of(np.array(times), codes, t1=10.0, labels=labels), min_node_total=40)
        assert sorted(report.removed_nodes) == [f"n{k}" for k in range(5)]
        assert len(log.labels) == 5

    def test_event_at_the_window_end_belongs_to_the_last_day(self):
        # a 2-day window: the event at t1 = 48 is day 1's, so day 1 holds two events and stays
        times = [1.0, 5.0, 30.0, 48.0]
        log, report = clean(log_of(times, t1=48.0), min_node_total=0, dead_day_threshold=1)
        assert report.removed_days == []
        assert (log.t1, log.times.tolist()) == (48.0, times)

    def test_dead_day_splicing(self):
        # 3-day log with an empty middle day: output spans 2 days
        times = [1.0, 5.0, 49.0, 60.0]
        log, report = clean(log_of(times, t1=72.0), min_node_total=0)
        assert report.removed_days == [1]
        assert log.t1 == 48.0
        assert np.allclose(log.times, [1.0, 5.0, 25.0, 36.0])

    def test_quiet_day_below_threshold_removed(self):
        times = [1.0, 2.0, 3.0, 30.0, 49.0, 50.0, 51.0]
        log, report = clean(log_of(times, t1=72.0), min_node_total=0, dead_day_threshold=1)
        # day 1 holds a single event: removed along with its event
        assert report.removed_days == [1]
        assert log.n_events == 6
        assert np.allclose(log.times, [1.0, 2.0, 3.0, 25.0, 26.0, 27.0])

    def test_no_dead_days_unchanged(self):
        times = [1.0, 30.0, 50.0]
        log, report = clean(log_of(times, t1=72.0), min_node_total=0, dead_day_threshold=0)
        assert np.array_equal(log.times, np.array(times))
        assert report.removed_days == []

    def test_idempotent_under_repeated_clean(self):
        gen = np.random.default_rng(5)
        times = np.sort(gen.uniform(0, 24.0 * 10, size=200))
        codes = gen.integers(0, 6, size=200)
        labels = [f"n{k}" for k in range(6)]
        log1, _ = clean(log_of(times, codes, t1=240.0, labels=labels),
                        min_node_total=25, dead_day_threshold=2)
        log2, report2 = clean(log1, min_node_total=25, dead_day_threshold=2)
        assert np.array_equal(log1.times, log2.times)
        assert np.array_equal(log1.nodes, log2.nodes)
        assert report2.removed_nodes == [] and report2.removed_days == []
        a = aggregate(log1, 0.5)
        b = aggregate(log2, 0.5)
        assert np.array_equal(a.counts, b.counts)

    def test_everything_removed_raises(self):
        with pytest.raises(ValueError, match="removed everything"):
            clean(log_of([1.0, 2.0], t1=3.0), min_node_total=10)

    def test_conservation_after_clean(self):
        gen = np.random.default_rng(9)
        times = np.sort(gen.uniform(0, 24.0 * 5, size=80))
        codes = gen.integers(0, 4, size=80)
        labels = [f"n{k}" for k in range(4)]
        log, report = clean(log_of(times, codes, t1=120.0, labels=labels),
                            min_node_total=15, dead_day_threshold=0)
        assert int(aggregate(log, 1.0).counts.sum()) == report.events_after


class TestReadEventCsv:
    def test_fractional_hours(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("timestamp,sender\n0.5,a\n1.25,b\n2.0,a\n")
        log = read_event_csv(path)
        assert log.n_events == 3
        assert log.labels == ["a", "b"]
        assert np.allclose(log.times, [0.5, 1.25, 2.0])

    def test_iso_timestamps_convert_to_hours(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text(
            "timestamp,sender,receiver\n"
            "2020-01-01T00:00:00,a,b\n"
            "2020-01-01T06:00:00,b,a\n"
            "2020-01-02T00:00:00,a,b\n"
        )
        log = read_event_csv(path)
        assert np.allclose(log.times, [0.0, 6.0, 24.0])
        assert log.labels == ["a", "b"]  # receiver column ignored

    def test_iso_timestamps_with_utc_offsets(self, tmp_path):
        # Python 3.10's fromisoformat reads none of the first two stamps' forms
        path = tmp_path / "events.csv"
        path.write_text(
            "timestamp,sender\n"
            "2020-01-01T00:00:00Z,a\n"
            "20200101T013000+00:00,b\n"
            "2020-01-01T03:00:00+01:00,a\n"
        )
        assert read_event_csv(path).times.tolist() == [0.0, 1.5, 2.0]

    def test_window_pinning(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("timestamp,sender\n5.0,a\n")
        log = read_event_csv(path, t0=0.0, t1=10.0)
        assert log.t0 == 0.0 and log.t1 == 10.0

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("justone\n1.0\n")
        with pytest.raises(ValueError):
            read_event_csv(path)

    def test_row_without_sender_names_its_line(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("timestamp,sender\n0.5,a\n1.0\n")
        with pytest.raises(ValueError, match=r"events\.csv: line 3: .*no sender"):
            read_event_csv(path)

    @pytest.mark.parametrize("rows, line", [
        (["0.5,a", "inf,b", "1.0,a"], 3),
        (["0.5,a", "1e400,b"], 3),
        (["nan,a", "1.0,b"], 2),
        (["0.5,a", "-inf,b"], 3),
    ])
    def test_non_finite_timestamp_names_its_line(self, tmp_path, rows, line):
        # inf used to load and fail in aggregate; nan failed as a bad window without a line
        path = tmp_path / "events.csv"
        path.write_text("timestamp,sender\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValueError, match=rf"events\.csv: line {line}: timestamp .* is not a finite"):
            read_event_csv(path)

    @pytest.mark.parametrize("rows, line", [
        (["0.5,a", "2020-01-01T06:00:00,b"], 3),
        (["2020-01-01T00:00:00,a", "2020-01-01T06:00:00,b", "1.5,a"], 4),
    ], ids=["hours-then-iso", "iso-then-hours"])
    def test_mixed_timestamp_formats_rejected(self, tmp_path, rows, line):
        path = tmp_path / "events.csv"
        path.write_text("timestamp,sender\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValueError, match=rf"events\.csv: line {line}: "):
            read_event_csv(path)


class TestEventLogValidation:
    def test_timestamps_outside_window_rejected(self):
        with pytest.raises(ValueError):
            EventLog(np.array([5.0]), [0], 0.0, 1.0, ["a"])

    def test_unknown_node_rejected(self):
        with pytest.raises(ValueError):
            EventLog(np.array([0.5]), [1], 0.0, 1.0, ["a"])

    @pytest.mark.parametrize("times, t0, t1", [
        ([0.5, np.inf], 0.0, np.inf),
        ([np.nan], 0.0, 1.0),
        ([0.5], np.nan, 1.0),
        ([0.5], 0.0, np.nan),
        ([0.5], -np.inf, 1.0),
    ])
    def test_non_finite_times_and_window_rejected(self, times, t0, t1):
        with pytest.raises(ValueError, match="must be finite"):
            EventLog(np.array(times), [0] * len(times), t0, t1, ["a"])

    @pytest.mark.parametrize("nodes", [[0.5], [0.0], [np.nan], [True]])
    def test_non_integer_node_codes_rejected(self, nodes):
        # a code of 0.5 used to be cut to node 0
        with pytest.raises(ValueError, match="event node codes must be integers"):
            EventLog([0.0], nodes, 0.0, 1.0, ["a"])


# ------------------------------------------------ against the name-based oracle

@st.composite
def event_logs(draw):
    """Declared labels in drawn (unsorted) order, sender codes into them, and
    times in a window whose final day may be partial; some events sit at t1."""
    labels = draw(st.lists(st.text("abcxyz", min_size=1, max_size=3), min_size=1, max_size=5, unique=True))
    t0 = draw(st.sampled_from([0.0, 3.5]))
    t1 = t0 + draw(st.floats(0.0, 24.0 * 4))
    n = draw(st.integers(0, 40))
    times = draw(st.lists(st.floats(t0, t1) | st.just(t1), min_size=n, max_size=n))
    codes = draw(st.lists(st.integers(0, len(labels) - 1), min_size=n, max_size=n))
    return times, codes, t0, t1, labels


def named_log(times, codes, t0, t1, labels):
    return oracles.EventLog(np.array(times, dtype=float), [labels[c] for c in codes], t0, t1, list(labels))


def assert_same_log(coded, named):
    assert np.array_equal(coded.times, named.times)
    assert (coded.t0, coded.t1, coded.labels) == (named.t0, named.t1, named.labels)
    assert [coded.labels[c] for c in coded.nodes] == named.nodes


def assert_same_series(got, want):
    assert got.counts.dtype == want.counts.dtype == np.uint64
    assert np.array_equal(got.counts, want.counts)
    assert (got.dt, got.node_labels) == (want.dt, want.node_labels)


class TestAgainstOracle:
    # node c drops first, which makes day 1 dead, which leaves node b quiet
    @example(([1.0, 2.0, 3.0, 4.0, 30.0, 31.0], [0, 0, 0, 1, 1, 2], 0.0, 48.0, ["a", "b", "c"]), 2, 1, 1.0)
    @example(([], [], 0.0, 30.0, ["b", "a"]), 0, 0, 0.5)  # empty log
    @example(([30.0, 40.0, 45.5], [1, 0, 1], 0.0, 45.5, ["z", "a"]), 0, 0, 0.5)  # event at t1, dead first day
    @given(event_logs(), st.integers(0, 6), st.integers(0, 3), st.floats(0.05, 30.0))
    @settings(max_examples=300, deadline=None)
    def test_clean_and_aggregate(self, log, min_node_total, dead_day_threshold, dt):
        coded, named = EventLog(*log), named_log(*log)
        assert_same_log(coded, named)
        assert_same_series(aggregate(coded, dt), oracles.aggregate(named, dt))
        try:
            want_log, want_report = oracles.clean(named, min_node_total, dead_day_threshold)
        except ValueError:
            with pytest.raises(ValueError):
                clean(coded, min_node_total, dead_day_threshold)
            return
        got_log, got_report = clean(coded, min_node_total, dead_day_threshold)
        assert got_report == want_report
        assert_same_log(got_log, want_log)
        assert_same_series(aggregate(got_log, dt), oracles.aggregate(want_log, dt))

    def test_multi_pass_example_drops_nodes_twice(self):
        log = EventLog([1.0, 2.0, 3.0, 4.0, 30.0, 31.0], [0, 0, 0, 1, 1, 2], 0.0, 48.0, ["a", "b", "c"])
        cleaned, report = clean(log, min_node_total=2, dead_day_threshold=1)
        assert report.removed_nodes == ["c", "b"] and report.removed_days == [1]
        assert cleaned.labels == ["a"]


ORIGIN = datetime(2024, 3, 1, 9, 30)
OFFSETS = [timezone(timedelta(hours=2)), timezone(timedelta(hours=-5, minutes=-30)), timezone.utc]


# senders that csv.writer quotes (a comma, a quote, line breaks), and plain ones
PLAIN_SENDERS = ["ann", "bob", " cy ", "Dee", "ann", "Zoë", "\tx\x0b"]
QUOTED_SENDERS = ["a,b", 'say "hi"', "two\nlines", "cr\rlf\r\n", '"']
# stamps that fail in at least one of the two formats, or read only one way
ODD_STAMPS = ["2024-02-30T00:00:00", "2023-02-29T10:00:00.000", "2024-13-01T00:00:00", "2024-03-01T24:00:00",
              "2024-03-01T23:59:60", "0000-01-01T00:00:00", "2024-03-01T00:00:00.1234", "2024-03-01x00:00:00",
              "2100-02-29T00:00:00", "1900-02-29 00:00:00", "2000-02-29T12:00:00", "2024-02-29T12:00:00.000001",
              "2024-03-01T00:00:00+00:00", "20240301T013000", "2024-03-01", "9999-12-31T23:59:59.999999",
              "abc", "1.5", "1_0", "nan", "-inf", "1e400", "0x10", "１.5", "\u00a02.5", "2.5\u2003"]


@st.composite
def event_rows(draw):
    """CSV rows in one timestamp format (fractional hours, or ISO-8601 with
    optional fractional seconds, offsets and a space separator), with blank
    rows, extra columns, senders that need quotes, and at times one row that
    may be bad: a stamp from ODD_STAMPS, or a stamp without a sender."""
    iso = draw(st.booleans())
    aware = draw(st.booleans())
    quoted = draw(st.booleans())
    senders = PLAIN_SENDERS + QUOTED_SENDERS * quoted
    extras = ["bob", "", "x y"] + ["q,\n"] * quoted
    rows = []
    for _ in range(draw(st.integers(0, 25))):
        kind = draw(st.sampled_from(["event", "event", "event", "blank", "no-stamp"]))
        sender = draw(st.sampled_from(senders))
        if kind == "blank":
            rows.append([])
            continue
        if kind == "no-stamp":
            rows.append(["  ", sender])
            continue
        if iso:
            stamp = ORIGIN + timedelta(seconds=draw(st.floats(0.0, 5 * 86400.0)))
            if aware:
                stamp = stamp.replace(tzinfo=draw(st.sampled_from(OFFSETS)))
            text = stamp.isoformat(sep=draw(st.sampled_from("T ")),
                                   timespec=draw(st.sampled_from(["seconds", "milliseconds", "auto"])))
        else:
            hours = draw(st.floats(-5.0, 500.0))
            text = draw(st.sampled_from([repr(hours), f"{hours:.3f}", f" {hours:.1f} "]))
        rows.append([text, sender] + draw(st.lists(st.sampled_from(extras), max_size=2)))
    if draw(st.booleans()):
        odd = draw(st.sampled_from(ODD_STAMPS))
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from([[odd, "ann"], [odd, "bob", "x"], [odd]])))
    return rows


def csv_text(rows, terminator: str, last_newline: bool) -> str:
    """``rows`` as csv.writer writes them with ``terminator``, the last one without it if not last_newline."""
    out = io.StringIO(newline="")
    csv.writer(out, lineterminator=terminator).writerows(rows)
    text = out.getvalue()
    return text if last_newline else text.removesuffix(terminator)


def read_both(read, reference, path):
    """The results of ``read(path)`` and ``reference(path)``, or their errors' messages."""
    out = []
    for fn in (read, reference):
        try:
            out.append(fn(path))
        except ValueError as err:
            out.append(str(err))
    return out


@given(event_rows(), st.sampled_from(["\r\n", "\n", "\r"]), st.booleans(), st.sampled_from([1, 7, 64, 1 << 17]))
@settings(max_examples=300, deadline=None)
def test_read_event_csv_matches_oracle(tmp_path_factory, rows, terminator, last_newline, chunk):
    # small blocks put block ends anywhere, and split the sender keys of a block into several passes
    path = tmp_path_factory.getbasetemp() / "oracle_events.csv"
    with path.open("w", newline="") as fh:
        fh.write(csv_text([["timestamp", "sender", "receiver"], *rows], terminator, last_newline))
    with patch.object(hawkes, "READ_CHUNK_CHARS", chunk), patch.object(hawkes, "ROW_CHUNK_CELLS", chunk):
        got, want = read_both(read_event_csv, oracles.read_event_csv, path)
    if isinstance(want, str):
        assert got == want
        return
    assert np.array_equal(got.times, want.times) and got.times.dtype == want.times.dtype
    assert np.array_equal(got.nodes, want.nodes) and got.nodes.dtype == want.nodes.dtype
    assert (got.t0, got.t1, got.labels) == (want.t0, want.t1, want.labels)


@pytest.mark.parametrize("data", [
    b"timestamp,sender\n1.5,a\x00\n2.5,a\n",  # a sender with a trailing NUL is another sender
    b"timestamp,sender\n1.5\x00,a\n",  # numpy's bytes cast would drop the NUL
    b"timestamp,sender\n1.5,a\n\x1c2.5\x1f,b\n",  # str.strip takes ASCII separators too
    b"timestamp,sender\n1.5,a\n2.5," + b"b" * 40 + b"\n",  # a long sender
    b"timestamp,sender\r\n\r\n1.5,a\r\n,b\r\n2.5\r\n",  # no sender after blank rows, CRLF
    b"timestamp,sender\n1.5,a\n2.5," + b"x" * 140_000 + b"\n",  # a field over csv's size limit
    b"timestamp,sender\n1.5,a\n2.5,\xff\n",  # not UTF-8
    b"timestamp,sender\n1.5,a\n" + b"2.5,b\n" * 3000 + b"2.5,\xff\n",  # not UTF-8, far down
    b"timestamp,sender\n1.5,a\n" + b"2.5,b\n" * 3000 + b"x,\xff\n",  # a bad row, then not UTF-8
    b"\xff,sender\n1.5,a\n",  # a header that does not decode
    b"timestamp,sender\n2024-03-01T00:00:00,a\n2024-03-01T00:00:00.5,a\n1.5,b\n",
    b"timestamp\n",  # a header with one column
    b"",
])
@pytest.mark.parametrize("chunk", [7, 1 << 17])
def test_read_event_csv_edge_files_match_oracle(tmp_path, data, chunk):
    path = tmp_path / "events.csv"
    path.write_bytes(data)
    got, want = [], []
    for fn, out in ((read_event_csv, got), (oracles.read_event_csv, want)):
        try:
            with patch.object(hawkes, "READ_CHUNK_CHARS", chunk):
                log = fn(path)
            out.append((log.times.tolist(), log.nodes.tolist(), log.labels, log.t0, log.t1))
        except Exception as err:  # noqa: BLE001 - the errors must match too
            out.append((type(err), str(err)))
    assert got == want


@pytest.mark.parametrize("odd", ODD_STAMPS)
@pytest.mark.parametrize("first", ["1.5", "2024-03-01T09:30:00", "0001-01-01T00:00:00"])
@pytest.mark.parametrize("chunk", [7, 1 << 17])
def test_every_odd_stamp_reads_as_the_oracle_reads_it(tmp_path, odd, first, chunk):
    # the hypothesis test above draws these only now and then; a stamp within 2**53 us of the
    # first one (year 0001) keeps a bad year-0000 check on the bulk path, where it would show
    rows = [["timestamp", "sender"], [first, "a"], [odd, "b"], [first, "c"]]
    test_read_event_csv_edge_files_match_oracle(tmp_path, csv_text(rows, "\n", True).encode(), chunk)
