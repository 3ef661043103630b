"""Unit tests for MPEG trace synthesis and trace files."""


import pytest

from repro.traffic import (GOP_PATTERN, MpegCellArrivals,
                           MpegTraceSynthesizer, Trace, TraceError)


class TestMpegSynthesizer:
    def test_gop_pattern_followed(self):
        syn = MpegTraceSynthesizer(frame_rate=25.0, seed=1)
        types = [syn.next_frame()[1] for _ in range(24)]
        assert "".join(types) == GOP_PATTERN * 2

    def test_frame_times_match_frame_rate(self):
        syn = MpegTraceSynthesizer(frame_rate=25.0, seed=1)
        starts = [syn.next_frame()[0] for _ in range(5)]
        assert starts == pytest.approx([0.0, 0.04, 0.08, 0.12, 0.16])

    def test_i_frames_larger_on_average(self):
        syn = MpegTraceSynthesizer(seed=5)
        frames = syn.frames(12 * 50)
        by_type = {"I": [], "P": [], "B": []}
        for _t, ftype, size in frames:
            by_type[ftype].append(size)
        mean = {k: sum(v) / len(v) for k, v in by_type.items()}
        assert mean["I"] > mean["P"] > mean["B"]

    def test_reset_reproduces(self):
        syn = MpegTraceSynthesizer(seed=2)
        first = syn.frames(30)
        syn.reset()
        assert syn.frames(30) == first

    def test_sizes_positive(self):
        syn = MpegTraceSynthesizer(seed=3)
        assert all(size >= 1 for _t, _f, size in syn.frames(100))

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            MpegTraceSynthesizer(frame_rate=0)
        with pytest.raises(ValueError):
            MpegTraceSynthesizer(gop_pattern="IXP")


class TestMpegCellArrivals:
    def test_cells_per_frame_matches_payload(self):
        syn = MpegTraceSynthesizer(seed=4)
        syn.frame_stats = {k: (480.0, 0.0001) for k in "IPB"}
        arrivals = MpegCellArrivals(syn, cell_spacing=1e-6)
        # ~480 bytes => 10 cells per frame at 48-byte payloads
        gaps = [arrivals.next_interarrival() for _ in range(10)]
        times = []
        t = 0.0
        for g in gaps:
            t += g
            times.append(t)
        burst = [g for g in gaps[1:] if g <= 1.1e-6]
        assert len(burst) == 9  # 10 cells back-to-back in frame 0

    def test_arrivals_monotone(self):
        syn = MpegTraceSynthesizer(seed=6)
        arrivals = MpegCellArrivals(syn)
        t = 0.0
        for _ in range(2000):
            gap = arrivals.next_interarrival()
            assert gap >= 0.0
            t += gap

    def test_reset(self):
        syn = MpegTraceSynthesizer(seed=7)
        arrivals = MpegCellArrivals(syn)
        first = [arrivals.next_interarrival() for _ in range(100)]
        arrivals.reset()
        assert [arrivals.next_interarrival() for _ in range(100)] == first

    def test_invalid_spacing(self):
        syn = MpegTraceSynthesizer(seed=1)
        with pytest.raises(ValueError):
            MpegCellArrivals(syn, cell_spacing=0.0)


class TestTrace:
    def test_append_and_iterate(self):
        t = Trace(name="x")
        t.append(0.0, {"VPI": 1})
        t.append(1.5, {"VPI": 2})
        assert len(t) == 2
        assert t[1] == (1.5, {"VPI": 2})
        assert t.duration() == 1.5

    def test_out_of_order_rejected(self):
        t = Trace()
        t.append(2.0, {})
        with pytest.raises(TraceError):
            t.append(1.0, {})

    def test_save_load_round_trip(self, tmp_path):
        t = Trace(name="cells")
        for i in range(5):
            t.append(i * 0.5, {"VPI": i, "payload": f"p{i}"})
        path = tmp_path / "cells.trace"
        t.save(path)
        loaded = Trace.load(path)
        assert loaded.name == "cells"
        assert loaded.entries == t.entries

    def test_load_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.trace"
        path.write_text("")
        with pytest.raises(TraceError):
            Trace.load(path)

    def test_load_bad_entry_rejected(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text('{"trace": "x"}\nnot-json\n')
        with pytest.raises(TraceError):
            Trace.load(path)
