"""Tests for the GamingAnywhere-style streaming pipeline model."""

import numpy as np
import pytest

from repro.streaming.client import ClientModel
from repro.streaming.encoder import EncoderModel
from repro.streaming.network import NetworkModel
from repro.streaming.pipeline import StreamingPipeline


class TestEncoder:
    def test_cpu_scales_linearly_with_fps(self):
        enc = EncoderModel()
        a = enc.cpu_overhead(30)
        b = enc.cpu_overhead(60)
        assert b == pytest.approx(2 * a)

    def test_zero_fps_costs_nothing(self):
        r = EncoderModel().encode_second(0)
        assert r.cpu_overhead == 0 and r.per_frame_latency_ms == 0

    def test_better_codec_costs_more_cpu_less_bitrate(self):
        h264 = EncoderModel(codec="h264").encode_second(60)
        h265 = EncoderModel(codec="h265").encode_second(60)
        assert h265.cpu_overhead > h264.cpu_overhead
        assert h265.bitrate_mbps < h264.bitrate_mbps

    def test_resolution_scales_cost(self):
        hd = EncoderModel(width=1280, height=720).cpu_overhead(60)
        fhd = EncoderModel(width=1920, height=1080).cpu_overhead(60)
        assert fhd == pytest.approx(hd * (1920 * 1080) / (1280 * 720))

    def test_1080p60_h264_is_sub_percent(self):
        # Calibration regression: the paper-era testbed encodes a 1080p60
        # stream for well under 1 % of host CPU.
        assert EncoderModel().cpu_overhead(60) < 1.0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            EncoderModel(codec="vp9")
        with pytest.raises(ValueError):
            EncoderModel(width=0)
        with pytest.raises(ValueError):
            EncoderModel().encode_second(-1)


class TestNetwork:
    def test_meets_paper_3ms_target_at_light_load(self):
        net = NetworkModel(seed=0)
        assert net.meets_paper_target(offered_mbps=10)

    def test_latency_grows_with_load(self):
        net = NetworkModel(jitter_ms=0, loss_rate=0, seed=0)
        light = net.transmit_second(5).latency_ms
        heavy = net.transmit_second(95).latency_ms
        assert heavy > light

    def test_overload_drops(self):
        net = NetworkModel(bandwidth_mbps=50, jitter_ms=0, loss_rate=0, seed=0)
        s = net.transmit_second(80)
        assert s.dropped
        assert s.delivered_mbps == 50

    def test_deterministic_under_seed(self):
        a = NetworkModel(seed=5).transmit_second(10).latency_ms
        b = NetworkModel(seed=5).transmit_second(10).latency_ms
        assert a == b

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            NetworkModel(bandwidth_mbps=0)
        with pytest.raises(ValueError):
            NetworkModel(loss_rate=1.0)
        with pytest.raises(ValueError):
            NetworkModel().transmit_second(-1)


class TestClient:
    def test_thin_clients_decode_slower(self):
        desktop = ClientModel(device="desktop").decode_latency_ms("h264")
        phone = ClientModel(device="phone").decode_latency_ms("h264")
        assert phone > desktop

    def test_invalid_device(self):
        with pytest.raises(ValueError):
            ClientModel(device="toaster")


class TestPipeline:
    def test_glass_to_glass_budget_at_60fps(self):
        pipe = StreamingPipeline(network=NetworkModel(jitter_ms=0, seed=0))
        breakdown, cpu = pipe.stream_second(60)
        assert breakdown.interaction_grade(50.0)
        assert breakdown.total_ms > 0
        assert cpu > 0

    def test_breakdown_components_sum(self):
        pipe = StreamingPipeline(network=NetworkModel(jitter_ms=0, seed=0))
        b, _ = pipe.stream_second(30)
        assert b.total_ms == pytest.approx(
            b.capture_ms + b.encode_ms + b.network_ms + b.decode_ms + b.display_ms
        )

    def test_stalled_stream_is_free(self):
        b, cpu = StreamingPipeline().stream_second(0)
        assert b.total_ms == 0 and cpu == 0
