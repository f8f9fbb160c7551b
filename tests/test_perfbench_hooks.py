"""The benchmark's traced run wraps stemscribe functions and methods by
name (perfbench/layers.py). A refactor that moves or renames one of them
must fail here, not only when the benchmark runs."""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from stemscribe import dsp, nn
from stemscribe.separation import SeparatorModel

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_by_path(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_hooks_install_trace_and_unpatch(monkeypatch):
    spans = load_by_path("spans", monkeypatch)  # layers.py imports it by this name
    layers = load_by_path("layers", monkeypatch)
    original = nn.Lstm.__dict__["forward"], dsp.cqt
    tracer = spans.Tracer()
    tracer.op = 0
    layers.install(tracer)
    try:
        model = SeparatorModel(num_bins=5, hidden=3, layers=1)
        model.forward_mask(np.zeros((4, 1, 5)), training=True)  # inference skips Lstm.forward
        # the transforms as the CLI calls them; the CQT counter reads its
        # config as the second positional argument
        stft_cfg = dsp.StftConfig(fft_size=64, hop=16)
        dsp.istft(dsp.stft(np.ones(200), stft_cfg), stft_cfg)
        dsp.cqt(np.ones(2000), dsp.CqtConfig(n_bins=12, f_min=110.0, sample_rate=8000))
    finally:
        tracer.unpatch()
    names = {span[2] for span in tracer.spans}
    assert {"nn.BatchNorm.forward", "nn.Lstm.forward", "nn.Dense.forward",
            "nn.Sigmoid.forward", "dsp.stft", "dsp.istft", "dsp.cqt"} <= names
    assert tracer.counters[0]["nn.Lstm.steps"] == 4
    assert tracer.counters[0]["dsp.cqt.gather_mb"] > 0
    assert (nn.Lstm.__dict__["forward"], dsp.cqt) == original


def test_the_lane_pass_runs_under_the_predict_mask_span(monkeypatch):
    # a lane pass's time stays in the span that wraps the separator's
    # inference: its STFTs and norms are that span's children
    from stemscribe import separation
    from stemscribe.audio_io import Waveform

    for name, value in {"_LANES": 3, "_LANE_FRAMES": 256, "_LANE_ROUND": 64, "_BURN_IN": 64,
                        "_LANE_MIN_FRAMES": 128}.items():
        monkeypatch.setattr(separation, name, value)
    spans = load_by_path("spans", monkeypatch)
    layers = load_by_path("layers", monkeypatch)
    tracer = spans.Tracer()
    tracer.op = 0
    layers.install(tracer)
    try:
        cfg = dsp.StftConfig()
        mix = Waveform(np.random.default_rng(0).standard_normal((1, 600 * cfg.hop)), 22050)
        separation.separate(mix, SeparatorModel(num_bins=cfg.num_bins, hidden=3, layers=2), cfg)
    finally:
        tracer.unpatch()
    name_of = {span[0]: span[2] for span in tracer.spans}
    pairs = Counter((name_of.get(parent), name) for _, parent, name, *_ in tracer.spans)
    lanes = sum(map(len, separation._lane_plan(separation._grid_frames(600 * cfg.hop, cfg))))
    lane_stfts = pairs["separation.predict_mask", "dsp.stft"]
    assert lane_stfts >= lanes
    assert pairs["separation.predict_mask", "nn.BatchNorm.forward"] == lane_stfts
    assert all(parent == "separation.predict_mask"
               for parent, name in pairs if name == "nn.BatchNorm.forward")
