"""The benchmark's span tracer (``bench/spans.py``) finds every function it wraps.

A traced benchmark run wraps each ``LAYERS`` function by looking it up on
its module, so a renamed or deleted function breaks every traced run. The
tracer is loaded by path and only read; the test checks that each target
resolves, that wave linkage records its own span inside the parse, and that
uninstalling puts every function back.
"""

import importlib
import importlib.util
from pathlib import Path

from lmflows import panel

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_tracer_wraps_every_layer_and_restores_it(tmp_path):
    spans = load_spans()
    targets = [(importlib.import_module(module), name) for module, name, _ in spans.LAYERS]
    originals = [getattr(module, name) for module, name in targets]
    link_waves = panel.link_waves
    path = tmp_path / "w.csv"
    path.write_text(",".join(panel.WAVE_HEADER) + "\n"
                    "A,2019.1,EDU,21,F,1,SOUTH,1.0\n"
                    "A,2019.2,TE,21,F,1,SOUTH,1.0\n", encoding="utf-8")

    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = [getattr(module, name) for module, name in targets]
        data, _ = panel.parse_panel_file(path)
    finally:
        tracer.uninstall()

    assert all(now is not before for now, before in zip(wrapped, originals))
    assert len(data) == 1
    (parse, link) = tracer.spans
    assert parse[1] == "panel.parse_waves"
    assert link[1] == "panel.link_waves" and link[4] == parse[0]
    assert [getattr(module, name) for module, name in targets] == originals
    assert panel.link_waves is link_waves
