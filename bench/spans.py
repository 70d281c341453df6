"""In-memory span tracing around the public functions of lmflows.

A traced run wraps each function in ``LAYERS`` wherever a loaded lmflows
module binds it (``lmflows.serialize.efpt_series`` as well as
``lmflows.fpt.efpt_series``), so calls the package makes internally become
child spans of the call that made them. Spans are kept in memory and
written out when the run ends; per-layer metrics are derived from them.
"""

import contextlib
import json
import sys
import time

# (module, function, span name). parse_panel_file is named by the layout it
# read, panel.parse_pairs or panel.parse_waves, once it returns.
LAYERS = (
    ("lmflows.panel", "parse_panel_file", "panel.parse"),
    ("lmflows.panel", "link_waves", "panel.link_waves"),
    ("lmflows.panel", "generate_synthetic_panel", "panel.simulate"),
    ("lmflows.panel", "write_pairs_csv", "panel.write_pairs"),
    ("lmflows.estimation", "compute_shares", "estimation.shares"),
    ("lmflows.estimation", "estimate_transition_matrix", "estimation.matrix"),
    ("lmflows.fpt", "fpt_distribution", "fpt.distribution"),
    ("lmflows.fpt", "efpt_series", "fpt.series"),
    ("lmflows.fpt", "efpt_linear", "fpt.linear"),
    ("lmflows.fpt", "check_well_defined", "fpt.well_defined"),
    ("lmflows.stochastic", "ensure_row_stochastic", "stochastic.validate"),
    ("lmflows.serialize", "build_fpt_report", "serialize.report"),
    *(("lmflows.serialize", name, "serialize.render") for name in (
        "to_json", "matrix_to_doc", "matrix_to_csv", "matrix_pretty", "shares_to_doc",
        "shares_to_csv", "shares_pretty", "fpt_report_to_csv", "fpt_report_pretty",
        "fixtures_to_doc", "fixtures_to_csv",
    )),
)

# Per-layer metrics: (metric, unit, better). busy_s is the time inside the
# layer's outermost spans, self_s the time not covered by child spans.
METRICS = (
    ("panel.parse_pairs.busy_s", "s", "lower"),
    ("panel.parse_pairs.rows", "count", "higher"),
    ("panel.parse_pairs.rejected", "count", "lower"),
    ("panel.parse_waves.busy_s", "s", "lower"),
    ("panel.parse_waves.rows", "count", "higher"),
    ("panel.parse_waves.rejected", "count", "lower"),
    ("panel.link_waves.busy_s", "s", "lower"),
    ("panel.simulate.busy_s", "s", "lower"),
    ("panel.write_pairs.busy_s", "s", "lower"),
    ("estimation.shares.busy_s", "s", "lower"),
    ("estimation.shares.calls", "count", "lower"),
    ("estimation.matrix.busy_s", "s", "lower"),
    ("estimation.matrix.calls", "count", "lower"),
    ("estimation.matrix.fallback_rows", "count", "lower"),
    ("fpt.distribution.busy_s", "s", "lower"),
    ("fpt.series.busy_s", "s", "lower"),
    ("fpt.series.terms", "count", "lower"),
    ("fpt.linear.busy_s", "s", "lower"),
    ("fpt.well_defined.busy_s", "s", "lower"),
    ("fpt.well_defined.terms", "count", "lower"),
    ("stochastic.validate.busy_s", "s", "lower"),
    ("stochastic.validate.calls", "count", "lower"),
    ("serialize.report.self_s", "s", "lower"),
    ("serialize.render.busy_s", "s", "lower"),
    ("serialize.render.bytes", "bytes", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.startup_s", "s", "lower"),
)


def _counts(span_name, result) -> tuple[str, dict]:
    """Final span name and the counts recorded at this boundary."""
    if span_name == "panel.parse":
        if result is None:
            return "panel.parse_pairs", {}
        dataset, report = result
        layout = "waves" if dataset.provenance.startswith("wave_rows") else "pairs"
        return f"panel.parse_{layout}", {"rows": report.n_rows, "rejected": len(report.rejections)}
    if span_name == "estimation.matrix" and result is not None:
        return span_name, {"fallback_rows": len(result.fallback_rows)}
    if span_name == "fpt.series" and result is not None:
        return span_name, {"terms": result.n_terms}
    if span_name == "fpt.well_defined" and result is not None:
        return span_name, {"terms": result.horizon}
    if span_name == "serialize.render" and isinstance(result, str):
        return span_name, {"bytes": len(result.encode("utf-8"))}
    return span_name, {}


class Tracer:
    """Spans as [id, name, start, end, parent id, counts], held in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str, **counts):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [sid, name, time.perf_counter(), None, parent, counts]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield record
        finally:
            self._stack.pop()
            record[3] = time.perf_counter()

    def _wrap(self, fn, span_name):
        def wrapper(*args, **kwargs):
            result = None
            with self.span(span_name) as record:
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    record[1], counts = _counts(span_name, result)
                    record[5].update(counts)

        return wrapper

    def install(self) -> None:
        """Wrap every LAYERS function in each loaded lmflows module that binds it."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "lmflows" or name.startswith("lmflows."))]
        for module_name, fn_name, span_name in LAYERS:
            fn = getattr(sys.modules[module_name], fn_name)
            wrapper = self._wrap(fn, span_name)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def adopt(self, spans: list[list], parent: int) -> None:
        """Append spans recorded by another process under span ``parent``."""
        base = len(self.spans)
        for sid, name, start, end, par, counts in spans:
            self.spans.append([base + sid, name, start, end, parent if par < 0 else base + par, counts])

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def layer_metrics(spans: list[list], root: int) -> dict[str, float]:
    """Per-layer totals over the spans below span ``root``."""
    by_id = {s[0]: s for s in spans}
    children: dict[int, list] = {}
    for s in spans:
        children.setdefault(s[4], []).append(s)

    def below(sid):
        for child in children.get(sid, ()):
            yield child
            yield from below(child[0])

    out = {name: 0 for name, _, _ in METRICS}
    for s in below(root):
        sid, name, start, end, parent, counts = s
        duration = end - start
        anc, nested = parent, False
        while anc in by_id and anc != root:
            if by_id[anc][1] == name:
                nested = True
                break
            anc = by_id[anc][4]
        if not nested and f"{name}.busy_s" in out:
            out[f"{name}.busy_s"] += duration
        if f"{name}.self_s" in out:
            out[f"{name}.self_s"] += duration - sum(c[3] - c[2] for c in children.get(sid, ()))
        if f"{name}.calls" in out:
            out[f"{name}.calls"] += 1
        for key, value in counts.items():
            if f"{name}.{key}" in out:
                out[f"{name}.{key}"] += value
        if name == "cli.import":
            out["cli.import_s"] += duration
        if "main_start" in counts:
            out["cli.startup_s"] += counts["main_start"] - start
    return out
