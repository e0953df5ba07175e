"""Layer spans recorded from outside the library.

Each public function is wrapped at the name where its caller looks it up
(``epiline.pair_search.line_parameter_grid``, ``epiline.attention.gather``,
``epiline.cli.et_forward``, ...). A wrapper opens a span, calls the original,
and adds the span's self time (its duration minus its child spans) to its
layer. Counts are derived from the call's arguments and result. A name that is
missing, or that is never called during a traced op, leaves its layer absent.
"""

from __future__ import annotations

import importlib
import json
import os
import time
import tracemalloc
from collections import defaultdict

import statistics

import numpy as np

from inputs import CHANNELS, HEADS

_F64 = 8


class Tracer:
    def __init__(self, height: int, width: int):
        self.height, self.width = height, width
        self.ms = defaultdict(float)  # layer -> self seconds
        self.counts = defaultdict(float)  # counter -> sum over traced ops
        self.maxima = defaultdict(float)  # counter -> max over traced ops
        self.seen = set()  # layers and counters that were recorded
        self.lengths = {"ref": [], "src": []}  # per-pair line lengths, pooled over traced ops
        self.stack = []
        self.op_queries = []  # per et_forward call of the current op
        self.traced_ops = 0
        self.strategy_macs = None
        self.active = False
        self.patched = []
        self.missing = []
        self.hook_errors = set()

    # -- spans ---------------------------------------------------------------

    def _enter(self, layer):
        self.stack.append([layer, time.perf_counter(), 0.0])

    def _exit(self):
        layer, start, child = self.stack.pop()
        duration = time.perf_counter() - start
        self.ms[layer] += duration - child
        self.seen.add(layer)
        if self.stack:
            self.stack[-1][2] += duration

    def op(self, fn):
        """Run one traced op; its uncovered time is charged to ``trace.unaccounted``."""
        self.active = True
        self.op_queries = []
        self._enter("trace.unaccounted")
        try:
            return fn()
        finally:
            self._exit()
            self.active = False
            self.traced_ops += 1
            self._hook("complexity.model", self._model_macs)

    def _model_macs(self):
        """The paper's closed-form line-to-line MACs for the op's et_forward
        calls: M pairs of S mean query tokens, as ``complexity`` defines them."""
        if self.strategy_macs is None:
            return
        for lengths in self.op_queries:
            if lengths:
                s = max(1, round(sum(lengths) / len(lengths)))
                self.add(
                    "complexity.model_macs",
                    self.strategy_macs("line-to-line", self.height, self.width, CHANNELS, s, len(lengths)),
                )

    def add(self, name, value, peak=False):
        self.seen.add(name)
        if peak:
            self.maxima[name] = max(self.maxima[name], value)
        else:
            self.counts[name] += value

    def _hook(self, layer, hook, *args):
        """A count that no longer fits the library's shapes is dropped, not fatal."""
        try:
            hook(*args)
        except (AttributeError, TypeError, IndexError, ValueError, OSError) as exc:
            self.hook_errors.add(f"{layer}: {type(exc).__name__}: {exc}")

    def wrap(self, original, layer, before=None, after=None, nest=None):
        """Span ``layer`` around ``original``. ``before(args)`` and
        ``after(args, result)`` record counts; ``nest`` names an enclosing layer
        whose span and counts already cover the call."""

        def wrapper(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            if nest is not None and self.stack and self.stack[-1][0] == nest:
                return original(*args, **kwargs)
            if before:
                self._hook(layer, before, args)
            self._enter(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                self._exit()
            if after:
                self._hook(layer, after, args, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def patch(self, module_name, attr, layer, inner=None, **hooks):
        """Replace ``module.attr`` by a wrapper, or note the name as missing.
        ``inner(original)`` may first wrap the original inside the span."""
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        target = inner(original) if inner else original
        setattr(module, attr, self.wrap(target, layer, **hooks))
        self.patched.append((module, attr, original))

    def restore(self):
        for module, attr, original in reversed(self.patched):
            setattr(module, attr, original)
        self.patched.clear()

    # -- hooks ---------------------------------------------------------------

    def _mha(self, layer, n_q, n_kv, c):
        self.add(f"{layer}_macs", 2 * n_q * c * c + 2 * n_kv * c * c + 2 * n_q * n_kv * c)
        self.add("attention.score_bytes_max", HEADS * n_q * n_kv * _F64, peak=True)
        self.add("attention.calls", 1)

    def _intra(self, args):
        n, c = np.shape(args[0])
        self._mha("attention.intra", n, n, c)

    def _cross(self, args):
        (n_q, c), n_kv = np.shape(args[0]), np.shape(args[1])[0]
        self._mha("attention.cross", n_q, n_kv, c)

    def _ffn(self, args):
        n, c = np.shape(args[0])
        hidden = np.shape(args[1].w1)[1]
        self.add("attention.ffn_macs", 2 * n * c * hidden)
        self.add("attention.calls", 1)

    def _conv(self, args):
        h, w, c_in = np.shape(args[0].data)
        k, _, _, c_out = np.shape(args[1].kernel)
        self.add("attention.local_conv_macs", h * w * k * k * c_in * c_out)

    def _gather(self, args, result):
        self.add("sequences.gather_bytes", sum(seq.tokens.nbytes for seq in result))

    def _assign(self, args):
        self.add("pair_search.assign_evals", len(args[1]) * self.height * self.width)

    def _assigned(self, args, result):
        self.add("pair_search.assigned", float((~np.asarray(result[1])).sum()))

    def _searched(self, args, result):
        n_ref = [p.n_ref for p in result.pairs]
        n_src = [p.n_src for p in result.pairs]
        self.add("pair_search.pairs", len(n_ref))
        self.lengths["ref"] += n_ref
        self.lengths["src"] += n_src
        self.add("pair_search.ref_coverage", 1.0 - float(np.mean(result.ref_hole_mask)))
        self.add("pair_search.src_coverage", 1.0 - float(np.mean(result.src_hole_mask)))

    def _exported(self, args, result):
        self.add("pair_search.export_bytes", len(result))

    def _queries(self, args):
        """Query-side lengths of one et_forward call, for the closed-form model."""
        self.op_queries.append([int(np.shape(seq.tokens)[0]) for seq in args[1]])

    def _epfm_read(self, args):
        self.add("sequences.epfm_bytes", os.path.getsize(args[0]))

    def _epfm_written(self, args, result):
        self.add("sequences.epfm_bytes", os.path.getsize(args[0]))

    def _et_forward(self, original):
        """et_forward with tracemalloc on: its peak is the attention working set."""

        def traced(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            tracemalloc.start()
            try:
                return original(*args, **kwargs)
            finally:
                _, peak = tracemalloc.get_traced_memory()
                tracemalloc.stop()
                self.add("attention.peak_bytes", peak, peak=True)

        return traced

    def install(self):
        """Wrap every layer boundary the benchmark knows about."""
        ps, att, cli = "epiline.pair_search", "epiline.attention", "epiline.cli"
        self.patch(ps, "line_parameter_grid", "geometry.line_grid")
        self.patch(ps, "assign_source_pixels", "pair_search.assign", before=self._assign, after=self._assigned)
        for module in (ps, cli):
            self.patch(module, "search_pairs", "pair_search.cluster", after=self._searched)
        self.patch(cli, "pair_set_to_dict", "pair_search.export")
        self.patch(att, "mhsa", "attention.intra", before=self._intra)
        self.patch(att, "mhca", "attention.cross", before=self._cross, nest="attention.intra")
        self.patch(att, "feed_forward", "attention.ffn", before=self._ffn)
        for module in (att, cli):
            self.patch(module, "augment_pipeline", "attention.pipeline")
            self.patch(module, "gather", "sequences.gather", after=self._gather)
            self.patch(module, "scatter", "sequences.scatter")
            self.patch(module, "local_augment", "attention.local_conv", before=self._conv)
            self.patch(module, "et_forward", "attention.et_self", inner=self._et_forward, before=self._queries)
        self.patch(cli, "read_feature_map", "sequences.epfm_read", before=self._epfm_read)
        self.patch(cli, "write_feature_map", "sequences.epfm_write", after=self._epfm_written)
        self.patch(cli, "read_weights", "attention.weights_read")
        self.patch(cli, "load_camera_pair", "cam_io.load")
        self.patch(cli, "main", "cli.self")
        cli_module = importlib.import_module(cli)
        if getattr(cli_module, "json", None) is json:
            cli_module.json = _JsonShim(self.wrap(json.dumps, "pair_search.export", after=self._exported))
            self.patched.append((cli_module, "json", json))
        else:
            self.missing.append(f"{cli}.json.dumps")
        self.strategy_macs = getattr(importlib.import_module("epiline.complexity"), "strategy_macs", None)
        if self.strategy_macs is None:
            self.missing.append("epiline.complexity.strategy_macs")

    def metrics(self, stats: dict, repeat_share: float) -> dict:
        """Per-layer metrics over the traced ops; None marks an absent layer.

        ``stats`` holds in-op seconds and passing pixels of the untraced
        ("plain") and traced ops; ``repeat_share`` is the input statistic
        reported beside the layers.
        """
        n = max(1, self.traced_ops)
        seen = self.seen

        def ms(layer):
            return self.ms[layer] * 1e3 / n if layer in seen else None

        def per_op(counter):
            return self.counts[counter] / n if counter in seen else None

        def peak(counter):
            return self.maxima[counter] if counter in seen else None

        def ratio(num, den):
            return num / den if num is not None and den else None

        def gmac_s(stage):
            macs, layer = f"attention.{stage}_macs", f"attention.{stage}"
            if macs not in seen or layer not in seen:
                return None
            return ratio(self.counts[macs] / 1e9, self.ms[layer])

        def lengths(side, how):
            values = self.lengths[side]
            return float(how(values)) if values else None

        layers = {
            "geometry.line_grid_ms": ms("geometry.line_grid"),
            "pair_search.cluster_ms": ms("pair_search.cluster"),
            "pair_search.assign_ms": ms("pair_search.assign"),
            "pair_search.assign_evals": per_op("pair_search.assign_evals"),
            "pair_search.assign_hit_ratio": ratio(per_op("pair_search.assigned"), per_op("pair_search.assign_evals")),
            "pair_search.export_ms": ms("pair_search.export"),
            "pair_search.export_bytes": per_op("pair_search.export_bytes"),
            "pair_search.pairs": per_op("pair_search.pairs"),
            "pair_search.ref_len_p50": lengths("ref", statistics.median),
            "pair_search.ref_len_max": lengths("ref", max),
            "pair_search.src_len_p50": lengths("src", statistics.median),
            "pair_search.src_len_max": lengths("src", max),
            "pair_search.ref_coverage": per_op("pair_search.ref_coverage"),
            "pair_search.src_coverage": per_op("pair_search.src_coverage"),
            "sequences.gather_ms": ms("sequences.gather"),
            "sequences.scatter_ms": ms("sequences.scatter"),
            "sequences.gather_bytes": per_op("sequences.gather_bytes"),
            "sequences.epfm_read_ms": ms("sequences.epfm_read"),
            "sequences.epfm_write_ms": ms("sequences.epfm_write"),
            "sequences.epfm_bytes": per_op("sequences.epfm_bytes"),
            "attention.intra_ms": ms("attention.intra"),
            "attention.cross_ms": ms("attention.cross"),
            "attention.ffn_ms": ms("attention.ffn"),
            "attention.et_self_ms": ms("attention.et_self"),
            "attention.local_conv_ms": ms("attention.local_conv"),
            "attention.weights_read_ms": ms("attention.weights_read"),
            "attention.intra_macs": per_op("attention.intra_macs"),
            "attention.cross_macs": per_op("attention.cross_macs"),
            "attention.ffn_macs": per_op("attention.ffn_macs"),
            "attention.local_conv_macs": per_op("attention.local_conv_macs"),
            "attention.intra_gmac_s": gmac_s("intra"),
            "attention.cross_gmac_s": gmac_s("cross"),
            "attention.ffn_gmac_s": gmac_s("ffn"),
            "attention.local_conv_gmac_s": gmac_s("local_conv"),
            "attention.calls": per_op("attention.calls"),
            "attention.score_bytes_max": peak("attention.score_bytes_max"),
            "attention.peak_bytes": peak("attention.peak_bytes"),
        }
        real = [layers[f"attention.{s}_macs"] for s in ("intra", "cross", "ffn")]
        layers["complexity.model_macs"] = per_op("complexity.model_macs")
        layers["complexity.real_to_model_ratio"] = (
            ratio(sum(r for r in real if r is not None), layers["complexity.model_macs"]) if any(real) else None
        )
        layers["cam_io.load_ms"] = ms("cam_io.load")
        layers["cli.self_ms"] = ms("cli.self")
        plain, traced = stats["plain"], stats["traced"]
        layers["trace.overhead_ratio"] = ratio(
            ratio(traced["ok_pixels"], traced["seconds"]), ratio(plain["ok_pixels"], plain["seconds"])
        )
        layers["trace.unaccounted_share"] = ratio(self.ms["trace.unaccounted"], traced["seconds"])
        layers["workload.rig_repeat_share"] = repeat_share
        return layers


class _JsonShim:
    """Stands in for the ``json`` module inside ``epiline.cli`` so that the
    export's ``json.dumps`` call gets its own span."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)
