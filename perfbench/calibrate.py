"""Modelled tick counts of the traced work, and their fit to measured time.

``tickmodel`` prices a stage at samples x taps ticks. The counters below
price every traced ``despike.separate`` and ``tfmap.map_row`` call with the
package's own stage lists, split by stage kind, at zero and two
accelerators. ``fit`` then sets each kind's ticks against the self time of
the spans that do that kind of work:

  strided FIR      analysis_*/synthesis_*  backends.circular_conv under swt
  centered FIR     bandpass_*              backends.centered_conv
  complex Morlet   scale_conv_*            backends.centered_conv_complex
  smoother         smooth_*                tfmap.envelope_smooth
  elementwise      everything else         the remaining self time of the
                                           separation and mapping chains

Mask placement and filter construction are not metered by the model, so
their spans are left out of every kind.
"""

from __future__ import annotations

import inspect
import statistics

KINDS = ("strided_fir", "centered_fir", "complex_morlet", "smoother", "elementwise")

_CHAINS = ("despike.separate", "tfmap.map_row")
_PLACEMENT = ("despike.detect_oscillation_center", "despike.build_mask",
              "swt.wavelet_filters", "swt.FilterPair")
_ELEMENTWISE_SPANS = (
    "despike.separate", "swt.swt_decompose", "swt.iswt_reconstruct",
    "despike.threshold_coeffs", "tfmap.map_row", "tfmap.bandpass",
    "tfmap.morlet_transform", "tfmap.normalize_by_low_band",
)


def stage_kind(stage_name):
    if stage_name.startswith(("analysis_", "synthesis_")):
        return "strided_fir"
    if stage_name.startswith("bandpass_"):
        return "centered_fir"
    if stage_name.startswith("scale_conv_"):
        return "complex_morlet"
    if stage_name.startswith("smooth_"):
        return "smoother"
    return "elementwise"


def _pair_max(stages):
    """Two-accelerator separation schedule: a group costs its dearest stage."""
    total = 0
    groups = {}
    for s in stages:
        if s.group is None:
            total += s.cost
        else:
            groups[s.group] = max(groups.get(s.group, 0), s.cost)
    return total + sum(groups.values())


def _split_two(stages):
    """Two-accelerator mapping schedule: every stage's batch halves, rounded up."""
    return sum(-(-s.cost // 2) for s in stages)


def _priced(stages, accel2_total):
    out = {f"ticks.{kind}": 0 for kind in KINDS}
    for s in stages:
        out[f"ticks.{stage_kind(s.name)}"] += s.cost
    out["ticks.accel0"] = sum(s.cost for s in stages)
    out["ticks.accel2"] = accel2_total
    return out


def tick_counters(gs, originals):
    """Tracer counters pricing separation and mapping calls in ticks.

    ``originals`` maps traced names to the unwrapped functions, so pricing
    never opens spans of its own. Prices are cached per input shape.
    """
    sep_sig = inspect.signature(originals["despike.separate"])
    map_sig = inspect.signature(originals["tfmap.map_row"])
    db4 = originals["swt.wavelet_filters"]("db4")
    cache = {}

    def separation(args, kwargs, result):
        bound = sep_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        filters = bound.arguments["filters"] or db4
        n = len(bound.arguments["x"])
        levels = bound.arguments["levels"]
        key = ("sep", n, filters.length, levels)
        if key not in cache:
            stages = gs.tickmodel.separation_stages(n, filters, levels,
                                                    result.mask_used)
            cache[key] = _priced(stages, _pair_max(stages))
        return cache[key]

    def mapping(args, kwargs, result):
        bound = map_sig.bind(*args, **kwargs)
        n = len(bound.arguments["x"])
        band = tuple(bound.arguments["band_hz"])
        params = bound.arguments["params"]
        key = ("map", n, band, params)
        if key not in cache:
            stages = gs.tickmodel.mapping_stages(n, params, band)
            cache[key] = _priced(stages, _split_two(stages))
        return cache[key]

    return {"despike.separate": separation, "tfmap.map_row": mapping}


def _self_ns(tracer, names, parents=None):
    """Self time of spans named in ``names`` inside a metered chain.

    A span counts when its path holds a separation or mapping chain span
    (itself included), holds no placement or filter-construction span, and,
    if ``parents`` is given, its direct parent is one of them.
    """
    total = 0
    for path, (_, _, self_ns) in tracer.paths.items():
        if path[-1] not in names or not any(c in path for c in _CHAINS):
            continue
        if any(x in path for x in _PLACEMENT):
            continue
        if parents is not None and (len(path) < 2 or path[-2] not in parents):
            continue
        total += self_ns
    return total


def fit(tracer):
    """Per-kind ns per tick, per-pipeline ns per tick and one-rate error.

    ``calib.one_rate_rel_err`` fits one ns-per-tick rate across the kinds
    and gives the median relative error of the self time it predicts for
    each kind. Returns metric name -> value; a kind without ticks gives 0.
    """
    measured = {
        "strided_fir": _self_ns(tracer, ("backends.circular_conv",),
                                parents=("swt.swt_decompose", "swt.iswt_reconstruct")),
        "centered_fir": _self_ns(tracer, ("backends.centered_conv",)),
        "complex_morlet": _self_ns(tracer, ("backends.centered_conv_complex",)),
        "smoother": _self_ns(tracer, ("tfmap.envelope_smooth",)),
        "elementwise": _self_ns(tracer, _ELEMENTWISE_SPANS),
    }
    out = {}
    fitted = []
    for kind in KINDS:
        ticks = sum(tracer.count(c, f"ticks.{kind}") for c in _CHAINS)
        out[f"calib.{kind}.ns_per_tick"] = measured[kind] / ticks if ticks else 0.0
        if ticks and measured[kind]:
            fitted.append((ticks, measured[kind]))
    out["calib.one_rate_rel_err"] = 0.0
    if fitted:
        one_rate = sum(m for _, m in fitted) / sum(t for t, _ in fitted)
        out["calib.one_rate_rel_err"] = statistics.median(
            abs(one_rate * t - m) / m for t, m in fitted
        )
    for chain, label in zip(_CHAINS, ("separation", "mapping")):
        ticks = tracer.count(chain, "ticks.accel0")
        out[f"tickmodel.{label}.ns_per_tick"] = (
            tracer.total_ns(chain) / ticks if ticks else 0.0
        )
    return out
