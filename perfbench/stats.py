"""Statistics of the repo benchmark, computed from raw samples.

Percentiles come from the raw samples a run recorded, never from the
program's bucketed histograms. A percentile is only named when at least
ten samples lie beyond it (see `supported`).
"""

import math
import statistics

MIN_BEYOND = 10


def quantile(values, q, weights=None):
    """Nearest-rank quantile: the smallest sample v such that at least a
    share q of the total weight lies at or below v. `weights` gives each
    sample's multiplicity (default 1). +inf samples (misses) sort last."""
    if not values:
        raise ValueError("quantile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    if weights is None:
        weights = [1.0] * len(values)
    pairs = sorted(zip(values, weights))
    total = sum(w for _, w in pairs)
    target = q * total
    seen = 0.0
    for v, w in pairs:
        seen += w
        if seen >= target - 1e-9 * total:
            return v
    return pairs[-1][0]


def median(values, weights=None):
    """Median; for unweighted samples of even count, the mean of the two
    middle samples (as `statistics.median`)."""
    if weights is None:
        return statistics.median(values)
    return quantile(values, 0.5, weights)


def mean_of_slowest(values, share):
    """Mean of the largest ceil(share * n) samples (at least one): a tail
    statistic for runs with too few samples to name a tail percentile."""
    if not values:
        raise ValueError("no samples")
    k = max(1, math.ceil(share * len(values)))
    return sum(sorted(values)[-k:]) / k


def count(values, weights=None):
    """Number of samples, counting multiplicities."""
    return float(len(values)) if weights is None else float(sum(weights))


def supported(n, q):
    """True when at least MIN_BEYOND of n samples lie beyond quantile q."""
    return n * (1.0 - q) >= MIN_BEYOND - 1e-9


def spread(values):
    """Interquartile range as a share of the median, with Python's default
    `statistics.quantiles(values, n=4)` quartiles."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else math.inf


def failure_share(attempted, failed):
    if attempted <= 0:
        raise ValueError("no operations attempted")
    return failed / attempted


def self_times(spans):
    """Per span name: (count, total seconds, self seconds), where a span's
    self time is its duration minus the durations of its direct children.
    `spans` are (id, parent, name, duration) tuples; parent 0 is a root."""
    children = {}
    for sid, parent, _name, dur in spans:
        if parent:
            children[parent] = children.get(parent, 0.0) + dur
    out = {}
    for sid, _parent, name, dur in spans:
        c, total, self_s = out.get(name, (0, 0.0, 0.0))
        out[name] = (c + 1, total + dur, self_s + max(0.0, dur - children.get(sid, 0.0)))
    return out


def layer_of(name):
    """The module a span name belongs to: its prefix before the first dot."""
    return name.split(".", 1)[0]


def ledger(spans, traced_wall_s):
    """Self time per layer as a share of the traced wall time, and the
    coverage: the share of traced wall time inside root spans."""
    if traced_wall_s <= 0:
        raise ValueError("no traced wall time")
    ids = {s[0] for s in spans}
    root_s = sum(dur for _sid, parent, _name, dur in spans if parent == 0 or parent not in ids)
    layers = {}
    for name, (_c, _total, self_s) in self_times(spans).items():
        layer = layer_of(name)
        layers[layer] = layers.get(layer, 0.0) + self_s / traced_wall_s
    return layers, root_s / traced_wall_s
