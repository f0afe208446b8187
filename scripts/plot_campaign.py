#!/usr/bin/env python3
"""Plot latency/throughput curves from lapses-merge --group-by output.

Input is the aggregate CSV that ``lapses-merge --group-by AXES``
writes (``--agg-out FILE`` or stdout): the grouped axis values, then
``runs`` and ``saturated``, then the metric columns, which are read
from the header. A statistic summarized as ``<name>_mean``/``_p50``/
``_p99`` gives ``<name>.png`` (``--stat`` picks the summary); any
other metric gives ``<column>.png`` when it has values.

The x axis defaults to the last grouped axis (conventionally ``load``
in a load sweep); every distinct combination of the remaining axes
becomes one curve. Saturated cells have empty metric fields and simply
end their curve, matching the paper's "Sat." table entries.

Example (the CI sharding job runs exactly this):

    lapses-merge ... --group-by traffic,load --agg-out agg.csv shard*.jsonl
    scripts/plot_campaign.py agg.csv --out-dir plots/
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

SUMMARY_STATS = ("mean", "p50", "p99")

# y-axis labels; a metric without one is labelled by its column name.
METRIC_LABELS = {
    "latency": "mean total latency (cycles)",
    "throughput": "accepted throughput (flits/node/cycle)",
}


def parse_aggregate(path):
    """Return (axes, metrics, rows); rows map column name -> string."""
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise SystemExit(f"{path}: empty aggregate file")
        # <axes...>,runs,saturated,<metrics...>
        split = header.index("saturated") if "saturated" in header else 0
        axes, metrics = header[:split - 1], header[split + 1:]
        if split < 1 or header[split - 1] != "runs" or not metrics:
            raise SystemExit(
                f"{path}: not a lapses-merge --group-by aggregate "
                f"(want <axes>,runs,saturated,<metrics> columns)")
        if not axes:
            raise SystemExit(f"{path}: no grouped axes in header")
        rows = []
        for line in reader:
            if len(line) != len(header):
                raise SystemExit(f"{path}: ragged row {line!r}")
            rows.append(dict(zip(header, line)))
    return axes, metrics, rows


def metric_plots(metrics, stat):
    """[(png name, column, always drawn)] for the metric columns."""
    plots = []
    for column in metrics:
        name, _, suffix = column.rpartition("_")
        if suffix in SUMMARY_STATS and all(
                f"{name}_{s}" in metrics for s in SUMMARY_STATS):
            if suffix == stat:
                plots.append((name, column, True))
        else:
            plots.append((column, column, False))
    return plots


def axis_value(value):
    """Numeric x where possible, else the literal string."""
    try:
        return float(value)
    except ValueError:
        return value


def build_series(axes, rows, x_axis, metric):
    """Map series-label -> sorted [(x, y)] for one metric column."""
    series_axes = [a for a in axes if a != x_axis]
    series = {}
    for row in rows:
        if row[metric] == "":
            continue  # saturated cell ("Sat." in the tables)
        label = ", ".join(f"{a}={row[a]}" for a in series_axes) or metric
        series.setdefault(label, []).append(
            (axis_value(row[x_axis]), float(row[metric])))
    for points in series.values():
        points.sort(key=lambda p: (isinstance(p[0], str), p[0]))
    return series


def plot_metric(plt, series, x_axis, metric, label, out_path):
    fig, ax = plt.subplots(figsize=(7, 4.5))
    for name in sorted(series):
        xs = [p[0] for p in series[name]]
        ys = [p[1] for p in series[name]]
        ax.plot(xs, ys, marker="o", markersize=3.5, linewidth=1.4,
                label=name)
    ax.set_xlabel(x_axis)
    ax.set_ylabel(label)
    ax.grid(True, linewidth=0.3, alpha=0.5)
    if series:
        ax.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig(out_path, dpi=130)
    plt.close(fig)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("aggregate",
                        help="aggregate CSV from lapses-merge --group-by")
    parser.add_argument("--x", dest="x_axis", default=None,
                        help="grouped axis for the x axis "
                             "(default: the last one)")
    parser.add_argument("--stat", default="mean",
                        choices=["mean", "p50", "p99"],
                        help="which summary statistic to plot")
    parser.add_argument("--out-dir", default=".",
                        help="directory for the PNGs")
    args = parser.parse_args(argv)

    axes, metrics, rows = parse_aggregate(args.aggregate)
    x_axis = args.x_axis or axes[-1]
    if x_axis not in axes:
        raise SystemExit(
            f"--x {x_axis!r} is not a grouped axis (have: "
            f"{', '.join(axes)})")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        raise SystemExit(
            "matplotlib is required for plotting; install it "
            "(e.g. apt install python3-matplotlib) and re-run")

    os.makedirs(args.out_dir, exist_ok=True)
    written = []
    for name, metric, always in metric_plots(metrics, args.stat):
        series = build_series(axes, rows, x_axis, metric)
        if not series and not always:
            continue  # e.g. request tails of an open-loop campaign
        out_path = os.path.join(args.out_dir, f"{name}.png")
        plot_metric(plt, series, x_axis, metric,
                    METRIC_LABELS.get(name, metric), out_path)
        written.append(out_path)
    print("wrote " + " ".join(written))
    return 0


if __name__ == "__main__":
    sys.exit(main())
