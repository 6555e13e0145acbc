"""Static SVG figures.

Every figure is assembled as plain SVG 1.1 text with fixed-precision
coordinates, so identical inputs produce byte-identical documents. No
raster formats, no plotting library. Each figure fixes its own size,
margins and axis labels; callers give the data, the title, the
provenance every document carries in a comment, and the grid resolution.

Palette: class 0 / outcome S is teal, class 1 / outcome NR is magenta,
outcome F is cyan; difficulty levels and sensitivity magnitudes go
through the viridis lookup table. Hex values are project constants
(captions name the colors only).
"""

from __future__ import annotations

import numpy as np

from .colormap import viridis_hex
from .errors import DataError

TEAL = "#008080"
MAGENTA = "#ff00ff"
CYAN = "#00ffff"

OUTCOME_COLORS = {"S": TEAL, "NR": MAGENTA, "F": CYAN}
BINARY_CLASS_COLORS = (TEAL, MAGENTA)  # class 0, class 1

# the share of each axis's span added on both sides of a scatter's points
_PAD = 0.05


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _escape(text: str) -> str:
    """`xml.sax.saxutils.escape`, whose import pulls in the network stack."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


class _Svg:
    """Accumulates SVG elements; deterministic text out."""

    def __init__(self, width: int, height: int, provenance: dict):
        self.width = width
        self.height = height
        self.parts: list[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}" version="1.1">'
        ]
        fields = " ".join(f"{k}={provenance[k]}" for k in sorted(provenance))
        self.parts.append(f"<!-- provenance: {_escape(fields)} -->")
        self.parts.append(f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>')

    def rects(self, xs, ys, widths, heights, fills, opacity=None, stroke=None):
        """One rect per (x, y, width, height, fill), all with the given
        opacity and stroke; one f-string each. The numbers come as text,
        as `_fmt` writes them."""
        tail = "" if opacity is None else f' fill-opacity="{opacity}"'
        tail += "" if stroke is None else f' stroke="{stroke}"'
        self.parts += [
            f'<rect x="{x}" y="{y}" width="{w}" height="{h}" fill="{fill}"{tail}/>'
            for x, y, w, h, fill in zip(xs, ys, widths, heights, fills)
        ]

    def rect(self, x, y, w, h, fill, opacity=None, stroke=None):
        self.rects((_fmt(x),), (_fmt(y),), (_fmt(w),), (_fmt(h),), (fill,), opacity, stroke)

    def circles(self, xs, ys, r, fills, opacity=None):
        """One circle of radius r per (x, y, fill), all with the given
        opacity; one f-string each, numbers as `_fmt` writes them."""
        tail = f' r="{_fmt(r)}" fill="'
        end = '"/>' if opacity is None else f'" fill-opacity="{opacity}"/>'
        self.parts += [f'<circle cx="{x:.2f}" cy="{y:.2f}"{tail}{fill}{end}'
                       for x, y, fill in zip(xs, ys, fills)]

    def line(self, x1, y1, x2, y2, stroke="#333333", width=1.0):
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="{_fmt(width)}"/>'
        )

    def text(self, x, y, content, size=12, anchor="start", fill="#222222", bold=False):
        weight = ' font-weight="bold"' if bold else ""
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="Helvetica,Arial,sans-serif" '
            f'font-size="{size}" text-anchor="{anchor}" fill="{fill}"{weight}>{_escape(str(content))}</text>'
        )

    def to_string(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _categorical_palette(categories) -> dict:
    palette = {}
    for cat in categories:
        key = str(cat)
        if key in OUTCOME_COLORS:
            palette[cat] = OUTCOME_COLORS[key]
        elif key in {"1", "2", "3", "4"}:
            palette[cat] = viridis_hex((int(key) - 1) / 3.0)
        else:
            palette[cat] = "#888888"
    return palette


def render_bars(distribution: dict, title: str, provenance: dict) -> str:
    """Bar chart of category proportions with the percentage printed on
    every bar. Categories keep their input order; absent categories never
    appear.
    """
    if not distribution:
        raise DataError("empty distribution")
    palette = _categorical_palette(distribution.keys())
    svg = _Svg(640, 480, provenance)
    svg.text(svg.width / 2, 24, title, size=15, anchor="middle", bold=True)

    left, right, top, bottom = 60, 20, 48, 56
    plot_w = svg.width - left - right
    plot_h = svg.height - top - bottom
    cats = list(distribution.keys())
    vmax = max(distribution.values())
    if vmax <= 0:
        raise DataError("distribution has no positive proportions")
    slot = plot_w / len(cats)
    bar_w = slot * 0.6

    svg.line(left, svg.height - bottom, svg.width - right, svg.height - bottom)
    svg.line(left, top, left, svg.height - bottom)
    for i, cat in enumerate(cats):
        v = distribution[cat]
        h = plot_h * (v / vmax)
        x = left + i * slot + (slot - bar_w) / 2
        y = svg.height - bottom - h
        svg.rect(x, y, bar_w, h, palette[cat])
        svg.text(x + bar_w / 2, y - 6, f"{100.0 * v:.1f}%", anchor="middle", size=12)
        svg.text(x + bar_w / 2, svg.height - bottom + 18, str(cat), anchor="middle", size=12)
    return svg.to_string()


def padded_window(coords: np.ndarray) -> tuple[float, float, float, float]:
    """(x0, x1, y0, y1), the bounding box of coords padded by _PAD of each
    span (a zero span borrows half the other), of zero size for identical
    points. Coordinates whose squares overflow are a DataError, raised
    without a RuntimeWarning: the box's squared width plus squared height
    and the sum of the squares of all coordinates must be finite."""
    x_min, x_max = float(coords[:, 0].min()), float(coords[:, 0].max())
    y_min, y_max = float(coords[:, 1].min()), float(coords[:, 1].max())
    span_x, span_y = x_max - x_min, y_max - y_min
    dx = span_x * _PAD if span_x > 0 else max(span_x, span_y) * 0.5
    dy = span_y * _PAD if span_y > 0 else max(span_x, span_y) * 0.5
    x0, x1, y0, y1 = x_min - dx, x_max + dx, y_min - dy, y_max + dy
    with np.errstate(over="ignore"):
        squares = np.square([x1 - x0, y1 - y0]).sum() + np.square(coords).sum()
    if not np.isfinite(squares):
        raise DataError("padded bounding box overflows: the squares of its width and height or "
                        "of the coordinates do not sum to a finite number")
    return x0, x1, y0, y1


def _data_window(coords: np.ndarray) -> tuple[float, float, float, float]:
    x0, x1, y0, y1 = window = padded_window(coords)
    if x0 == x1 and y0 == y1:
        raise DataError("degenerate bounding box: all points identical")
    return window


class _Frame:
    """Maps data coordinates into the pixel plot area (y flipped)."""

    def __init__(self, window, left, top, plot_w, plot_h):
        self.x0, self.x1, self.y0, self.y1 = window
        self.left, self.top = left, top
        self.plot_w, self.plot_h = plot_w, plot_h

    def pixels(self, coords: np.ndarray) -> tuple[list[float], list[float]]:
        """The pixel x and y of every point of coords (n x 2), one array
        expression per axis."""
        xs = self.left + (coords[:, 0] - self.x0) / (self.x1 - self.x0) * self.plot_w
        ys = self.top + (self.y1 - coords[:, 1]) / (self.y1 - self.y0) * self.plot_h
        return xs.tolist(), ys.tolist()


def _scatter_canvas(coords, height: int, right: int, provenance: dict) -> tuple[_Svg, _Frame]:
    """The 640 px wide document and the plot frame of a scatter over coords'
    padded window, with `right` pixels kept beside the plot for its legend."""
    left, top, bottom = 52, 44, 44
    frame = _Frame(_data_window(coords), left, top, 640 - left - right, height - top - bottom)
    return _Svg(640, height, provenance), frame


def _draw_frame(svg: _Svg, frame: _Frame, title: str | None) -> None:
    """The plot's border, then the title unless it is None (the caller
    draws it later), then the t-SNE axis labels."""
    svg.rect(frame.left, frame.top, frame.plot_w, frame.plot_h, "none", stroke="#333333")
    if title is not None:
        svg.text(svg.width / 2, 24, title, size=15, anchor="middle", bold=True)
    svg.text(frame.left + frame.plot_w / 2, svg.height - 10, "t-SNE x", anchor="middle")
    svg.text(14, frame.top + frame.plot_h / 2, "t-SNE y")


def _draw_legend(svg: _Svg, frame: _Frame, entries) -> None:
    """One swatch per (name, color), stacked right of the plot."""
    lx = frame.left + frame.plot_w + 14
    for i, (name, color) in enumerate(entries):
        ly = frame.top + 12 + i * 20
        svg.rect(lx, ly - 9, 12, 12, color)
        svg.text(lx + 18, ly + 1, name, size=12)


def render_labeled_embedding(coords, labels, title: str, provenance: dict) -> str:
    """Scatter of embedding points colored by category, with a legend
    listing only the categories actually present.
    """
    coords = np.atleast_2d(np.asarray(coords, dtype=np.float64))
    labels = list(labels)
    if coords.shape[0] != len(labels):
        raise DataError("labels misaligned with coords")
    if coords.shape[0] == 0:
        raise DataError("no points to draw")
    present = sorted(set(labels), key=str)
    palette = _categorical_palette(present)

    svg, frame = _scatter_canvas(coords, 480, 110, provenance)
    _draw_frame(svg, frame, title)
    svg.circles(*frame.pixels(coords), 2.5, [palette[lab] for lab in labels], opacity=0.8)
    _draw_legend(svg, frame, [(str(cat), palette[cat]) for cat in present])
    return svg.to_string()


def boundary_grid(model, coords, g: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Class predictions on a uniform g x g grid of cell centers spanning
    the padded bounding box of coords. Returns (x_centers, y_centers,
    predictions[g, g]) with predictions[row, col] at (x_centers[col],
    y_centers[row]).

    Random forests and k-NN models answer through `predict_grid`, which
    uses the grid's two sorted axes: a forest paints its leaf boxes, and
    k-NN fills each grid tile whose possible neighbours share one class
    with that class, and answers each other tile by `predict` on a model
    of its possible neighbours. Both give `predict`'s classes bit for bit.
    The other kinds call `predict` once on every center: one (g, g, 2)
    buffer, filled from the two axes, read as g * g row-major rows
    (x_centers[col], y_centers[row]).
    """
    coords = np.atleast_2d(np.asarray(coords, dtype=np.float64))
    if g < 2:
        raise DataError("grid resolution must be at least 2")
    x0, x1, y0, y1 = _data_window(coords)
    cell_w = (x1 - x0) / g
    cell_h = (y1 - y0) / g
    xc = x0 + (np.arange(g) + 0.5) * cell_w
    yc = y0 + (np.arange(g) + 0.5) * cell_h
    if hasattr(model, "predict_grid"):
        return xc, yc, np.asarray(model.predict_grid(xc, yc), dtype=np.int64)
    points = np.empty((g, g, 2))
    points[:, :, 0] = xc
    points[:, :, 1] = yc[:, None]
    preds = np.asarray(model.predict(points.reshape(-1, 2)), dtype=np.int64).reshape(g, g)
    return xc, yc, preds


def _runs(grid: np.ndarray) -> list[tuple[int, int, int, int]]:
    """(row, start, stop, value) for each maximal run of equal values
    within a row, rows in order and each row left to right."""
    n_cols = grid.shape[1]
    starts_run = np.ones(grid.shape, dtype=bool)
    starts_run[:, 1:] = grid[:, 1:] != grid[:, :-1]
    starts = np.flatnonzero(starts_run)
    # every row's first cell starts a run, so a row's last run stops where
    # the next row's first run starts
    stops = np.append(starts[1:], grid.size)
    rows, cols = np.divmod(starts, n_cols)
    return list(zip(rows.tolist(), cols.tolist(), (stops - rows * n_cols).tolist(),
                    grid.ravel()[starts].tolist()))


def render_boundary(model, coords, labels, title: str, g: int, provenance: dict) -> str:
    """Decision regions under the training scatter.

    The model is evaluated at every cell center of a g x g grid over the
    padded bounding box; runs of equal predictions merge into single
    rects per row. Class 0 fills teal, class 1 magenta; the true points
    draw on top in full color.

    A rect's x takes one value per start column, its y one per row and
    its width one per run length, so each value is written once, with
    `_fmt`, and every rect looks its text up.
    """
    _, _, preds = boundary_grid(model, coords, g)
    svg, frame = _scatter_canvas(coords, 640, 110, provenance)

    cell_w_px = frame.plot_w / g
    cell_h_px = frame.plot_h / g
    left, bottom = frame.left, frame.top + frame.plot_h
    x_text = [_fmt(left + start * cell_w_px) for start in range(g)]
    # pixel y of the TOP edge of each row's cells (rows follow yc, ascending data y)
    y_text = [_fmt(bottom - (row + 1) * cell_h_px) for row in range(g)]
    width_text = [_fmt(length * cell_w_px) for length in range(g + 1)]
    rows, starts, stops, classes = zip(*_runs(preds))
    svg.rects(
        [x_text[start] for start in starts],
        [y_text[row] for row in rows],
        [width_text[stop - start] for start, stop in zip(starts, stops)],
        [_fmt(cell_h_px)] * len(rows),
        [BINARY_CLASS_COLORS[cls % 2] for cls in classes],
        opacity=0.30,
    )
    _draw_frame(svg, frame, title)
    svg.circles(*frame.pixels(coords), 2.5, [BINARY_CLASS_COLORS[int(lab) % 2] for lab in labels])
    _draw_legend(svg, frame, zip(("class 0", "class 1"), BINARY_CLASS_COLORS))
    return svg.to_string()


def render_sensitivity(coords, magnitudes, feature_name: str, provenance: dict) -> str:
    """Embedding scatter colored by combined attribution magnitude, titled
    with the feature's name.

    Magnitudes are min-max normalized (smallest -> 0, largest -> 1) and
    mapped through viridis; a vertical color-scale legend shows the raw
    min and max. A uniform map (zero span) renders at mid-scale.
    """
    coords = np.atleast_2d(np.asarray(coords, dtype=np.float64))
    mags = np.asarray(magnitudes, dtype=np.float64)
    if coords.shape[0] != mags.shape[0]:
        raise DataError("magnitudes misaligned with coords")
    if coords.shape[0] == 0:
        raise DataError("no points to draw")
    lo, hi = float(mags.min()), float(mags.max())
    span = hi - lo
    t = np.full(mags.shape, 0.5) if span == 0 else (mags - lo) / span

    svg, frame = _scatter_canvas(coords, 480, 120, provenance)
    _draw_frame(svg, frame, None)  # the feature's name follows the axis labels
    svg.text(svg.width / 2, 24, feature_name, size=15, anchor="middle", bold=True)
    svg.circles(*frame.pixels(coords), 2.5, [viridis_hex(ti) for ti in t.tolist()], opacity=0.9)

    # color scale: stacked samples of the colormap, max at the top
    bar_x = frame.left + frame.plot_w + 24
    bar_h = frame.plot_h * 0.7
    bar_y = frame.top + (frame.plot_h - bar_h) / 2
    n_stops = 50
    step = bar_h / n_stops
    for i in range(n_stops):
        ti = 1.0 - (i + 0.5) / n_stops
        svg.rect(bar_x, bar_y + i * step, 16, step + 0.5, viridis_hex(ti))
    svg.text(bar_x + 22, bar_y + 10, f"{hi:.3g}", size=11)
    svg.text(bar_x + 22, bar_y + bar_h, f"{lo:.3g}", size=11)
    return svg.to_string()


def render_confusion(confusions: dict, title: str, provenance: dict) -> str:
    """2x2 confusion grids, one per classifier, counts printed in every
    cell; shading scales with the count.
    """
    if not confusions:
        raise DataError("no confusion matrices to draw")
    svg = _Svg(760, 260, provenance)
    svg.text(svg.width / 2, 22, title, size=15, anchor="middle", bold=True)

    names = list(confusions.keys())
    slot_w = svg.width / len(names)
    grid = 64.0
    top = 70.0
    for k, name in enumerate(names):
        cm = confusions[name]
        cells = {
            (0, 0): ("TP", cm["tp"]),
            (0, 1): ("FN", cm["fn"]),
            (1, 0): ("FP", cm["fp"]),
            (1, 1): ("TN", cm["tn"]),
        }
        total = max(1, cm["tp"] + cm["fp"] + cm["tn"] + cm["fn"])
        ox = k * slot_w + (slot_w - 2 * grid) / 2
        svg.text(ox + grid, top - 26, name, anchor="middle", size=12, bold=True)
        svg.text(ox - 6, top + grid, "actual", anchor="end", size=10)
        svg.text(ox + grid, top - 8, "predicted", anchor="middle", size=10)
        for (r, c), (label, count) in sorted(cells.items()):
            shade = count / total
            fill = viridis_hex(shade)
            x = ox + c * grid
            y = top + r * grid
            svg.rect(x, y, grid, grid, fill, stroke="#333333")
            text_color = "#ffffff" if shade < 0.5 else "#111111"
            svg.text(x + grid / 2, y + grid / 2 - 4, label, anchor="middle", size=10, fill=text_color)
            svg.text(x + grid / 2, y + grid / 2 + 12, str(count), anchor="middle", size=12, fill=text_color, bold=True)
    return svg.to_string()


def render_metric_bars(metrics_by_classifier: dict, title: str, provenance: dict) -> str:
    """Grouped bars: one group per classifier, one bar per metric, with
    the numeric value printed above each bar.
    """
    if not metrics_by_classifier:
        raise DataError("no metrics to draw")
    metric_names = ("accuracy", "precision", "recall", "f1")
    metric_colors = {
        "accuracy": "#4c78a8",
        "precision": "#f58518",
        "recall": "#54a24b",
        "f1": "#b279a2",
    }
    svg = _Svg(760, 360, provenance)
    svg.text(svg.width / 2, 22, title, size=15, anchor="middle", bold=True)

    left, right, top, bottom = 56, 20, 56, 64
    plot_w = svg.width - left - right
    plot_h = svg.height - top - bottom
    names = list(metrics_by_classifier.keys())
    slot = plot_w / len(names)
    bar_w = slot / (len(metric_names) + 1)
    base_y = svg.height - bottom

    svg.line(left, base_y, svg.width - right, base_y)
    svg.line(left, top, left, base_y)
    for frac in (0.25, 0.5, 0.75, 1.0):
        gy = base_y - plot_h * frac
        svg.line(left - 4, gy, left, gy)
        svg.text(left - 8, gy + 4, f"{frac:.2f}", anchor="end", size=10)
    for k, name in enumerate(names):
        vals = metrics_by_classifier[name]
        for m, metric in enumerate(metric_names):
            v = float(vals[metric])
            h = plot_h * min(max(v, 0.0), 1.0)
            x = left + k * slot + (m + 0.5) * bar_w
            svg.rect(x, base_y - h, bar_w * 0.9, h, metric_colors[metric])
            svg.text(x + bar_w * 0.45, base_y - h - 4, f"{v:.3f}", anchor="middle", size=9)
        svg.text(left + k * slot + slot / 2, base_y + 16, name, anchor="middle", size=11)
    for m, metric in enumerate(metric_names):
        lx = left + m * 120
        svg.rect(lx, svg.height - 28, 10, 10, metric_colors[metric])
        svg.text(lx + 14, svg.height - 19, metric, size=11)
    return svg.to_string()
