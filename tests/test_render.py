import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import numpy as np
import pytest

from chirpmap.colormap import viridis_hex
from chirpmap.errors import DataError
from chirpmap.models import fit_classifier
from chirpmap.models.knn import KnnConfig
from chirpmap.render import (
    BINARY_CLASS_COLORS,
    _escape,
    _runs,
    _scatter_canvas,
    MAGENTA,
    TEAL,
    boundary_grid,
    padded_window,
    render_bars,
    render_boundary,
    render_confusion,
    render_labeled_embedding,
    render_metric_bars,
    render_sensitivity,
)
from tests.conftest import make_blobs


PROV = {"config": "ff00", "seed": 9}


def parse(svg: str):
    return ET.fromstring(svg)


def test_bars_show_percentages_and_only_observed_categories():
    svg = render_bars({"S": 0.6, "NR": 0.4}, "outcomes", PROV)
    assert "60.0%" in svg and "40.0%" in svg
    assert "outcomes" in svg
    assert TEAL in svg and MAGENTA in svg
    assert svg.count("F<") == 0  # absent category never drawn
    parse(svg)


def test_render_is_deterministic():
    coords, labels = make_blobs([(-2.0, 0.0), (2.0, 0.0)], n_per=20, seed=1)
    a = render_labeled_embedding(coords, labels, "", PROV)
    b = render_labeled_embedding(coords, labels, "", PROV)
    assert a == b


def test_provenance_comment_sorted_keys():
    svg = render_bars({"S": 1.0}, "", {"seed": 9, "config": "ff00"})
    assert "<!-- provenance: config=ff00 seed=9 -->" in svg


def test_embedding_legend_lists_present_categories():
    coords = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    svg = render_labeled_embedding(coords, ["S", "F", "S"], "", PROV)
    assert ">S<" in svg and ">F<" in svg
    assert ">NR<" not in svg
    parse(svg)


def test_escape_equals_saxutils_escape():
    texts = ["", "plain", "a & b", "x > y < z", "&amp; &lt; &gt;", "&&<<>>",
             'say "hi" & \'bye\'', "<tag attr=\"v\">", "größe ≤ 5 → µ & ∞ 🐦"]
    for text in texts:
        assert _escape(text) == escape(text)


def test_markup_characters_in_title_and_legend_survive_parsing():
    title = 'R&D <s1> > "x"'
    coords = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    svg = render_labeled_embedding(coords, ["a&b", "<c>", "a&b"], title, PROV)
    texts = [el.text for el in parse(svg).iter("{http://www.w3.org/2000/svg}text")]
    assert title in texts
    assert "a&b" in texts and "<c>" in texts


def test_difficulty_levels_use_viridis():
    coords = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0], [3.0, 1.0]])
    svg = render_labeled_embedding(coords, [1, 2, 3, 4], "", PROV)
    for level in range(4):
        assert viridis_hex(level / 3.0) in svg


def test_boundary_grid_matches_model_predictions():
    x, y = make_blobs([(-3.0, 0.0), (3.0, 0.0)], n_per=25, seed=2)
    model = fit_classifier("knn", x, y)
    xc, yc, preds = boundary_grid(model, x, 12)
    assert preds.shape == (12, 12)
    pts = np.array([[xc[c], yc[r]] for r in range(12) for c in range(12)])
    direct = model.predict(pts).reshape(12, 12)
    assert np.array_equal(preds, direct)
    # centers are strictly inside the padded box and evenly spaced
    steps = np.diff(xc)
    assert np.allclose(steps, steps[0])


def test_boundary_svg_covers_both_regions():
    x, y = make_blobs([(-3.0, 0.0), (3.0, 0.0)], n_per=25, seed=2)
    model = fit_classifier("knn", x, y)
    svg = render_boundary(model, x, y, "", 24, PROV)
    assert BINARY_CLASS_COLORS[0] in svg and BINARY_CLASS_COLORS[1] in svg
    parse(svg)


def _scan_runs(row):
    """The per-cell scan the run finder replaced, kept as its reference."""
    runs, col = [], 0
    while col < row.size:
        cls = row[col]
        run = col
        while run < row.size and row[run] == cls:
            run += 1
        runs.append((col, run, int(cls)))
        col = run
    return runs


def test_boundary_runs_match_cell_scan():
    grid = np.random.default_rng(4).integers(0, 2, size=(40, 300))
    grid[0] = 1  # one run spanning the row
    grid[1, ::2] = 0  # runs of one cell
    grid[1, 1::2] = 1
    expected = [(r, *run) for r, row in enumerate(grid) for run in _scan_runs(row)]
    assert _runs(grid) == expected


# a window whose cells are not round numbers, in data units or in pixels
AWKWARD = np.array([[-3.17, 0.41], [2.93, 5.07], [0.13, -1.9], [1.01, 2.2]])


class RecordingModel:
    """Answers `answer(points)` and keeps every array `predict` is handed."""

    def __init__(self, answer):
        self.answer = answer
        self.seen = []

    def predict(self, points):
        self.seen.append(points)
        return self.answer(points)


@pytest.mark.parametrize("g", [2, 7, 301])
def test_boundary_grid_hands_predict_the_meshgrid_centres(g):
    x0, x1, y0, y1 = padded_window(AWKWARD)
    xc = x0 + (np.arange(g) + 0.5) * ((x1 - x0) / g)
    yc = y0 + (np.arange(g) + 0.5) * ((y1 - y0) / g)
    gx, gy = np.meshgrid(xc, yc)
    expected = np.column_stack([gx.ravel(), gy.ravel()])
    model = RecordingModel(lambda points: np.arange(len(points)) % 2)
    got_xc, got_yc, preds = boundary_grid(model, AWKWARD, g)
    [points] = model.seen
    assert got_xc.tobytes() == xc.tobytes() and got_yc.tobytes() == yc.tobytes()
    assert points.shape == expected.shape and points.dtype == expected.dtype
    assert points.flags.c_contiguous
    assert points.tobytes() == expected.tobytes()
    assert np.array_equal(preds, (np.arange(g * g) % 2).reshape(g, g))


def reference_region_rects(preds: np.ndarray) -> list[str]:
    """The region rects of `render_boundary`, each formatted from its own
    run as the per-rect expressions did."""
    g = preds.shape[0]
    _, frame = _scatter_canvas(AWKWARD, 640, 110, PROV)
    cell_w_px = frame.plot_w / g
    cell_h_px = frame.plot_h / g
    left, bottom = frame.left, frame.top + frame.plot_h
    return [f'<rect x="{left + start * cell_w_px:.2f}" y="{bottom - (row + 1) * cell_h_px:.2f}" '
            f'width="{(stop - start) * cell_w_px:.2f}" height="{cell_h_px:.2f}" '
            f'fill="{BINARY_CLASS_COLORS[cls % 2]}" fill-opacity="0.3"/>'
            for row, cells in enumerate(preds) for start, stop, cls in _scan_runs(cells)]


REGION_STUBS = {
    "alternating": lambda points: np.arange(len(points)) % 2,
    "disc": lambda points: (np.square(points - 1.0).sum(axis=1) < 6.0).astype(np.int64),
    "three-bands": lambda points: np.floor(points[:, 0] + points[:, 1]).astype(np.int64) % 3,
}


@pytest.mark.parametrize("stub", sorted(REGION_STUBS))
@pytest.mark.parametrize("g", [2, 7, 299, 301])
def test_region_rects_equal_the_per_rect_formatting(g, stub):
    model = RecordingModel(REGION_STUBS[stub])
    svg = render_boundary(model, AWKWARD, np.array([0, 1, 0, 1]), "", g, PROV)
    _, _, preds = boundary_grid(model, AWKWARD, g)
    regions = [line for line in svg.splitlines()
               if line.startswith("<rect") and "fill-opacity" in line]
    assert regions == reference_region_rects(preds)
    if stub == "alternating":
        assert len(regions) == g * g


def test_boundary_identical_points_is_an_error():
    pts = np.tile([[1.0, 1.0]], (4, 1))
    model = fit_classifier("knn", pts, np.array([0, 1, 0, 1]), config=KnnConfig(k=1))
    with pytest.raises(DataError, match="identical"):
        render_boundary(model, pts, np.array([0, 1, 0, 1]), "", 300, PROV)


def test_boundary_flat_axis_is_padded_not_fatal():
    # collinear points: the y span is zero but the x span is not
    x = np.array([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    y = np.array([0, 0, 1, 1])
    model = fit_classifier("knn", x, y, config=KnnConfig(k=1))
    svg = render_boundary(model, x, y, "", 8, PROV)
    parse(svg)


def test_sensitivity_uniform_magnitudes_use_midscale():
    coords = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    svg = render_sensitivity(coords, np.full(3, 0.7), "temporal_duration", PROV)
    assert viridis_hex(0.5) in svg
    assert "temporal_duration" in svg
    parse(svg)


def test_sensitivity_scale_bar_labels_extremes():
    coords = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0], [3.0, 3.0]])
    svg = render_sensitivity(coords, np.array([0.125, 0.5, 0.25, 4.0]), "f", PROV)
    assert "0.125" in svg and ">4<" in svg or "4.0" in svg or ">4</text>" in svg
    assert viridis_hex(0.0) in svg and viridis_hex(1.0) in svg


def test_confusion_prints_all_counts():
    confusions = {
        "knn": {"tp": 11, "fp": 3, "tn": 17, "fn": 5},
        "rf": {"tp": 9, "fp": 4, "tn": 16, "fn": 7},
    }
    svg = render_confusion(confusions, "", PROV)
    for value in (11, 3, 17, 5, 9, 4, 16, 7):
        assert f">{value}<" in svg
    assert "knn" in svg and "rf" in svg
    parse(svg)


def test_metric_bars_print_values():
    metrics = {"knn": {"accuracy": 0.875, "precision": 0.8, "recall": 0.75, "f1": 0.774}}
    svg = render_metric_bars(metrics, "", PROV)
    assert "0.875" in svg and "0.800" in svg and "0.750" in svg and "0.774" in svg
    assert "accuracy" in svg
    parse(svg)


def test_empty_inputs_rejected():
    with pytest.raises(DataError):
        render_bars({}, "", PROV)
    with pytest.raises(DataError):
        render_confusion({}, "", PROV)
