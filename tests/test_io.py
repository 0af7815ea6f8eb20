"""CSV/JSON export and the SVG renderer."""

import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from axisym import io as aio
from axisym import svg


def _fake_run(n=25, n_traces=4, seed=0):
    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(0.0, 10.0, n))
    states = rng.normal(size=(n, 6))
    labels = ["H", "X1", "X2", "Y3", "Y4"][:n_traces]
    traces = {lbl: rng.normal(size=n) for lbl in labels}
    return times, states, traces, labels


def test_csv_header_and_roundtrip(tmp_path):
    times, states, traces, labels = _fake_run()
    path = tmp_path / "run.csv"
    used = aio.write_trajectory_csv(str(path), times, states, traces)
    assert used == labels
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,x,y,z,px,py,pz," + ",".join(labels)
    assert len(lines) == times.size + 1
    # 17 significant digits: parsing back must be bit-exact
    data = np.loadtxt(str(path), delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 0], times)
    assert np.array_equal(data[:, 1:7], states)
    for j, lbl in enumerate(labels):
        assert np.array_equal(data[:, 7 + j], traces[lbl])


def _reference_csv(times, states, traces, labels):
    """The per-value writer the array writer replaced."""
    out = ["t,x,y,z,px,py,pz," + ",".join(labels) + "\n"]
    for i, t in enumerate(times):
        row = [t, *states[i, :6]] + [traces[lbl][i] for lbl in labels]
        out.append(",".join("%.17g" % float(v) for v in row) + "\n")
    return "".join(out)


def test_csv_bytes_equal_the_per_value_writer(tmp_path):
    # More rows than one write chunk, and every special value in every column.
    times, states, traces, labels = _fake_run(n=2500, n_traces=5, seed=3)
    table = np.column_stack([times, states, *(traces[lbl] for lbl in labels)])
    special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, -1e300, 0.1, 1.0, -3.5]
    for j in range(table.shape[1]):
        for k, v in enumerate(special):
            table[251 * k + 13 * j, j] = v
    times, states = table[:, 0], table[:, 1:7]
    traces = {lbl: table[:, 7 + j] for j, lbl in enumerate(labels)}
    assert table.shape[0] > aio.CSV_CHUNK_ROWS
    path = tmp_path / "run.csv"
    aio.write_trajectory_csv(str(path), times, states, traces)
    assert path.read_text() == _reference_csv(times, states, traces, labels)


@pytest.mark.parametrize("extra", [0, 1], ids=["one_chunk", "one_row_more"])
def test_csv_bytes_at_the_chunk_boundary(tmp_path, extra):
    times, states, traces, labels = _fake_run(n=aio.CSV_CHUNK_ROWS + extra, n_traces=5,
                                              seed=7)
    path = tmp_path / "run.csv"
    aio.write_trajectory_csv(str(path), times, states, traces)
    assert path.read_text() == _reference_csv(times, states, traces, labels)


def test_csv_trace_order_is_canonical(tmp_path):
    times, states, traces, _ = _fake_run(n_traces=5)
    shuffled = {k: traces[k] for k in ["Y4", "X2", "H", "Y3", "X1"]}
    used = aio.write_trajectory_csv(str(tmp_path / "run.csv"), times, states,
                                    shuffled)
    assert used == ["H", "X1", "X2", "Y3", "Y4"]


def test_meta_and_reports_serialize_numpy_types(tmp_path):
    meta_path = tmp_path / "meta.json"
    aio.write_meta(str(meta_path), {
        "drift": np.float64(1e-12),
        "steps": np.int64(400),
        "state": np.arange(3.0),
        "singular_in": frozenset({"r", "z"}),
    })
    loaded = json.loads(meta_path.read_text())
    assert loaded["steps"] == 400
    assert loaded["state"] == [0.0, 1.0, 2.0]
    assert loaded["singular_in"] == ["r", "z"]

    rep_path = tmp_path / "reports.json"
    aio.write_reports(str(rep_path), [{"check": "x", "pass": True}])
    assert json.loads(rep_path.read_text())[0]["pass"] is True

    with pytest.raises(TypeError):
        aio.write_meta(str(tmp_path / "bad.json"), {"fn": lambda: None})


def test_project_views():
    pts = np.asarray([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert np.array_equal(svg.project(pts, "xy"), pts[:, :2])
    assert np.array_equal(svg.project(pts, "xz"), pts[:, (0, 2)])
    assert np.array_equal(svg.project(pts, "yz"), pts[:, 1:])
    assert svg.project(pts, "3d").shape == (2, 2)
    with pytest.raises(ValueError):
        svg.project(pts, "zz")


def test_render_polyline_document():
    theta = np.linspace(0.0, 2.0 * np.pi, 40)
    pts = np.column_stack([np.cos(theta), np.sin(theta)])
    doc = svg.render_polyline(pts, title="circle", annotation="closes")
    root = ET.fromstring(doc)  # well-formed XML
    assert root.tag.endswith("svg")
    assert 'version="1.1"' in doc
    assert 'fill="white"' in doc
    lines = [el for el in root.iter() if el.tag.endswith("line")]
    assert len(lines) == 39
    assert lines[0].get("stroke") == "#ff0000"     # red at the start
    assert lines[-1].get("stroke") == "#0000ff"    # blue at the end
    assert "closes" in doc and "circle" in doc


def _reference_polyline(points2d, title="", annotation=None, max_segments=1500):
    """render_polyline as it was, with pixel coordinates taken point by point."""
    pts = np.asarray(points2d, dtype=float)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    pad = svg.MARGIN_FRAC * float(np.max(span))
    lo = lo - pad
    hi = hi + pad
    scale = svg.CANVAS / float(np.max(hi - lo))
    size = (hi - lo) * scale

    def to_px(p):
        q = (p - lo) * scale
        return q[0], size[1] - q[1]

    n = pts.shape[0]
    if n - 1 > max_segments:
        idx = np.unique(np.linspace(0, n - 1, max_segments + 1).astype(int))
        pts = pts[idx]
        n = pts.shape[0]
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size[0]:.1f}" height="{size[1]:.1f}" '
        f'viewBox="0 0 {size[0]:.1f} {size[1]:.1f}">',
        f'<rect width="100%" height="100%" fill="white"/>',
    ]
    if title:
        parts.append(f'<title>{title}</title>')
    for i in range(n - 1):
        x1, y1 = to_px(pts[i])
        x2, y2 = to_px(pts[i + 1])
        c = svg._color(i / max(n - 2, 1))
        parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{c}" stroke-width="1.2" stroke-linecap="round"/>'
        )
    if annotation:
        parts.append(
            f'<text x="8" y="18" font-family="sans-serif" font-size="14" '
            f'fill="#333">{annotation}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


@pytest.mark.parametrize("n", [2, 10, 1501, 1502, 3000, "constant"])
def test_render_polyline_equals_the_per_point_renderer(n):
    # 1501 points are the last count drawn whole with the default 1500
    # segments; 1502 and 3000 take the thinning path.  A constant orbit
    # projects to one point, drawn on the smallest span.
    if n == "constant":
        pos = np.tile([0.25, -1.5, 3.0], (40, 1))
    else:
        rng = np.random.default_rng(n)
        pos = np.cumsum(rng.normal(size=(n, 3)), axis=0)
    for which in svg.PROJECTIONS:
        pts = svg.project(pos, which)
        assert svg.render_polyline(pts, title=which, annotation="closes") == \
            _reference_polyline(pts, title=which, annotation="closes")


def test_render_polyline_caps_segment_count():
    t = np.linspace(0.0, 1.0, 10_000)
    pts = np.column_stack([t, t * t])
    doc = svg.render_polyline(pts, max_segments=100)
    assert doc.count("<line ") <= 100


def test_render_polyline_rejects_bad_input():
    with pytest.raises(ValueError):
        svg.render_polyline(np.zeros((1, 2)))
    with pytest.raises(ValueError):
        svg.render_polyline(np.zeros((5, 3)))


def test_write_projections_creates_four_views(tmp_path):
    theta = np.linspace(0.0, 4.0 * np.pi, 100)
    pos = np.column_stack([np.cos(theta), np.sin(theta), 0.1 * theta])
    paths = svg.write_projections(str(tmp_path / "orbit"), pos, title="orbit")
    assert len(paths) == 4
    for p in paths:
        ET.parse(p)  # each file parses standalone
    names = {p.rsplit("_", 1)[-1] for p in paths}
    assert names == {"xy.svg", "xz.svg", "yz.svg", "3d.svg"}
