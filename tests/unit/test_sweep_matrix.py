"""Unit tests for the sweep matrix registry, filters and campaign sampling."""

from __future__ import annotations

import pytest

from repro.sweep.matrix import (
    MATRICES,
    Axis,
    MatrixError,
    ScenarioMatrix,
    campaign_sample,
    cell_key,
    matrix_by_name,
    parse_filter_args,
)

EXPECTED_CELL_COUNTS = {
    "model_size": 10,
    "weak_scaling": 10,
    "batch_size": 8,
    "ablation_nvme": 12,
    "ablation_multipath": 9,
    "engine_smoke": 6,
}


def test_registry_names_and_cell_counts():
    assert set(MATRICES) == set(EXPECTED_CELL_COUNTS)
    for name, expected in EXPECTED_CELL_COUNTS.items():
        matrix = matrix_by_name(name)
        cells = matrix.cells()
        assert len(cells) == expected == matrix.cell_count()
        # Every registered cell is distinct and carries the fixed parameters.
        assert len({cell_key(cell) for cell in cells}) == expected
        for cell in cells:
            for key, value in matrix.fixed.items():
                assert cell[key] == value


def test_unknown_matrix_lists_the_registry():
    with pytest.raises(MatrixError, match="weak_scaling"):
        matrix_by_name("nope")


def test_first_axis_varies_slowest():
    cells = matrix_by_name("weak_scaling").cells()
    # The figure ports rely on paper order: configs outer, engines inner.
    assert [cell["config"] for cell in cells[:4]] == ["40B@1", "40B@1", "70B@2", "70B@2"]
    assert [cell["engine"] for cell in cells[:2]] == ["DeepSpeed ZeRO-3", "MLP-Offload"]


def test_include_and_exclude_filters():
    matrix = matrix_by_name("weak_scaling")
    included = matrix.cells(include={"config": ["40B@1", "70B@2"]})
    assert len(included) == 4
    narrowed = matrix.cells(
        include={"config": ["40B@1", "70B@2"]}, exclude={"engine": ["DeepSpeed ZeRO-3"]}
    )
    assert [cell["engine"] for cell in narrowed] == ["MLP-Offload", "MLP-Offload"]


def test_filters_reject_unknown_axes():
    matrix = matrix_by_name("weak_scaling")
    with pytest.raises(MatrixError, match="include filter names unknown axes"):
        matrix.cells(include={"model": ["40B"]})
    with pytest.raises(MatrixError, match="exclude filter names unknown axes"):
        matrix.cells(exclude={"bogus": ["x"]})


def test_axis_validation():
    with pytest.raises(MatrixError, match="no values"):
        Axis("empty", ())
    with pytest.raises(MatrixError, match="duplicate values"):
        Axis("dup", ("a", "a"))
    with pytest.raises(MatrixError, match="not a JSON scalar"):
        Axis("bad", (("tuple",),))
    with pytest.raises(MatrixError, match="not a simple identifier"):
        Axis("bad name", ("a",))


def test_matrix_validation():
    axis = Axis("a", (1, 2))
    with pytest.raises(MatrixError, match="unknown kind"):
        ScenarioMatrix(name="m", kind="quantum", axes=(axis,))
    with pytest.raises(MatrixError, match="duplicate axis names"):
        ScenarioMatrix(name="m", kind="sim", axes=(axis, Axis("a", (3,))))
    with pytest.raises(MatrixError, match="fixed keys shadow axes"):
        ScenarioMatrix(name="m", kind="sim", axes=(axis,), fixed={"a": 9})


def test_campaign_sample_is_seed_deterministic():
    cells = matrix_by_name("engine_smoke").cells()
    first = campaign_sample(cells, 4, seed=11)
    again = campaign_sample(cells, 4, seed=11)
    other = campaign_sample(cells, 4, seed=12)
    assert first == again
    assert len(first) == 4
    assert first != other  # seeds 11 and 12 pick different 4-of-6 samples
    # Samples keep matrix order (stable resume paths + readable tables).
    keys = [cell_key(cell) for cell in cells]
    assert sorted(first, key=lambda c: keys.index(cell_key(c))) == first


def test_campaign_sample_bounds():
    cells = matrix_by_name("engine_smoke").cells()
    assert campaign_sample(cells, len(cells) + 5, seed=0) == cells
    with pytest.raises(MatrixError, match="positive"):
        campaign_sample(cells, 0, seed=0)


def test_parse_filter_args_merges_and_validates():
    parsed = parse_filter_args(["config=40B@1,70B@2", "config=100B@3", "engine=MLP-Offload"])
    assert parsed == {
        "config": ["40B@1", "70B@2", "100B@3"],
        "engine": ["MLP-Offload"],
    }
    assert parse_filter_args([]) == {}
    for bad in ("config", "=x", "config="):
        with pytest.raises(MatrixError, match="bad filter"):
            parse_filter_args([bad])
