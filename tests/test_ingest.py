import numpy as np
import pytest

from chirpmap.errors import DataError
from chirpmap.ingest import (
    CANONICAL_COLUMNS,
    FEATURE_NAMES,
    apply_weights,
    class_distribution,
    load_records,
    records_to_matrix,
    standardize,
    subsample_records,
)

HEADER = ",".join(CANONICAL_COLUMNS)


def write_csv(path, rows, header=HEADER):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return str(path)


GOOD_ROWS = [
    "a,1.5,12.0,30.0,S,1",
    "b,2.5,14.0,20.0,NR,3",
    "c,0.5,18.0,25.0,F,4",
    "d,3.5,11.0,40.0,S,2",
]


def test_load_records_accepts_valid_rows(tmp_path):
    records, report = load_records(write_csv(tmp_path / "ok.csv", GOOD_ROWS))
    assert report.n_input == 4
    assert report.n_rejected == 0
    assert [r.id for r in records] == ["a", "b", "c", "d"]
    assert tuple(records_to_matrix(records)[0]) == (1.5, 12.0, 30.0)
    assert records[1].outcome == "NR"
    assert records[2].difficulty == 4


@pytest.mark.parametrize(
    "row, reason_bit",
    [
        ("x,,12.0,30.0,S,1", "missing"),
        ("x,nan,12.0,30.0,S,1", "finite"),
        ("x,inf,12.0,30.0,S,1", "finite"),
        ("x,-1.0,12.0,30.0,S,1", "positive"),
        ("x,0.0,12.0,30.0,S,1", "positive"),
        ("x,1.0,12.0,30.0,Q,1", "outcome"),
        ("x,1.0,12.0,30.0,S,5", "difficulty"),
        ("x,1.0,12.0,30.0,S,0", "difficulty"),
        (",1.0,12.0,30.0,S,1", "missing value (id)"),
        ("x,abc,12.0,30.0,S,1", "invalid number (temporal_duration)"),
        ("x,1.0,12.0,30.0,,1", "missing value (outcome)"),
        ("x,1.0,12.0,30.0,S,", "missing value (difficulty)"),
        ("x,1.0,12.0,30.0,S,hard", "invalid number (difficulty)"),
        ("x,1.0,12.0,30.0,S,2.5", "difficulty out of range (2.5)"),
        ("x,1.0,12.0,30.0,S,inf", "difficulty out of range (inf)"),
    ],
)
def test_load_records_rejects_bad_rows(tmp_path, row, reason_bit):
    records, report = load_records(write_csv(tmp_path / "bad.csv", GOOD_ROWS + [row]))
    assert len(records) == 4
    assert report.n_rejected == 1
    row_number, reason = report.rejected[0]
    assert row_number == 5  # 1-based over data rows
    assert reason_bit in reason.lower()


def test_rejection_report_text(tmp_path):
    _, report = load_records(write_csv(tmp_path / "r.csv", GOOD_ROWS + ["x,,1,1,S,1"]))
    text = report.to_text()
    assert text.startswith("row 5: ")
    assert text.endswith("\n")


def test_load_records_schema_mapping(tmp_path):
    header = "case,dur,f0,span,label,grade"
    schema = {
        "id": "case",
        "temporal_duration": "dur",
        "frequency_onset": "f0",
        "spectral_duration": "span",
        "outcome": "label",
        "difficulty": "grade",
    }
    path = write_csv(tmp_path / "mapped.csv", GOOD_ROWS, header=header)
    records, report = load_records(path, schema=schema)
    assert report.n_rejected == 0
    assert records[0].id == "a"


def test_load_records_custom_delimiter(tmp_path):
    rows = [r.replace(",", ";") for r in GOOD_ROWS]
    path = write_csv(tmp_path / "semi.csv", rows, header=HEADER.replace(",", ";"))
    records, _ = load_records(path, delimiter=";")
    assert len(records) == 4


def test_load_records_missing_file():
    with pytest.raises(DataError):
        load_records("/nonexistent/chirps.csv")


def test_standardize_matches_population_moments(tmp_path):
    records, _ = load_records(write_csv(tmp_path / "s.csv", GOOD_ROWS))
    values, scaling = standardize(records_to_matrix(records))
    assert np.allclose(values.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(values.std(axis=0), 1.0, atol=1e-12)
    raw = records_to_matrix(records)
    for j, (mean, sd) in enumerate(scaling):
        assert mean == pytest.approx(raw[:, j].mean())
        assert sd == pytest.approx(raw[:, j].std())  # population, not sample


def test_standardize_constant_column_is_an_error(tmp_path):
    rows = ["a,2.0,10.0,30.0,S,1", "b,2.0,14.0,20.0,NR,3", "c,2.0,18.0,25.0,F,4"]
    records, _ = load_records(write_csv(tmp_path / "c.csv", rows))
    with pytest.raises(DataError, match="temporal"):
        standardize(records_to_matrix(records))


def test_apply_weights_scales_standardized_columns(tmp_path):
    records, _ = load_records(write_csv(tmp_path / "w.csv", GOOD_ROWS))
    std, _ = standardize(records_to_matrix(records))
    weighted = apply_weights(std, (2.0, 1.0, 0.5))
    assert np.allclose(weighted, std * np.array([2.0, 1.0, 0.5]))


def test_class_distribution_proportions(tmp_path):
    records, _ = load_records(write_csv(tmp_path / "d.csv", GOOD_ROWS))
    dist = class_distribution(records)
    assert dist["outcome"] == {"S": 0.5, "NR": 0.25, "F": 0.25}
    assert dist["difficulty"] == {1: 0.25, 2: 0.25, 3: 0.25, 4: 0.25}
    assert list(dist["outcome"]) == ["S", "NR", "F"]  # canonical order


def test_subsample_is_seeded_and_order_preserving(tmp_path):
    rows = [f"r{i},{1.0 + i},{10.0 + i},{20.0 + i},S,1" for i in range(20)]
    records, _ = load_records(write_csv(tmp_path / "sub.csv", rows))
    a = subsample_records(records, 7, seed=11)
    b = subsample_records(records, 7, seed=11)
    assert [r.id for r in a] == [r.id for r in b]
    assert len(a) == 7
    positions = [records.index(r) for r in a]
    assert positions == sorted(positions)
    assert subsample_records(records, 99, seed=0) == records


def test_feature_names_are_the_canonical_three():
    assert FEATURE_NAMES == ("temporal_duration", "frequency_onset", "spectral_duration")
    assert CANONICAL_COLUMNS == ("id",) + FEATURE_NAMES + ("outcome", "difficulty")
