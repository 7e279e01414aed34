"""Tests for result records, tables and series."""

import pytest

from repro.utils.records import ResultRecord, ResultTable, SeriesRecord, rows_to_csv


class TestResultRecord:
    def test_getitem_and_contains(self):
        record = ResultRecord({"a": 1, "b": 2})
        assert record["a"] == 1
        assert "b" in record
        assert "c" not in record

    def test_get_with_default(self):
        record = ResultRecord({"a": 1})
        assert record.get("missing", 7) == 7

    def test_as_dict_returns_copy(self):
        record = ResultRecord({"a": 1})
        data = record.as_dict()
        data["a"] = 99
        assert record["a"] == 1


class TestResultTable:
    def test_add_row_and_len(self):
        table = ResultTable(title="t")
        table.add_row(x=1, y=2)
        table.add_row(x=3, y=4)
        assert len(table) == 2

    def test_column_extraction(self):
        table = ResultTable(title="t")
        table.add_row(x=1, y=2)
        table.add_row(x=3)
        assert table.column("x") == [1, 3]
        assert table.column("y") == [2, None]

    def test_columns_union_in_order(self):
        table = ResultTable(title="t")
        table.add_row(a=1)
        table.add_row(b=2, a=3)
        assert table.columns() == ["a", "b"]

    def test_filter(self):
        table = ResultTable(title="t")
        table.add_row(kind="x", value=1)
        table.add_row(kind="y", value=2)
        filtered = table.filter(kind="x")
        assert len(filtered) == 1
        assert filtered.rows[0]["value"] == 1

    def test_to_csv_round_trip(self):
        table = ResultTable(title="t")
        table.add_row(a=1, b="hello")
        csv_text = table.to_csv()
        assert "a,b" in csv_text.splitlines()[0]
        assert "1,hello" in csv_text

    def test_format_contains_all_cells(self):
        table = ResultTable(title="my table")
        table.add_row(name="alpha", value=0.125)
        text = table.format()
        assert "my table" in text
        assert "alpha" in text
        assert "0.125" in text

    def test_format_empty_table(self):
        assert "(empty)" in ResultTable(title="t").format()

    def test_iteration(self):
        table = ResultTable(title="t")
        table.add_row(x=1)
        assert [row["x"] for row in table] == [1]

    def test_filter_copies_metadata_and_can_match_nothing(self):
        table = ResultTable(title="t", metadata={"seed": 3})
        table.add_row(kind="x", value=1)
        table.add_row(kind="x", value=2)
        assert len(table.filter(kind="x", value=2)) == 1
        empty = table.filter(kind="z")
        assert len(empty) == 0
        assert empty.title == "t"
        empty.metadata["seed"] = 99
        assert table.metadata == {"seed": 3}

    def test_format_aligns_columns_and_rounds_floats(self):
        table = ResultTable(title="t")
        table.add_row(name="a", value=1.0 / 3.0)
        table.add_row(name="longer", value=2)
        lines = table.format(float_precision=3).splitlines()
        assert lines[1].split() == ["name", "value"]
        assert lines[3].split() == ["a", "0.333"]
        # Every row pads the first column to the widest cell.
        assert lines[3].index("0.333") == lines[4].index("2") == len("longer") + 2


class TestSeriesRecord:
    def test_append_and_len(self):
        series = SeriesRecord(label="s")
        series.append(0, 1.0)
        series.append(1, 2.0)
        assert len(series) == 2
        assert series.points() == [(0.0, 1.0), (1.0, 2.0)]

    def test_final_value(self):
        series = SeriesRecord(label="s", x=[0, 1], y=[5.0, 7.0])
        assert series.final_value() == 7.0

    def test_tail_mean(self):
        series = SeriesRecord(label="s", x=list(range(8)), y=[0, 0, 0, 0, 1, 1, 1, 1])
        assert series.tail_mean(0.5) == pytest.approx(1.0)

    def test_tail_mean_empty_raises(self):
        with pytest.raises(ValueError):
            SeriesRecord(label="s").tail_mean()

    def test_tail_mean_invalid_fraction(self):
        series = SeriesRecord(label="s", x=[0], y=[1.0])
        with pytest.raises(ValueError):
            series.tail_mean(0.0)

    def test_tail_mean_keeps_at_least_the_last_sample(self):
        series = SeriesRecord(label="s", x=[0, 1, 2], y=[1.0, 2.0, 9.0])
        assert series.tail_mean(0.01) == 9.0
        assert series.tail_mean(1.0) == pytest.approx(4.0)

    def test_final_value_of_empty_series_raises(self):
        with pytest.raises(IndexError):
            SeriesRecord(label="s").final_value()


class TestRowsToCsv:
    def test_column_subset_and_order(self):
        rows = [ResultRecord({"a": 1, "b": 2}), ResultRecord({"a": 3, "b": 4})]
        text = rows_to_csv(rows, columns=["b", "a"])
        lines = text.strip().splitlines()
        assert lines[0] == "b,a"
        assert lines[1] == "2,1"

    def test_missing_columns_become_empty(self):
        rows = [ResultRecord({"a": 1})]
        text = rows_to_csv(rows, columns=["a", "z"])
        assert text.strip().splitlines()[1] == "1,"

    def test_default_columns_are_the_union_in_first_seen_order(self):
        rows = [ResultRecord({"b": 1}), ResultRecord({"a": 2, "b": 3})]
        assert rows_to_csv(rows).splitlines() == ["b,a", "1,", "3,2"]
