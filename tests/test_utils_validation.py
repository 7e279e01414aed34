"""Tests for input-validation helpers."""

import numpy as np
import pytest

from repro.utils.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
    check_probability_vector,
    check_square_matrix,
    check_stochastic_matrix,
)


class TestScalars:
    def test_check_positive_accepts(self):
        assert check_positive(0.5, "x") == 0.5

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_check_positive_rejects(self, value):
        with pytest.raises(ValueError):
            check_positive(value, "x")

    def test_check_non_negative_accepts_zero(self):
        assert check_non_negative(0.0, "x") == 0.0

    def test_check_non_negative_rejects_negative(self):
        with pytest.raises(ValueError):
            check_non_negative(-0.1, "x")

    def test_check_fraction_inclusive_bounds(self):
        assert check_fraction(0.0, "x") == 0.0
        assert check_fraction(1.0, "x") == 1.0

    def test_check_fraction_exclusive(self):
        with pytest.raises(ValueError):
            check_fraction(0.0, "x", inclusive=False)

    def test_check_fraction_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            check_fraction(1.5, "x")

    def test_error_message_names_argument(self):
        with pytest.raises(ValueError, match="my_arg"):
            check_positive(-1, "my_arg")


class TestProbabilityVector:
    def test_accepts_valid(self):
        result = check_probability_vector([0.25, 0.75], "p")
        assert result.sum() == pytest.approx(1.0)

    def test_renormalises_tiny_drift(self):
        result = check_probability_vector([0.5, 0.5 + 1e-12], "p")
        assert result.sum() == pytest.approx(1.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_probability_vector([-0.1, 1.1], "p")

    def test_rejects_wrong_sum(self):
        with pytest.raises(ValueError):
            check_probability_vector([0.2, 0.2], "p")

    def test_rejects_empty_and_2d(self):
        with pytest.raises(ValueError):
            check_probability_vector([], "p")
        with pytest.raises(ValueError):
            check_probability_vector([[0.5, 0.5]], "p")


class TestMatrices:
    def test_square_matrix_ok(self):
        matrix = check_square_matrix([[1, 2], [3, 4]], "m")
        assert matrix.shape == (2, 2)

    def test_square_matrix_rejects_rectangular(self):
        with pytest.raises(ValueError):
            check_square_matrix([[1, 2, 3], [4, 5, 6]], "m")

    def test_square_matrix_rejects_nan(self):
        with pytest.raises(ValueError):
            check_square_matrix([[np.nan, 1], [0, 1]], "m")

    def test_stochastic_matrix_ok(self):
        matrix = check_stochastic_matrix([[0.3, 0.7], [1.0, 0.0]], "m")
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0)

    def test_stochastic_matrix_rejects_bad_row_sum(self):
        with pytest.raises(ValueError, match="row 1 sums to 0.7") as excinfo:
            check_stochastic_matrix([[0.5, 0.5], [0.5, 0.2]], "m")
        assert "np.float64(" not in str(excinfo.value)

    def test_stochastic_matrix_rejects_negative(self):
        with pytest.raises(ValueError):
            check_stochastic_matrix([[1.2, -0.2], [0.5, 0.5]], "m")
