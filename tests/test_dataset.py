import numpy as np
import pytest

from panelhmm.dataset import (
    ObservationPanel,
    RawCovariates,
    build_design,
    encode_drinks,
    load_covariates,
    load_observations,
    prior_drinking_index,
    save_observations,
    standardize,
    unstandardize,
)
from panelhmm.errors import DegenerateCovariateError, InputError


class TestEncodeDrinks:
    def test_zero_is_abstinent(self):
        assert encode_drinks(0, "male") == 1
        assert encode_drinks(0, "female") == 1

    def test_sex_specific_heavy_threshold(self):
        # heavy from 5 drinks for men, 4 for women
        assert encode_drinks(4, "male") == 2
        assert encode_drinks(5, "male") == 3
        assert encode_drinks(3, "female") == 2
        assert encode_drinks(4, "female") == 3

    def test_moderate_band(self):
        for n in (1, 2, 3):
            assert encode_drinks(n, "male") == 2
            assert encode_drinks(n, "female") == 2

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            encode_drinks(-1, "male")
        with pytest.raises(ValueError):
            encode_drinks(3, "other")


class TestPriorDrinkingIndex:
    def test_weights_heavy_days_double(self):
        assert prior_drinking_index(0.0, 0.0) == 0.0
        assert prior_drinking_index(1.0, 1.0) == 2.0
        assert prior_drinking_index(0.6, 0.2) == pytest.approx(0.8)

    def test_rejects_inconsistent_proportions(self):
        with pytest.raises(ValueError):
            prior_drinking_index(0.2, 0.5)
        with pytest.raises(ValueError):
            prior_drinking_index(1.2, 0.1)


class TestObservationPanel:
    def test_missing_cells_zeroed_and_frozen(self):
        codes = np.array([[1, 7, 3]])
        mask = np.array([[False, True, False]])
        panel = ObservationPanel(codes=codes, mask=mask)
        assert panel.codes[0, 1] == 0
        assert panel.mask[0, 1]
        with pytest.raises(ValueError):
            panel.codes[0, 0] = 2
        with pytest.raises(ValueError):
            panel.mask[0, 0] = True

    def test_rejects_out_of_range_observed_codes(self):
        with pytest.raises(InputError):
            ObservationPanel(codes=np.array([[4]]), mask=np.array([[False]]))
        with pytest.raises(InputError):
            ObservationPanel(codes=np.array([[0]]), mask=np.array([[False]]))

class TestLoadObservations:
    def test_round_trip(self, tmp_path, rng):
        codes = rng.integers(1, 4, (5, 9))
        mask = rng.random((5, 9)) < 0.2
        panel = ObservationPanel(codes=np.where(mask, 0, codes), mask=mask)
        path = tmp_path / "y.csv"
        save_observations(panel, path)
        back = load_observations(path)
        np.testing.assert_array_equal(back.codes, panel.codes)
        np.testing.assert_array_equal(back.mask, panel.mask)

    @pytest.mark.parametrize("sep", [",", ";", " ", "\t"])
    def test_delimiters(self, tmp_path, sep):
        path = tmp_path / "y.txt"
        path.write_text(sep.join("123") + "\n" + sep.join("321") + "\n")
        panel = load_observations(path)
        np.testing.assert_array_equal(panel.codes,
                                      [[1, 2, 3], [3, 2, 1]])

    def test_missing_tokens_case_insensitive(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_text("1,na,3\n2,,1\n")
        panel = load_observations(path)
        np.testing.assert_array_equal(panel.mask,
                                      [[False, True, False],
                                       [False, True, False]])

    def test_custom_missing_token(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_text("1,.,3\n")
        panel = load_observations(path, missing_token=".")
        assert panel.mask[0, 1]

    def test_error_messages_cite_line(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_text("1,2,3\n1,2\n")
        with pytest.raises(InputError, match=":2"):
            load_observations(path)
        path.write_text("1,2,3\n1,2,5\n")
        with pytest.raises(InputError, match=":2"):
            load_observations(path)
        path.write_text("1,2,x\n")
        with pytest.raises(InputError, match="'x'"):
            load_observations(path)
        # the first faulty line in file order is reported, whatever its fault
        for text, message in (("1,2,3\n1,2,3\n3,x ,1\n", ":3: invalid cell 'x'"),
                              ("1,2,3\n1,x,3\n1,2\n", ":2: invalid cell 'x'"),
                              ("1,2,3\n1,2\n1,x,3\n", r":2: ragged row \(2 cells"),
                              ("1,2,3\n\n1,x,7\n1,9,3\n", ":3: invalid cell 'x'"),
                              ("1,NA,3\n1,2,7\n2,x,3\n", ":2: code 7 outside")):
            path.write_text(text)
            with pytest.raises(InputError, match=message):
                load_observations(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_text("\n\n")
        with pytest.raises(InputError, match="no data"):
            load_observations(path)


class TestLoadCovariates:
    def test_numeric_and_word_codings(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text(
            "subject,treatment,sex,d_drink,d_heavy\n"
            "a,naltrexone,female,0.5,0.2\n"
            "b,0,male,0.1,0.0\n"
        )
        raw = load_covariates(path)
        np.testing.assert_array_equal(raw.treatment, [1.0, 0.0])
        np.testing.assert_array_equal(raw.sex, [1.0, 0.0])
        np.testing.assert_allclose(raw.d_drink, [0.5, 0.1])

    def test_missing_column(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("treatment,sex,d_drink\n1,0,0.5\n")
        with pytest.raises(InputError, match="d_heavy"):
            load_covariates(path)

    def test_bad_cell_cites_line(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("treatment,sex,d_drink,d_heavy\n1,0,0.5,0.2\n1,meh,0.5,0.2\n")
        with pytest.raises(InputError, match=":3"):
            load_covariates(path)

    def test_heavy_exceeding_drink_rejected(self):
        with pytest.raises(InputError, match="d_heavy"):
            RawCovariates(treatment=[0], sex=[0], d_drink=[0.2], d_heavy=[0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["d_drink", "d_heavy"])
    def test_non_finite_proportion_rejected(self, name, bad):
        values = {"d_drink": [0.5, 0.4], "d_heavy": [0.2, 0.1]}
        values[name][1] = bad
        with pytest.raises(InputError, match=name):
            RawCovariates(treatment=[0, 1], sex=[1, 0], **values)


class TestStandardize:
    def test_mean_zero_sd_half(self, rng):
        raw = rng.normal(3.0, 2.0, 200)
        std, rec = standardize(raw, name="v")
        assert std.mean() == pytest.approx(0.0, abs=1e-12)
        assert std.std() == pytest.approx(0.5, abs=1e-12)
        assert rec.scale == pytest.approx(2.0 * raw.std())

    def test_balanced_binary_maps_to_half_codes(self):
        std, _ = standardize(np.array([0, 0, 1, 1]))
        np.testing.assert_allclose(sorted(set(np.round(std, 12))), [-0.5, 0.5])

    def test_unstandardize_inverts(self, rng):
        raw = rng.normal(size=50)
        std, rec = standardize(raw)
        np.testing.assert_allclose(unstandardize(std, rec), raw, atol=1e-12)

    def test_constant_rejected(self):
        with pytest.raises(DegenerateCovariateError):
            standardize(np.ones(10), name="flat")


class TestBuildDesign:
    def test_shape_and_names(self, rng):
        raw = RawCovariates(treatment=[0, 1, 0, 1], sex=[0, 0, 1, 1],
                            d_drink=[0.1, 0.5, 0.9, 0.3],
                            d_heavy=[0.0, 0.2, 0.4, 0.3])
        design = build_design(raw, 7)
        assert design.values.shape == (4, 7, 4)
        assert design.names == ("treatment", "sex", "prior_drinking", "time")

    def test_subject_columns_constant_over_days(self):
        raw = RawCovariates(treatment=[0, 1], sex=[1, 0],
                            d_drink=[0.2, 0.6], d_heavy=[0.1, 0.3])
        design = build_design(raw, 5)
        for j in range(3):
            col = design.values[:, :, j]
            assert np.all(col == col[:, :1])

    def test_time_column_standardized_over_days(self):
        raw = RawCovariates(treatment=[0, 1], sex=[1, 0],
                            d_drink=[0.2, 0.6], d_heavy=[0.1, 0.3])
        design = build_design(raw, 9)
        t = design.values[0, :, design.column_index("time")]
        assert t.mean() == pytest.approx(0.0, abs=1e-12)
        assert t.std() == pytest.approx(0.5, abs=1e-12)
        assert np.all(np.diff(t) > 0)

    def test_unknown_covariate_name(self):
        raw = RawCovariates(treatment=[0, 1], sex=[1, 0],
                            d_drink=[0.2, 0.6], d_heavy=[0.1, 0.3])
        design = build_design(raw, 3)
        with pytest.raises(InputError):
            design.column_index("age")
