import numpy as np
import pytest

from berrri import Dataset, Hyperparameters, PlantedTruth, ValidationError


class TestDataset:
    def test_accepts_valid_dosages(self):
        d = Dataset(X=[[0, 1], [2, 1]], Y=[[0.5, -1.0], [2.0, 3.0]])
        assert d.n_individuals == 2 and d.n_snps == 2 and d.n_traits == 2
        assert d.snp_ids == ("snp0", "snp1")

    def test_rejects_out_of_support_genotype(self):
        with pytest.raises(ValidationError, match="SNP 1"):
            Dataset(X=[[0, 3.0]], Y=[[1.0]])

    def test_rejects_fractional_genotype(self):
        with pytest.raises(ValidationError, match="dosage"):
            Dataset(X=[[0.5]], Y=[[1.0]])

    def test_rejects_non_finite_traits(self):
        with pytest.raises(ValidationError, match="non-finite"):
            Dataset(X=[[1]], Y=[[np.nan]])

    def test_rejects_row_mismatch(self):
        with pytest.raises(ValidationError, match="2 rows.*1 rows"):
            Dataset(X=[[1], [2]], Y=[[1.0]])

    def test_rejects_label_count_mismatch(self):
        with pytest.raises(ValidationError, match="labels"):
            Dataset(X=[[1, 0]], Y=[[1.0]], snp_ids=("a",))

    def test_arrays_are_read_only(self):
        d = Dataset(X=[[1]], Y=[[1.0]])
        with pytest.raises(ValueError):
            d.X[0, 0] = 0.0

    def test_position_shape_checked(self):
        with pytest.raises(ValidationError, match="snp_positions"):
            Dataset(X=[[1, 0]], Y=[[1.0]], snp_positions=[1.0])


class TestHyperparameters:
    def test_defaults_valid(self):
        hp = Hyperparameters()
        assert hp.resolve_k_max(200) == 50
        assert hp.resolve_k_max(12) == 12
        assert Hyperparameters(k_max=7).resolve_k_max(1000) == 7

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0},
            {"sigma2": -1.0},
            {"c": 0.0},
            {"d": float("nan")},
            {"k_max": 0},
            {"p_thresh": 1.0},
            {"p_thresh": 0.0},
            {"burn_in": 500, "max_iter": 500},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValidationError):
            Hyperparameters(**kwargs)


class TestVariationalState:
    def test_validate_passes_on_consistent_state(self):
        from conftest import random_state

        random_state().validate()

    def test_validate_rejects_eta_outside_unit_interval(self):
        from conftest import random_state

        st = random_state()
        st.eta[0, 0] = 1.5
        with pytest.raises(ValidationError, match="eta"):
            st.validate()

    def test_validate_rejects_nonpositive_varphi(self):
        from conftest import random_state

        st = random_state()
        st.varphi[0, 0] = 0.0
        with pytest.raises(ValidationError, match="varphi"):
            st.validate()

    def test_effective_k_counts_live_columns(self):
        from conftest import random_state

        st = random_state(q=3, k=2)
        st.eta[:, 0] = 0.9
        st.eta[:, 1] = 0.2
        assert st.effective_k() == 1


class TestPlantedTruth:
    def test_mask_rule(self):
        Z = np.array([[1, 0], [0, 1], [0, 0]])
        A = np.array([[0.5, 0.0], [0.0, -0.3]])
        truth = PlantedTruth(Z, A)
        expected = np.array([[True, False], [False, True], [False, False]])
        assert (truth.mask == expected).all()

    def test_mask_ignores_exactly_zero_effects(self):
        Z = np.array([[1]])
        A = np.array([[0.0, 1.0]])
        assert (PlantedTruth(Z, A).mask == np.array([[False, True]])).all()
