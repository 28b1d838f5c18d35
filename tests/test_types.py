import numpy as np
import pytest

from berrri import Dataset, Hyperparameters, PlantedTruth, ValidationError, permute_labels
from berrri.types import BatchData


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

    @pytest.mark.parametrize("x_shape, y_shape, message", [
        ((0, 2), (0, 1), r"X has shape \(0, 2\): no individuals"),
        ((2, 0), (2, 1), r"X has shape \(2, 0\): no SNPs"),
        ((2, 2), (2, 0), r"Y has shape \(2, 0\): no traits"),
    ])
    def test_rejects_empty_axis(self, x_shape, y_shape, message):
        with pytest.raises(ValidationError, match=message):
            Dataset(X=np.zeros(x_shape), Y=np.zeros(y_shape))

    def test_rejects_repeated_ids(self):
        with pytest.raises(ValidationError, match="SNP ID 'a' appears twice, at indices 0 and 2"):
            Dataset(X=[[1, 0, 2]], Y=[[1.0]], snp_ids=("a", "b", "a"))
        with pytest.raises(ValidationError, match="trait ID 't' appears twice, at indices 0 and 1"):
            Dataset(X=[[1]], Y=[[1.0, 2.0]], trait_ids=("t", "t"))

    def test_rejects_non_finite_positions(self):
        with pytest.raises(ValidationError, match="snp_positions holds a non-finite value at index 0"):
            Dataset(X=[[1, 0]], Y=[[1.0]], snp_positions=[np.nan, 1.0])
        with pytest.raises(ValidationError, match="trait_positions holds a non-finite value at index 1"):
            Dataset(X=[[1]], Y=[[1.0, 2.0]], trait_positions=[5.0, np.inf])

    def test_holds_its_own_arrays(self):
        # a writable input and any view of it stay the caller's
        X = np.ones((3, 2))
        V = X[:]
        d = Dataset(X, np.zeros((3, 1)))
        assert d.x2sum.tolist() == [3.0, 3.0]
        V[0, 0] = 7.0
        assert d.X[0, 0] == 1.0 and d.x2sum.tolist() == (d.X**2).sum(axis=0).tolist()

    def test_leaves_the_callers_arrays_writable(self):
        X, Y = np.ones((3, 2)), np.zeros((3, 1))
        d = Dataset(X, Y)
        X[0, 1] = 2
        Y[0, 0] = 5.0
        assert d.X[0, 1] == 1.0 and d.Y[0, 0] == 0.0

    def test_records_built_from_one_another_share_arrays(self):
        d = Dataset(X=[[1, 0], [2, 1]], Y=[[0.5], [2.0]], snp_positions=[10.0, 20.0])
        permuted = permute_labels(d, 0)
        assert permuted.X is d.X and permuted.snp_positions is d.snp_positions

    def test_norms_computed_once_and_shared_with_batches(self):
        d = Dataset(X=[[1, 0], [2, 1]], Y=[[0.5, -1.0], [2.0, 3.0]])
        assert d.x2sum.tolist() == [5.0, 1.0] and d.yy == 14.25
        assert d.x2sum is d.x2sum and not d.x2sum.flags.writeable
        batch = BatchData([d, d])
        assert batch.x2sum is d.x2sum and batch.yy.tolist() == [14.25, 14.25]


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
            {"k_max": 2.5},
            {"max_iter": 101.5},
            {"seed": 1.5},
            {"k_max": True},
            {"seed": False},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValidationError):
            Hyperparameters(**kwargs)

    def test_counts_are_integers(self):
        hp = Hyperparameters(k_max=np.int64(3), max_iter=np.int32(200), seed=np.uint8(4))
        assert hp.resolve_k_max(10) == 3
        for name in ("k_max", "burn_in", "check_interval", "max_iter", "seed"):
            with pytest.raises(ValidationError, match=f"{name} must be an integer, got 1.5"):
                Hyperparameters(**{name: 1.5})


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

    def test_leaves_the_callers_arrays_writable(self):
        Z, A = np.array([[1]], dtype=np.int8), np.array([[0.5, 1.0]])
        truth = PlantedTruth(Z, A)
        assert Z.flags.writeable and A.flags.writeable
        A[0, 0] = 0.0
        assert truth.mask.tolist() == [[True, True]]

    def test_mask_ignores_exactly_zero_effects(self):
        Z = np.array([[1]])
        A = np.array([[0.0, 1.0]])
        assert (PlantedTruth(Z, A).mask == np.array([[False, True]])).all()
