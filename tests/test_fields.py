"""Field containers, algebra, norms, transforms, dealiasing, snapshots."""

import json

import numpy as np
import pytest
import scipy.fft

from metacont.fields import (
    SNAPSHOT_LAYOUT,
    FieldError,
    GridError,
    ScalarField,
    TensorField,
    VectorField,
    _dealias_factor,
    _k_vector,
    _mode_indices,
    cross,
    dealias_field,
    dealias_mask,
    dot,
    fftn_array,
    ifftn_array,
    make_grid,
    mode_coefficient,
    norm_l2,
    norm_linf,
    read_snapshot,
    spectral_norm_l2,
    write_snapshot,
)

from helpers import GRID_64, band_limited_scalar, identity_tensor, sine_scalar

TWO_PI = 2.0 * np.pi


class TestMakeGrid:
    def test_basic_2d(self):
        g = make_grid((64, 64, 1), (TWO_PI, TWO_PI, TWO_PI))
        assert g.dims == (64, 64, 1)
        np.testing.assert_allclose(g.spacing, (TWO_PI / 64, TWO_PI / 64, TWO_PI))
        assert g.active == (True, True, False)

    def test_odd_active_dim_rejected(self):
        with pytest.raises(GridError):
            make_grid((3, 64, 1), (TWO_PI, TWO_PI, TWO_PI))

    def test_too_small_active_dim_rejected(self):
        with pytest.raises(GridError):
            make_grid((2, 64, 1), (TWO_PI, TWO_PI, TWO_PI))

    @pytest.mark.parametrize("dims", [(16.7, 16, 1), (16, 16, True), (16, 16, 1.0),
                                      (16, 16, np.bool_(True))])
    def test_non_integer_dim_rejected(self, dims):
        # int() would truncate these to a valid grid
        with pytest.raises(GridError, match="dims"):
            make_grid(dims, (TWO_PI, TWO_PI, TWO_PI))

    def test_numpy_integer_dims_accepted(self):
        g = make_grid((np.int64(16), np.int32(8), np.uint8(1)), (TWO_PI,) * 3)
        assert g.dims == (16, 8, 1)
        assert all(type(n) is int for n in g.dims)

    def test_unit_box_3d(self):
        g = make_grid((128, 128, 128), (1.0, 1.0, 1.0))
        np.testing.assert_allclose(g.spacing, (1 / 128, 1 / 128, 1 / 128))

    def test_nonpositive_length_rejected(self):
        with pytest.raises(GridError):
            make_grid((64, 64, 1), (0.0, TWO_PI, TWO_PI))
        with pytest.raises(GridError):
            make_grid((64, 64, 1), (TWO_PI, -1.0, TWO_PI))

    def test_spacing_consistency(self):
        g = make_grid((48, 96, 1), (1.5, 3.0, 2.0))
        for h, L, n in zip(g.spacing, g.lengths, g.dims):
            assert h == L / n

    def test_equal_grids_hash_equal_and_share_the_cached_symbols(self):
        # the hash is computed once, from the normalized dims and lengths, so
        # a grid built from numpy integers and ints as lengths finds the same
        # per-grid cache entries as its plain twin
        g = make_grid((24, 12, 1), (1.5, 3.0, 2.0))
        twin = make_grid([np.int64(24), 12, np.uint8(1)], [1.5, 3, 2])
        assert twin == g and twin is not g
        assert hash(twin) == hash(g) == hash(((24, 12, 1), (1.5, 3.0, 2.0)))
        assert _k_vector(twin) is _k_vector(g)
        assert _dealias_factor(twin) is _dealias_factor(g)
        assert make_grid((24, 12, 1), (1.5, 3.0, 2.5)) != g


class TestFieldConstruction:
    def test_values_are_immutable(self):
        f = ScalarField.zeros(GRID_64)
        with pytest.raises(ValueError):
            f.values[0, 0, 0] = 1.0

    def test_nonfinite_rejected(self):
        bad = np.zeros(GRID_64.shape)
        bad[1, 2, 0] = np.nan
        with pytest.raises(FieldError):
            ScalarField(GRID_64, bad)
        bad[1, 2, 0] = np.inf
        with pytest.raises(FieldError):
            ScalarField(GRID_64, bad)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(FieldError):
            ScalarField(GRID_64, np.zeros((8, 8, 1)))

    def test_vector_components_share_grid(self):
        other = make_grid((32, 32, 1), (TWO_PI, TWO_PI, TWO_PI))
        mixed = (np.zeros(GRID_64.shape), np.zeros(other.shape),
                 np.zeros(GRID_64.shape))
        with pytest.raises(FieldError):
            VectorField(GRID_64, mixed)

    def test_tensor_layout(self):
        # T_ij is values[i, j]
        t = identity_tensor(GRID_64)
        assert t.values[0, 0].max() == 1.0
        assert t.values[0, 1].max() == 0.0


class TestAlgebra:
    def test_grid_mismatch_raises(self):
        other = make_grid((32, 32, 1), (TWO_PI, TWO_PI, TWO_PI))
        with pytest.raises(FieldError):
            ScalarField.zeros(GRID_64) + ScalarField.zeros(other)

    def test_vector_scalar_product(self):
        v = VectorField(GRID_64, (np.ones(GRID_64.shape),) * 3)
        s = ScalarField.full(GRID_64, 2.0)
        out = v * s
        for arr in out.values:
            np.testing.assert_array_equal(arr, np.full(GRID_64.shape, 2.0))

    def test_cross_and_dot(self):
        ex = VectorField(
            GRID_64, (np.ones(GRID_64.shape), np.zeros(GRID_64.shape), np.zeros(GRID_64.shape)))
        ey = VectorField(
            GRID_64, (np.zeros(GRID_64.shape), np.ones(GRID_64.shape), np.zeros(GRID_64.shape)))
        ez = cross(ex, ey)
        np.testing.assert_array_equal(ez.z.values, np.ones(GRID_64.shape))
        assert norm_linf(dot(ex, ey)) == 0.0

    def test_determinism_bitwise(self):
        a = band_limited_scalar(GRID_64, seed=5)
        b = band_limited_scalar(GRID_64, seed=6)
        first = ((a + b) * 0.5 - b).values
        second = ((a + b) * 0.5 - b).values
        np.testing.assert_array_equal(first, second)


class TestNorms:
    def test_zero_field(self):
        assert norm_l2(ScalarField.zeros(GRID_64)) == 0.0
        assert norm_linf(VectorField.zeros(GRID_64)) == 0.0

    def test_sine_l2_closed_form(self):
        # integral of sin^2 over the box is volume/2; volume = (2*pi)^3
        f = sine_scalar(GRID_64, axis=0, k=1)
        expected = np.sqrt((TWO_PI ** 3) / 2.0)
        assert abs(norm_l2(f) - expected) < 1e-12

    def test_const_linf(self):
        assert norm_linf(ScalarField.full(GRID_64, -3.5)) == 3.5


class TestSpectral:
    def test_const_field_only_zero_mode(self):
        coeffs = fftn_array(GRID_64, ScalarField.full(GRID_64, 4.0).values)
        assert abs(coeffs[0, 0, 0] - 4.0 * GRID_64.num_points) < 1e-9
        coeffs[0, 0, 0] = 0.0
        assert np.max(np.abs(coeffs)) < 1e-9

    def test_sine_two_conjugate_modes(self):
        coeffs = np.abs(fftn_array(GRID_64, sine_scalar(GRID_64, axis=0, k=1).values))
        # sin(x) = (e^{ix} - e^{-ix}) / (2i): modes m=+1 and m=-1 only
        n = GRID_64.num_points
        assert abs(coeffs[1, 0, 0] - n / 2) < 1e-8
        assert abs(coeffs[-1, 0, 0] - n / 2) < 1e-8
        coeffs[1, 0, 0] = coeffs[-1, 0, 0] = 0.0
        assert np.max(coeffs) < 1e-8

    def test_round_trip_seed_42(self):
        rng = np.random.default_rng(42)
        f = ScalarField(GRID_64, rng.standard_normal(GRID_64.shape))
        back = ifftn_array(GRID_64, fftn_array(GRID_64, f.values))
        err = np.max(np.abs(back - f.values)) / np.max(np.abs(f.values))
        assert err < 1e-13

    @pytest.mark.parametrize("dims", [(8, 6, 1), (4, 6, 8), (1, 1, 1)])
    def test_inverse_transform_owns_contiguous_memory(self, dims):
        grid = make_grid(dims, (TWO_PI, TWO_PI, TWO_PI))
        rng = np.random.default_rng(3)
        back = ifftn_array(grid, fftn_array(grid, rng.standard_normal(dims)))
        assert back.dtype == np.float64
        assert back.flags.c_contiguous
        assert back.flags.owndata

    @pytest.mark.parametrize("dims", [(32, 32, 32), (12, 10, 14), (6, 10, 12)])
    def test_forward_passes_run_in_ascending_axis_order(self, dims):
        # pocketfft's n-d order, which scipy.fft.rfftn keeps; numpy's rfftn
        # runs the complex passes last axis first and rounds differently
        grid = make_grid(dims, (TWO_PI, TWO_PI, TWO_PI))
        values = np.random.default_rng(5).standard_normal((3,) + dims)
        expected = scipy.fft.rfftn(values, axes=(1, 2, 3))
        assert fftn_array(grid, values).tobytes() == expected.tobytes()
        assert np.fft.rfftn(values, axes=(1, 2, 3)).tobytes() != expected.tobytes()

    @pytest.mark.parametrize("dims", [(6, 10, 1), (30, 1, 28), (1, 12, 10),
                                      (12, 10, 14)])
    def test_inverse_scales_once_by_the_point_count(self, dims):
        # a 1/n on every pass, as numpy's irfftn does, rounds differently
        # wherever an active dim is not a power of two
        grid = make_grid(dims, (TWO_PI, TWO_PI, TWO_PI))
        rng = np.random.default_rng(5)
        axes = [1 + i for i, n in enumerate(dims) if n > 1]
        coeffs = scipy.fft.rfftn(rng.standard_normal((3,) + dims), axes=axes)
        coeffs += 1j * rng.standard_normal(coeffs.shape)
        s = [dims[a - 1] for a in axes]
        expected = scipy.fft.irfftn(coeffs, s=s, axes=axes)
        assert ifftn_array(grid, coeffs).tobytes() == expected.tobytes()
        per_pass = np.fft.irfftn(coeffs, s=s, axes=axes)
        assert per_pass.tobytes() != expected.tobytes()

    def test_parseval(self):
        f = band_limited_scalar(GRID_64, seed=7, fraction=0.5)
        phys = norm_l2(f)
        spec = spectral_norm_l2(GRID_64, fftn_array(GRID_64, f.values))
        assert abs(phys - spec) / phys < 1e-12

    def test_mode_coefficient_of_sine(self):
        f = sine_scalar(GRID_64, axis=0, k=1) * 0.25
        c = mode_coefficient(f, (1, 0, 0))
        assert abs(c - (-0.125j)) < 1e-12


class TestDealias:
    def test_low_mode_unchanged(self):
        f = sine_scalar(GRID_64, axis=0, k=1)
        out = dealias_field(f)
        np.testing.assert_allclose(out.values, f.values, atol=1e-13)

    def test_high_mode_removed(self):
        f = sine_scalar(GRID_64, axis=0, k=31)
        out = dealias_field(f)
        assert norm_linf(out) < 1e-13

    def test_cutoff_boundary(self):
        # n=64: keep |m| <= 21, zero |m| >= 22
        kept = dealias_field(sine_scalar(GRID_64, axis=0, k=21))
        removed = dealias_field(sine_scalar(GRID_64, axis=0, k=22))
        assert norm_linf(kept) > 0.9
        assert norm_linf(removed) < 1e-13

    def test_cutoff_boundary_along_the_halved_axis(self):
        # y is the last active axis, which keeps only modes 0..32
        kept = dealias_field(sine_scalar(GRID_64, axis=1, k=21))
        removed = dealias_field(sine_scalar(GRID_64, axis=1, k=22))
        assert norm_linf(kept) > 0.9
        assert norm_linf(removed) < 1e-13

    def test_white_noise_energy_nonincreasing(self):
        rng = np.random.default_rng(11)
        f = ScalarField(GRID_64, rng.standard_normal(GRID_64.shape))
        coeffs = fftn_array(GRID_64, f.values)
        before = spectral_norm_l2(GRID_64, coeffs)
        after = spectral_norm_l2(GRID_64, coeffs * dealias_mask(GRID_64))
        assert after <= before
        assert after < before  # white noise always has content above the cutoff

    def test_dealias_field_matches_spectral_path(self):
        f = band_limited_scalar(GRID_64, seed=3, fraction=0.49)
        a = dealias_field(f)
        b = ifftn_array(GRID_64, fftn_array(GRID_64, f.values) * dealias_mask(GRID_64))
        np.testing.assert_allclose(a.values, b, atol=1e-14)

    def test_default_mask_keeps_the_modes_within_n_over_3(self):
        # the default bound n * (1/3) is a different float from n / 3.0 for
        # many n, yet keeps the same integer modes, along a full axis (x) and
        # along the halved one (y)
        for n in range(4, 8193, 2):
            for dims in ((n, 4, 1), (4, n, 1)):
                g = make_grid(dims, (2 * np.pi,) * 3)
                mx, my, _ = _mode_indices(g)
                expected = (np.abs(mx) <= dims[0] / 3.0) & (np.abs(my) <= dims[1] / 3.0)
                np.testing.assert_array_equal(dealias_mask(g), expected)


class TestSnapshots:
    def test_scalar_round_trip(self, tmp_path):
        f = band_limited_scalar(GRID_64, seed=9)
        write_snapshot(tmp_path, [("p", f)], time=1.25)
        fields, meta = read_snapshot(tmp_path)
        assert list(fields) == ["p"]
        assert type(fields["p"]) is ScalarField
        np.testing.assert_array_equal(fields["p"].values, f.values)
        assert meta["layout"] == SNAPSHOT_LAYOUT
        assert meta["time"] == 1.25
        assert meta["dims"] == [64, 64, 1]
        assert meta["fields"] == {"p": []}

    def test_vector_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        v = VectorField(GRID_64, rng.standard_normal((3,) + GRID_64.shape))
        t = TensorField(GRID_64, rng.standard_normal((3, 3) + GRID_64.shape))
        paths = write_snapshot(tmp_path, [("v", v), ("t", t)], time=0.0)
        # one .f64 per field, then the one sidecar
        assert [p.name for p in paths] == ["v.f64", "t.f64", "snapshot.json"]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "snapshot.json", "t.f64", "v.f64"]
        fields, meta = read_snapshot(tmp_path)
        assert type(fields["v"]) is VectorField
        assert type(fields["t"]) is TensorField
        np.testing.assert_array_equal(fields["v"].values, v.values)
        np.testing.assert_array_equal(fields["t"].values, t.values)
        assert meta["fields"]["v"] == ["x", "y", "z"]
        assert meta["fields"]["t"][:4] == ["xx", "xy", "xz", "yx"]

    def test_raw_bytes_are_little_endian_row_major(self, tmp_path):
        arr = np.arange(3 * GRID_64.num_points, dtype=float).reshape(
            (3,) + GRID_64.shape)
        v = VectorField(GRID_64, arr)
        write_snapshot(tmp_path, [("f", v.x), ("v", v)], time=0.0)
        decoded = np.frombuffer((tmp_path / "f.f64").read_bytes(), dtype="<f8")
        np.testing.assert_array_equal(decoded, arr[0].ravel(order="C"))
        # a vector's file is its x, y and z components joined, in that order
        decoded = np.frombuffer((tmp_path / "v.f64").read_bytes(), dtype="<f8")
        np.testing.assert_array_equal(decoded, arr.ravel(order="C"))
        sidecar = json.loads((tmp_path / "snapshot.json").read_text())
        assert sidecar["fields"] == {"f": [], "v": ["x", "y", "z"]}

    def test_fields_on_different_grids_rejected(self, tmp_path):
        other = make_grid((32, 32, 1), (TWO_PI, TWO_PI, TWO_PI))
        with pytest.raises(FieldError, match="one grid"):
            write_snapshot(tmp_path, [("a", ScalarField.zeros(GRID_64)),
                                      ("b", ScalarField.zeros(other))], time=0.0)
        assert not list(tmp_path.iterdir())

    def test_data_size_not_matching_dims_names_the_file(self, tmp_path):
        for name in ("f", "v"):
            directory = tmp_path / name
            write_snapshot(directory, [("f", ScalarField.zeros(GRID_64)),
                                       ("v", VectorField.zeros(GRID_64))], time=0.0)
            data = directory / f"{name}.f64"
            data.write_bytes(data.read_bytes()[:-8])
            with pytest.raises(FieldError, match=f"{name}.f64"):
                read_snapshot(directory)

    @pytest.mark.parametrize("key, value", [
        pytest.param("dims", None, id="dims"),
        pytest.param("lengths", None, id="lengths"),
        pytest.param("time", None, id="time"),
        pytest.param("dims", [7, 8, 1], id="odd-dims"),
        pytest.param("lengths", [0, 1, 1], id="zero-length"),
        pytest.param("dims", 5, id="dims-not-a-list"),
    ])
    def test_sidecar_without_grid_names_the_file(self, tmp_path, key, value):
        write_snapshot(tmp_path, [("v", VectorField.zeros(GRID_64))], time=0.0)
        sidecar = tmp_path / "snapshot.json"
        meta = json.loads(sidecar.read_text())
        if value is None:
            del meta[key]
        else:
            meta[key] = value
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(FieldError, match="snapshot.json"):
            read_snapshot(tmp_path)

    @pytest.mark.parametrize("not_an_object", [False, True, "unparsable"])
    def test_foreign_layout_names_the_file(self, tmp_path, not_an_object):
        write_snapshot(tmp_path, [("v", VectorField.zeros(GRID_64))], time=0.0)
        sidecar = tmp_path / "snapshot.json"
        meta = json.loads(sidecar.read_text())
        meta["layout"] = "row-major-f64-le"
        text = json.dumps([meta] if not_an_object else meta)
        sidecar.write_text(text[:-1] if not_an_object == "unparsable" else text)
        with pytest.raises(FieldError, match="snapshot.json"):
            read_snapshot(tmp_path)

    # the last names a well-formed scalar file outside the snapshot directory
    @pytest.mark.parametrize("listed", [["p"], {"p": ["q"]}, {"p": "x"},
                                        {"../outside": []}])
    def test_malformed_field_list_names_the_file(self, tmp_path, listed):
        directory = tmp_path / "step"
        write_snapshot(directory, [("p", ScalarField.zeros(GRID_64))], time=0.0)
        (tmp_path / "outside.f64").write_bytes(bytes(8 * GRID_64.num_points))
        sidecar = directory / "snapshot.json"
        meta = json.loads(sidecar.read_text())
        meta["fields"] = listed
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(FieldError, match="snapshot.json"):
            read_snapshot(directory)

    @pytest.mark.parametrize("name", ["../escaped", "a/b", ""])
    def test_non_stem_field_name_is_rejected_before_any_write(self, tmp_path, name):
        with pytest.raises(FieldError, match="plain file stem"):
            write_snapshot(tmp_path / "ws" / "step",
                           [("p", ScalarField.zeros(GRID_64)),
                            (name, ScalarField.zeros(GRID_64))], time=0.0)
        assert list(tmp_path.rglob("*")) == []

    @pytest.mark.parametrize("time", [float("nan"), float("inf"), None, True, "1.0"])
    def test_time_not_finite_number_is_rejected_before_any_write(self, tmp_path, time):
        with pytest.raises(FieldError, match="finite number"):
            write_snapshot(tmp_path / "step", [("p", ScalarField.zeros(GRID_64))], time)
        assert list(tmp_path.rglob("*")) == []

    def test_repeated_field_name_is_rejected_before_any_write(self, tmp_path):
        with pytest.raises(FieldError, match="twice"):
            write_snapshot(tmp_path / "step",
                           [("p", ScalarField.zeros(GRID_64)),
                            ("p", ScalarField(GRID_64, np.ones(GRID_64.shape)))],
                           time=0.0)
        assert list(tmp_path.rglob("*")) == []

    @pytest.mark.parametrize("time", ["soon", None, True, float("nan")])
    def test_sidecar_time_not_finite_number_names_the_file(self, tmp_path, time):
        write_snapshot(tmp_path, [("p", ScalarField.zeros(GRID_64))], time=0.0)
        sidecar = tmp_path / "snapshot.json"
        meta = json.loads(sidecar.read_text())
        meta["time"] = time
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(FieldError, match="snapshot.json"):
            read_snapshot(tmp_path)

    def test_listed_field_without_file_names_the_file(self, tmp_path):
        write_snapshot(tmp_path, [("v", VectorField.zeros(GRID_64)),
                                  ("p", ScalarField.zeros(GRID_64))], time=0.0)
        (tmp_path / "p.f64").unlink()
        with pytest.raises(FieldError, match="p.f64"):
            read_snapshot(tmp_path)
