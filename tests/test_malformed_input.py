"""Malformed MVOL, MBNK, config, scores and manifest input: every reader
either returns or raises its documented MvpadError, and the CLI turns each
case into its exit code without a traceback. The fuzz tests keep payloads
tiny and example counts small so each runs well under two seconds."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mvpad import (
    ExtractorConfig,
    ProjectionType,
    RunConfig,
    Volume,
    generate_dataset,
    load_bank,
    load_volume,
    save_volume,
)
from mvpad import cli
from mvpad.errors import (
    DimensionMismatchError,
    EmptyMaskError,
    HeaderFormatError,
    InsufficientDataError,
    InvalidArgumentError,
    MvpadError,
    UnknownDtypeError,
)
from mvpad.cli import main
from mvpad.memory_bank import bank_filename
from mvpad.pipeline import CaseFeatures
from mvpad.projection import ProjectedMask
from mvpad.volume import MANIFEST_HEADER, read_manifest

FUZZ = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


def container(header: dict, payload: bytes = b"") -> bytes:
    return json.dumps(header).encode("utf-8") + b"\n" + payload


def mvol(**overrides) -> bytes:
    header = {"magic": "MVOL1", "dims": [1, 1, 2], "spacing_mm": [1.0, 1.0, 1.0], "dtype": "i16"}
    header.update(overrides)
    return container(header, b"\x00" * 4)


def mbnk(payload: bytes = b"\x00" * 8, **overrides) -> bytes:
    header = {
        "magic": "MBNK1",
        "projection": "right_sagittal",
        "feature_dim": 2,
        "count": 1,
        "extractor_hash": "abc",
        "coreset_frac": 0.5,
    }
    header.update(overrides)
    return container(header, payload)


def run_cli(capsys, *argv) -> int:
    rc = main([str(a) for a in argv])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if rc:
        assert err.startswith("error: ")
    return rc


class TestContainerHeaders:
    def test_payload_is_loaded_without_a_copy(self, tmp_path):
        """The loaded arrays are read-only views over the bytes read."""
        path = tmp_path / "v.mvol"
        path.write_bytes(mvol())
        vol = load_volume(path)
        assert vol.dims == (1, 1, 2) and not vol.voxels.flags.owndata
        path.write_bytes(mbnk())
        bank = load_bank(path)
        assert bank.entries.shape == (1, 2) and not bank.entries.flags.owndata

    @pytest.mark.parametrize(
        "fields",
        [{"count": -1, "feature_dim": -20}, {"feature_dim": 0}, {"count": 0}],
        ids=["negative", "zero-dim", "zero-count"],
    )
    def test_bank_rejects_nonpositive_shape(self, tmp_path, fields):
        path = tmp_path / "b.mbnk"
        path.write_bytes(mbnk(b"\x00" * 80, **fields))
        with pytest.raises(HeaderFormatError):
            load_bank(path)

    @pytest.mark.parametrize("code", [[], {}, 3, None])
    def test_volume_rejects_non_string_dtype(self, tmp_path, code):
        path = tmp_path / "v.mvol"
        path.write_bytes(mvol(dtype=code))
        with pytest.raises(UnknownDtypeError):
            load_volume(path)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_volume_rejects_non_finite_spacing(self, tmp_path, bad):
        path = tmp_path / "v.mvol"
        path.write_bytes(mvol(spacing_mm=[bad, 1, 1]))
        with pytest.raises(InvalidArgumentError):
            load_volume(path)
        with pytest.raises(InvalidArgumentError):
            Volume(np.zeros((1, 1, 1), dtype=np.int16), (bad, 1.0, 1.0))

    @pytest.mark.parametrize(
        "fields, nbytes",
        [
            ({"dims": [1.5, 2, 2]}, 8),
            ({"dims": ["2", "2", "2"]}, 16),
            ({"dims": [True, 2, 2]}, 8),
            ({"dims": [1, 1, 2.0]}, 4),
            ({"dims": "112"}, 4),
            ({"spacing_mm": ["1", 1, True]}, 4),
            ({"spacing_mm": "111"}, 4),
        ],
        ids=lambda v: json.dumps(v),
    )
    def test_volume_rejects_mistyped_header_fields(self, tmp_path, fields, nbytes):
        """The payload has the size the coerced header would announce."""
        header = {"magic": "MVOL1", "dims": [1, 1, 2], "spacing_mm": [1.0, 1.0, 1.0], "dtype": "i16"}
        path = tmp_path / "v.mvol"
        path.write_bytes(container({**header, **fields}, b"\x00" * nbytes))
        with pytest.raises(HeaderFormatError):
            load_volume(path)

    @pytest.mark.parametrize(
        "fields",
        [
            {"count": 1.9},
            {"count": "1"},
            {"count": True},
            {"feature_dim": 2.0},
            {"coreset_frac": "0.1"},
            {"coreset_frac": True},
            {"extractor_hash": 5},
            {"extractor_hash": None},
        ],
        ids=lambda v: json.dumps(v),
    )
    def test_bank_rejects_mistyped_header_fields(self, tmp_path, fields):
        path = tmp_path / "b.mbnk"
        path.write_bytes(mbnk(**fields))
        with pytest.raises(HeaderFormatError):
            load_bank(path)

    def test_cli_project_exits_4_on_string_dims(self, tmp_path, capsys):
        (tmp_path / "ct.mvol").write_bytes(mvol(dims=["1", "1", "2"]))
        manifest = tmp_path / "m.csv"
        manifest.write_text(",".join(MANIFEST_HEADER) + "\nc0,ct.mvol,ct.mvol,normal,\n")
        rc = run_cli(capsys, "project", "--manifest", manifest, "--out", tmp_path / "proj")
        assert rc == HeaderFormatError.exit_code == 4

    def test_volume_rejects_nan_unit_voxels(self):
        with pytest.raises(InvalidArgumentError):
            Volume(np.full((1, 1, 1), np.nan, dtype=np.float32))

    def test_volume_rejects_overflowing_dims(self, tmp_path):
        path = tmp_path / "v.mvol"
        path.write_bytes(b'{"magic": "MVOL1", "dims": [1, 1, Infinity], "spacing_mm": [1, 1, 1], '
                         b'"dtype": "u8"}\n\x00')
        with pytest.raises(HeaderFormatError):
            load_volume(path)

    def test_cli_localize_exits_4_on_negative_bank_shape(self, tmp_path, capsys):
        banks = tmp_path / "banks"
        banks.mkdir()
        for ptype in ProjectionType:
            (banks / bank_filename(ptype)).write_bytes(
                mbnk(b"\x00" * 80, count=-1, feature_dim=-20, projection=ptype.value)
            )
        rc = run_cli(capsys, "localize", "--manifest", tmp_path / "unused.csv",
                     "--banks", banks, "--out", tmp_path / "loc")
        assert rc == HeaderFormatError.exit_code == 4

    @pytest.mark.parametrize("name", ["sideways", "", 3, None, ["right_axial"]])
    def test_bank_rejects_unknown_projection(self, tmp_path, name):
        path = tmp_path / "b.mbnk"
        path.write_bytes(mbnk(projection=name))
        with pytest.raises(HeaderFormatError):
            load_bank(path)

    def test_cli_localize_exits_4_on_unknown_bank_projection(self, tmp_path, capsys):
        banks = tmp_path / "banks"
        banks.mkdir()
        for ptype in ProjectionType:
            (banks / bank_filename(ptype)).write_bytes(mbnk(projection="sideways"))
        rc = run_cli(capsys, "localize", "--manifest", tmp_path / "unused.csv",
                     "--banks", banks, "--out", tmp_path / "loc")
        assert rc == HeaderFormatError.exit_code == 4

    def test_cli_project_exits_6_on_non_string_dtype(self, tmp_path, capsys):
        (tmp_path / "ct.mvol").write_bytes(mvol(dtype=[]))
        manifest = tmp_path / "m.csv"
        manifest.write_text(",".join(MANIFEST_HEADER) + "\nc0,ct.mvol,ct.mvol,normal,\n")
        rc = run_cli(capsys, "project", "--manifest", manifest, "--out", tmp_path / "proj")
        assert rc == UnknownDtypeError.exit_code == 6


@pytest.fixture(scope="module")
def normal_manifest(tmp_path_factory):
    """Two small normal phantoms: enough for a `bank build` to succeed."""
    out = tmp_path_factory.mktemp("normals")
    return generate_dataset(2, 0, seed=3, out_dir=out, dims=(32, 48, 48), vessel_count=2)


@pytest.fixture(scope="module")
def normal_banks(normal_manifest, tmp_path_factory):
    out = tmp_path_factory.mktemp("banks")
    assert main(["bank", "build", "--manifest", str(normal_manifest), "--out", str(out)]) == 0
    return out


class TestLocalizeErrors:
    """`mvpad localize` turns the reconstruction checks into their exit codes."""

    @staticmethod
    def localize_with_mask(monkeypatch, capsys, tmp_path, manifest, banks, ptype, corrupt) -> int:
        real = cli.compute_case_features

        def features_with_bad_mask(case, cfg):
            feats = real(case, cfg)
            masks = {**feats.masks, ptype: corrupt(feats.masks[ptype])}
            return CaseFeatures(case_id=feats.case_id, grids=feats.grids, masks=masks)

        monkeypatch.setattr(cli, "compute_case_features", features_with_bad_mask)
        return run_cli(capsys, "localize", "--manifest", manifest, "--banks", banks, "--out", tmp_path / "loc")

    def test_sidecar_plane_mismatch_exits_7(self, normal_manifest, normal_banks, monkeypatch, capsys, tmp_path):
        def taller_plane(mask):
            h, w = mask.geometry.plane_shape
            return ProjectedMask(replace(mask.geometry, plane_shape=(h + 1, w)), mask.pixels)

        rc = self.localize_with_mask(monkeypatch, capsys, tmp_path, normal_manifest, normal_banks,
                                     ProjectionType.LEFT_SAGITTAL, taller_plane)
        assert rc == DimensionMismatchError.exit_code == 7
        assert not list((tmp_path / "loc").iterdir())

    def test_empty_projected_mask_exits_8(self, normal_manifest, normal_banks, monkeypatch, capsys, tmp_path):
        def empty(mask):
            return ProjectedMask(mask.geometry, np.zeros_like(mask.pixels))

        rc = self.localize_with_mask(monkeypatch, capsys, tmp_path, normal_manifest, normal_banks,
                                     ProjectionType.RIGHT_AXIAL, empty)
        assert rc == EmptyMaskError.exit_code == 8
        assert not list((tmp_path / "loc").iterdir())


class TestConfigScoresManifest:
    @pytest.mark.parametrize(
        "data",
        [
            {"canvas": 5},
            {"canvas": [64, "a"]},
            {"canvas": [64, 1e400]},
            {"extractor": 5},
            {"extractor": {"patch_size": "a"}},
            {"hu_lo": -800.5},
            {"hu_lo": -40000},
            {"hu_hi": "0"},
            {"smoothing_sigma": math.inf},
            {"smoothing_sigma": math.nan},
            {"projection_set": []},
            {"extractor": {"patch_sise": 7}},
            {"extractor": {"patch_size": 7, "scale": [1]}},
            {"extractor": {"stats": ["max"]}},
            {"extractor": {"stats": ["std", "mean"]}},
            {"extractor": {"filters": ["identity"]}},
            {"extractor": {"filters": "identity"}},
        ],
    )
    def test_from_dict_raises_invalid_argument(self, data):
        with pytest.raises(InvalidArgumentError):
            RunConfig.from_dict(data)

    @pytest.mark.parametrize(
        "data",
        [
            {"canvas": [64.9, 64]},
            {"canvas": [64, 64.0]},
            {"canvas": [True, 64]},
            {"canvas": "ab"},
            {"canvas": {"64": 64}},
            {"extractor": {"patch_size": "9"}},
            {"extractor": {"patch_size": 9.0}},
            {"extractor": {"patch_size": True}},
            {"extractor": {"stride": 4.5}},
            {"extractor": {"stride": "4"}},
            {"extractor": {"stride": True}},
            {"extractor": {"scales": "12"}},
            {"extractor": {"scales": 1}},
            {"extractor": {"scales": {"1": 2}}},
            {"extractor": {"scales": [1.0, 2]}},
            {"extractor": {"scales": [True]}},
            {"extractor": {"scales": ["1"]}},
            {"hu_hi": True},
            {"hu_lo": False, "hu_hi": True},
            {"seed": True},
            {"coreset_frac": True},
            {"q": True},
            {"q": False},
            {"smoothing_sigma": True},
            {"smoothing_sigma": False},
            {"localization_pct": True},
            {"localization_pct": False},
        ],
        ids=lambda data: json.dumps(data),
    )
    def test_from_dict_rejects_values_it_would_coerce(self, data):
        with pytest.raises(InvalidArgumentError):
            RunConfig.from_dict(data)

    def test_python_callers_pass_int_tuples(self):
        cfg = RunConfig(canvas=(np.int64(64), 64))
        assert cfg.canvas == (64, 64) and all(type(c) is int for c in cfg.canvas)
        assert RunConfig.from_dict({"canvas": [64, 64], "extractor": {"scales": [1]}}) == RunConfig(
            canvas=(64, 64), extractor=ExtractorConfig(scales=(1,))
        )

    def test_integer_fields_are_stored_as_int(self):
        cfg = RunConfig(hu_lo=np.int16(-900), hu_hi=np.int64(100), seed=np.int32(4))
        assert (cfg.hu_lo, cfg.hu_hi, cfg.seed) == (-900, 100, 4)
        assert all(type(v) is int for v in (cfg.hu_lo, cfg.hu_hi, cfg.seed))
        assert cfg == RunConfig(hu_lo=-900, hu_hi=100, seed=4)

    @pytest.mark.parametrize(
        "text",
        [
            '{"coreset_frac": true}',
            '{"q": true}',
            '{"extractor": {"patch_sise": 7}}',
            '{"extractor": {"stats": ["max"]}}',
        ],
    )
    def test_cli_bank_build_rejects_values_it_would_ignore(self, normal_manifest, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        rc = run_cli(capsys, "bank", "build", "--manifest", normal_manifest,
                     "--config", cfg, "--out", tmp_path / "banks")
        assert rc == InvalidArgumentError.exit_code == 3
        assert not (tmp_path / "banks").exists()

    def test_cli_coerced_config_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"canvas": [64.9, 64], "extractor": {"scales": "12", "patch_size": "9"}}')
        rc = run_cli(capsys, "project", "--manifest", tmp_path / "m.csv",
                     "--config", cfg, "--out", tmp_path / "p")
        assert rc == InvalidArgumentError.exit_code == 3

    def test_to_dict_keeps_field_order(self):
        assert list(RunConfig().to_dict()) == [
            "hu_lo", "hu_hi", "method", "projection_set", "canvas", "extractor",
            "coreset_frac", "q", "smoothing_sigma", "localization_pct", "seed", "unsegmented",
        ]

    def test_cli_bad_config_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        for text in ('{"canvas": 5}', '{"canvas": [64, "a"]}', '{"extractor": 5}'):
            cfg.write_text(text)
            rc = run_cli(capsys, "project", "--manifest", tmp_path / "m.csv",
                         "--config", cfg, "--out", tmp_path / "p")
            assert rc == 3
        cfg.write_bytes(b'{"seed": "\xff"}')
        assert run_cli(capsys, "project", "--manifest", tmp_path / "m.csv",
                       "--config", cfg, "--out", tmp_path / "p") == 3

    @pytest.mark.parametrize("score", ["abc", "", "nan", "inf"])
    def test_cli_eval_rejects_bad_score(self, tmp_path, capsys, score):
        bad = tmp_path / "scores.csv"
        bad.write_text(f"case_id,score,label\nc0,{score},normal\nc1,0.5,abnormal\n")
        rc = run_cli(capsys, "eval", "--scores", bad, "--out", tmp_path / "m.json")
        assert rc == InvalidArgumentError.exit_code

    def test_cli_eval_rejects_non_utf8_scores(self, tmp_path, capsys):
        bad = tmp_path / "scores.csv"
        bad.write_bytes(b"case_id,score,label\nc\xff,0.5,normal\n")
        assert run_cli(capsys, "eval", "--scores", bad, "--out", tmp_path / "m.json") == 3

    def test_non_utf8_manifest_is_header_error(self, tmp_path, capsys):
        manifest = tmp_path / "m.csv"
        manifest.write_bytes(",".join(MANIFEST_HEADER).encode() + b"\nc\xff,a,b,normal,\n")
        with pytest.raises(HeaderFormatError):
            read_manifest(manifest)
        rc = run_cli(capsys, "project", "--manifest", manifest, "--out", tmp_path / "p")
        assert rc == HeaderFormatError.exit_code

    @pytest.mark.parametrize("dims", ["64,x,96", "1e3,96,96", "64.5,96,96", "64,,96"])
    def test_cli_phantom_rejects_non_integer_dims(self, tmp_path, capsys, dims):
        rc = run_cli(capsys, "phantom", "--normal", 1, "--abnormal", 0, "--dims", dims,
                     "--out", tmp_path / "d")
        assert rc == InvalidArgumentError.exit_code == 3
        assert not (tmp_path / "d").exists()

    @staticmethod
    def label_grid_as_ct_manifest(tmp_path, n_cases=1):
        """A manifest whose CT paths name a uint8 lung label file."""
        labels = np.zeros((4, 6, 8), dtype=np.uint8)
        labels[1:3, 1:5, 1:3] = 1
        labels[1:3, 1:5, 5:7] = 2
        save_volume(Volume(labels), tmp_path / "labels.mvol")
        manifest = tmp_path / "m.csv"
        rows = "".join(f"c{i},labels.mvol,labels.mvol,normal,\n" for i in range(n_cases))
        manifest.write_text(",".join(MANIFEST_HEADER) + "\n" + rows, encoding="utf-8")
        return manifest

    def test_cli_score_rejects_label_grid_as_ct(self, tmp_path, capsys):
        manifest = self.label_grid_as_ct_manifest(tmp_path, n_cases=2)
        banks = tmp_path / "banks"
        banks.mkdir()
        for ptype in ProjectionType:
            (banks / bank_filename(ptype)).write_bytes(
                mbnk(projection=ptype.value, extractor_hash=RunConfig().extractor.extractor_hash)
            )
        out = tmp_path / "scores.csv"
        rc = run_cli(capsys, "score", "--manifest", manifest, "--cal-manifest", manifest,
                     "--banks", banks, "--out", out)
        assert rc == InvalidArgumentError.exit_code == 3
        assert not out.exists()

    def test_cli_segment_eval_rejects_label_grid_as_ct(self, tmp_path, capsys):
        out = tmp_path / "seg.json"
        rc = run_cli(capsys, "segment-eval", "--manifest", self.label_grid_as_ct_manifest(tmp_path),
                     "--out", out)
        assert rc == InvalidArgumentError.exit_code == 3
        assert not out.exists()

    def test_cli_segment_eval_rejects_empty_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "m.csv"
        manifest.write_text(",".join(MANIFEST_HEADER) + "\n", encoding="utf-8")
        out = tmp_path / "seg.json"
        rc = run_cli(capsys, "segment-eval", "--manifest", manifest, "--out", out)
        assert rc == InsufficientDataError.exit_code == 11
        assert not out.exists()


# ---------------------------------------------------------------------------
# Fuzzing

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
SMALL_DIMS = st.lists(st.integers(-1, 2), min_size=2, max_size=4)


def header_and_payload(magic, fields):
    """A container whose header fields each take a plausible or an arbitrary
    JSON value, followed by an arbitrary payload or one of 1, 2 or 4 bytes
    per unit of the product of the header's ints."""
    header = st.fixed_dictionaries(
        {"magic": st.sampled_from([magic, "x"]), **{name: values | JSON for name, values in fields.items()}}
    )

    def with_payload(h):
        ints = [x for v in h.values() for x in (v if isinstance(v, list) else [v]) if type(x) is int]
        n = min(math.prod(abs(x) for x in ints), 16)
        sized = st.sampled_from([n, 2 * n, 4 * n]).flatmap(lambda k: st.binary(min_size=k, max_size=k))
        return (sized | st.binary(max_size=24)).map(lambda p: container(h, p))

    return header.flatmap(with_payload)


MVOL_BYTES = header_and_payload(
    "MVOL1",
    {
        "dims": SMALL_DIMS,
        "spacing_mm": st.lists(st.floats(), min_size=3, max_size=3),
        "dtype": st.sampled_from(["i16", "f32", "u8", "c64"]),
    },
) | st.binary(max_size=48)
MBNK_BYTES = header_and_payload(
    "MBNK1",
    {
        "projection": st.sampled_from([p.value for p in ProjectionType]),
        "feature_dim": st.integers(-1, 3),
        "count": st.integers(-1, 3),
        "extractor_hash": st.text(max_size=4),
        "coreset_frac": st.floats(),
    },
) | st.binary(max_size=48)
CONFIG_KEYS = [
    "hu_lo", "hu_hi", "method", "projection_set", "canvas", "extractor",
    "coreset_frac", "q", "smoothing_sigma", "localization_pct", "seed", "unsegmented",
]
CONFIG_VALUES = JSON | st.lists(st.integers(0, 300), max_size=3) | st.dictionaries(
    st.sampled_from(["patch_size", "stride", "scales"]), JSON | st.integers(0, 9), max_size=3
)


@FUZZ
@given(raw=MVOL_BYTES)
def test_fuzz_load_volume(tmp_path, raw):
    path = tmp_path / "f.mvol"
    path.write_bytes(raw)
    try:
        vol = load_volume(path)
    except MvpadError:
        return
    assert not vol.voxels.flags.writeable


@FUZZ
@given(raw=MBNK_BYTES)
def test_fuzz_load_bank(tmp_path, raw):
    path = tmp_path / "f.mbnk"
    path.write_bytes(raw)
    try:
        bank = load_bank(path)
    except MvpadError:
        return
    assert bank.count >= 1 and bank.feature_dim >= 1


@FUZZ
@given(data=st.dictionaries(st.sampled_from(CONFIG_KEYS), CONFIG_VALUES, max_size=4))
def test_fuzz_run_config_from_dict(data):
    try:
        cfg = RunConfig.from_dict(data)
    except InvalidArgumentError:
        return
    assert RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg
