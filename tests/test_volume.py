"""Volume container, MVOL round trips, HU windowing, manifests."""

import json

import numpy as np
import pytest

from mvpad import Volume, load_volume, save_volume
from mvpad.errors import (
    HeaderFormatError,
    InvalidArgumentError,
    PayloadSizeError,
    UnknownDtypeError,
)
from mvpad.volume import (
    CaseRecord,
    freeze_array,
    normalize_truncated,
    read_manifest,
    resolve_manifest_path,
    truncate_hu,
    volumes_equal,
    write_manifest,
)


def hu_volume(values, spacing=(1.0, 1.0, 1.0)):
    return Volume(np.asarray(values, dtype=np.int16), spacing)


class TestVolumeContainer:
    def test_rejects_non_3d(self):
        with pytest.raises(InvalidArgumentError):
            Volume(np.zeros((4, 4), dtype=np.int16))

    def test_rejects_unknown_dtype(self):
        with pytest.raises(UnknownDtypeError):
            Volume(np.zeros((2, 2, 2), dtype=np.float64))

    def test_rejects_unit_range_violation(self):
        with pytest.raises(InvalidArgumentError):
            Volume(np.full((2, 2, 2), 1.5, dtype=np.float32))

    def test_rejects_label_outside_012(self):
        with pytest.raises(InvalidArgumentError):
            Volume(np.full((2, 2, 2), 3, dtype=np.uint8))

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(InvalidArgumentError):
            Volume(np.zeros((2, 2, 2), dtype=np.int16), (1.0, 0.0, 1.0))

    def test_voxels_are_immutable(self):
        vol = hu_volume(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            vol.voxels[0, 0, 0] = 5

    def test_constructor_copies_caller_array(self):
        arr = np.zeros((2, 2, 2), dtype=np.int16)
        vol = Volume(arr)
        arr[0, 0, 0] = 7
        assert vol.voxels[0, 0, 0] == 0

    def test_freeze_array_copies_only_the_callers_writeable_array(self):
        arr = np.zeros((2, 3), dtype=np.float32)
        frozen = freeze_array(arr, None)
        assert frozen is not arr and arr.flags.writeable and not frozen.flags.writeable
        assert freeze_array(frozen, None) is frozen
        cast = freeze_array(np.zeros((3, 2), dtype=np.float64).T, np.float32)
        assert cast.dtype == np.float32 and cast.flags.c_contiguous and not cast.flags.writeable


class TestTruncateNormalize:
    def test_truncate_clamps_below(self):
        out = truncate_hu(hu_volume([[[-1000]]]))
        assert out.voxels[0, 0, 0] == -800

    def test_truncate_keeps_interior(self):
        out = truncate_hu(hu_volume([[[-400]]]))
        assert out.voxels[0, 0, 0] == -400

    def test_truncate_clamps_above(self):
        out = truncate_hu(hu_volume([[[50]]]))
        assert out.voxels[0, 0, 0] == 0

    def test_truncate_idempotent(self):
        rng = np.random.default_rng(11)
        vol = hu_volume(rng.integers(-1500, 500, size=(5, 6, 7)))
        once = truncate_hu(vol)
        twice = truncate_hu(once)
        assert volumes_equal(once, twice)

    def test_normalize_endpoints_and_midpoint(self):
        out = normalize_truncated(hu_volume([[[-800, 0, -400]]]))
        assert out.voxels.dtype == np.float32
        np.testing.assert_array_equal(out.voxels[0, 0], np.float32([0.0, 1.0, 0.5]))

    def test_normalize_monotone(self):
        rng = np.random.default_rng(12)
        vals = np.sort(rng.integers(-800, 1, size=64)).astype(np.int16)
        out = normalize_truncated(Volume(vals.reshape(1, 1, 64)))
        assert np.all(np.diff(out.voxels[0, 0]) >= 0)

    def test_truncate_rejects_inverted_window(self):
        with pytest.raises(InvalidArgumentError):
            truncate_hu(hu_volume([[[0]]]), lo=0, hi=0)

    def test_normalize_rejects_float_input(self):
        vol = Volume(np.zeros((1, 1, 1), dtype=np.float32))
        with pytest.raises(InvalidArgumentError):
            normalize_truncated(vol)


class TestMvolIO:
    @pytest.mark.parametrize(
        "vox",
        [
            np.arange(-4, 4, dtype=np.int16).reshape(2, 2, 2),
            (np.arange(8, dtype=np.float32) / 8.0).reshape(2, 2, 2),
            np.array([0, 1, 2, 0, 1, 2, 0, 1], dtype=np.uint8).reshape(2, 2, 2),
        ],
        ids=["i16", "f32", "u8"],
    )
    def test_round_trip_bit_exact(self, tmp_path, vox):
        vol = Volume(vox, (2.0, 0.5, 0.75))
        path = tmp_path / "v.mvol"
        save_volume(vol, path)
        back = load_volume(path)
        assert volumes_equal(back, vol)
        # a second save of the loaded volume reproduces the file byte for byte
        path2 = tmp_path / "v2.mvol"
        save_volume(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_header_announces_payload_of_16_bytes_for_2x2x2_i16(self, tmp_path):
        path = tmp_path / "v.mvol"
        save_volume(hu_volume(np.zeros((2, 2, 2))), path)
        raw = path.read_bytes()
        header = json.loads(raw[: raw.find(b"\n")])
        assert header["magic"] == "MVOL1"
        assert header["dims"] == [2, 2, 2]
        assert len(raw) - raw.find(b"\n") - 1 == 16

    def test_truncated_payload_raises_payload_error(self, tmp_path):
        path = tmp_path / "v.mvol"
        save_volume(hu_volume(np.zeros((2, 2, 2))), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-1])  # 15 of 16 payload bytes
        with pytest.raises(PayloadSizeError):
            load_volume(path)

    def test_bad_magic_raises_header_error(self, tmp_path):
        path = tmp_path / "v.mvol"
        path.write_bytes(b'{"magic":"NOPE","dims":[1,1,1],"spacing_mm":[1,1,1],"dtype":"u8"}\n\x00')
        with pytest.raises(HeaderFormatError):
            load_volume(path)

    def test_missing_newline_raises_header_error(self, tmp_path):
        path = tmp_path / "v.mvol"
        path.write_bytes(b'{"magic":"MVOL1"}')
        with pytest.raises(HeaderFormatError):
            load_volume(path)

    def test_non_json_header_raises_header_error(self, tmp_path):
        path = tmp_path / "v.mvol"
        path.write_bytes(b"not json at all\n\x00\x00")
        with pytest.raises(HeaderFormatError):
            load_volume(path)

    def test_unknown_dtype_code_raises_dtype_error(self, tmp_path):
        path = tmp_path / "v.mvol"
        path.write_bytes(b'{"magic":"MVOL1","dims":[1,1,1],"spacing_mm":[1,1,1],"dtype":"c64"}\n\x00')
        with pytest.raises(UnknownDtypeError):
            load_volume(path)

    def test_error_classes_carry_distinct_exit_codes(self):
        codes = {
            HeaderFormatError.exit_code,
            PayloadSizeError.exit_code,
            UnknownDtypeError.exit_code,
            InvalidArgumentError.exit_code,
        }
        assert codes == {3, 4, 5, 6}


class TestManifest:
    def records(self):
        return [
            CaseRecord("case_a", "a_ct.mvol", "a_mask.mvol", "normal", None),
            CaseRecord("case_b", "b_ct.mvol", "b_mask.mvol", "abnormal", "b_gt.mvol"),
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "manifest.csv"
        write_manifest(self.records(), path)
        assert read_manifest(path) == self.records()

    def test_header_line_exact(self, tmp_path):
        path = tmp_path / "manifest.csv"
        write_manifest([], path)
        assert path.read_text().splitlines()[0] == "case_id,volume_path,mask_path,label,anomaly_gt_path"

    def test_duplicate_case_id_rejected(self, tmp_path):
        path = tmp_path / "manifest.csv"
        recs = self.records()
        write_manifest([recs[0], recs[0]], path)
        with pytest.raises(InvalidArgumentError):
            read_manifest(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("case,vol\nx,y\n")
        with pytest.raises(HeaderFormatError):
            read_manifest(path)

    def test_bad_label_rejected(self):
        with pytest.raises(InvalidArgumentError):
            CaseRecord("c", "v", "m", "sick", None)

    def test_relative_paths_resolve_against_base_dir(self, tmp_path):
        assert resolve_manifest_path(tmp_path, "x.mvol") == tmp_path / "x.mvol"
        assert resolve_manifest_path(tmp_path, "/abs/x.mvol") == resolve_manifest_path("/other", "/abs/x.mvol")
