"""Run configuration: one JSON object drives the whole pipeline.

The defaults are the primary operating configuration (MIP over all six
projections, q=50); the ablation variants (fewer projections, AIP, no
segmentation) are switches here rather than code paths elsewhere.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

from .errors import InvalidArgumentError
from .features import ExtractorConfig
from .memory_bank import DEFAULT_CORESET_FRAC, DEFAULT_SMOOTHING_SIGMA
from .projection import ALL_PROJECTIONS, DEFAULT_CANVAS, ProjectionType
from .reconstruction import DEFAULT_BINARIZE_PCT, DEFAULT_PERCENTILE_Q
from .volume import DEFAULT_HU_HI, DEFAULT_HU_LO, is_int, is_real

# named projection subsets; each expands in canonical order
PROJECTION_SETS = {
    "coronal-only": ("right_coronal", "left_coronal"),
    "coronal+axial": ("right_coronal", "right_axial", "left_coronal", "left_axial"),
    "all-three": tuple(p.value for p in ALL_PROJECTIONS),
}


@dataclass(frozen=True)
class RunConfig:
    hu_lo: int = DEFAULT_HU_LO
    hu_hi: int = DEFAULT_HU_HI
    method: str = "mip"
    projection_set: str = "all-three"
    canvas: tuple[int, int] = DEFAULT_CANVAS
    extractor: ExtractorConfig = field(default_factory=ExtractorConfig)
    coreset_frac: float = DEFAULT_CORESET_FRAC
    q: float = DEFAULT_PERCENTILE_Q
    smoothing_sigma: float = DEFAULT_SMOOTHING_SIGMA
    localization_pct: float = DEFAULT_BINARIZE_PCT
    seed: int = 0
    unsegmented: bool = False

    def __post_init__(self):
        if not all(is_int(v) and -(2**15) <= v < 2**15 for v in (self.hu_lo, self.hu_hi)):
            raise InvalidArgumentError(
                f"hu_lo, hu_hi must be int16 HU values, got {self.hu_lo!r}, {self.hu_hi!r}"
            )
        object.__setattr__(self, "hu_lo", int(self.hu_lo))
        object.__setattr__(self, "hu_hi", int(self.hu_hi))
        if self.hu_lo >= self.hu_hi:
            raise InvalidArgumentError(f"hu_lo {self.hu_lo} must be < hu_hi {self.hu_hi}")
        if self.method not in ("mip", "aip"):
            raise InvalidArgumentError(f"method must be mip|aip, got {self.method!r}")
        if self.projection_set not in PROJECTION_SETS:
            raise InvalidArgumentError(
                f"projection_set must be one of {sorted(PROJECTION_SETS)}, got {self.projection_set!r}"
            )
        canvas = tuple(self.canvas)
        if (
            len(canvas) != 2
            or not all(is_int(c) for c in canvas)
            or min(canvas) < self.extractor.patch_size
        ):
            raise InvalidArgumentError(
                f"canvas {self.canvas!r} must be two ints >= patch size {self.extractor.patch_size}"
            )
        object.__setattr__(self, "canvas", tuple(int(c) for c in canvas))
        for name in ("coreset_frac", "q", "smoothing_sigma", "localization_pct"):
            if not is_real(getattr(self, name)):
                raise InvalidArgumentError(f"{name} must be a number, got {getattr(self, name)!r}")
        if not 0.0 < self.coreset_frac <= 1.0:
            raise InvalidArgumentError(f"coreset_frac must be in (0,1], got {self.coreset_frac}")
        if not 0.0 <= self.q < 100.0:
            raise InvalidArgumentError(f"q must be in [0,100), got {self.q}")
        if not 0.0 <= self.smoothing_sigma < math.inf:
            raise InvalidArgumentError(
                f"smoothing_sigma must be finite and >= 0, got {self.smoothing_sigma}"
            )
        if not 0.0 <= self.localization_pct < 100.0:
            raise InvalidArgumentError(
                f"localization_pct must be in [0,100), got {self.localization_pct}"
            )
        if not is_int(self.seed):
            raise InvalidArgumentError(f"seed must be an int, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))
        if not isinstance(self.unsegmented, bool):
            raise InvalidArgumentError(f"unsegmented must be true or false, got {self.unsegmented!r}")

    @property
    def ptypes(self) -> tuple[ProjectionType, ...]:
        return tuple(ProjectionType.from_string(name) for name in PROJECTION_SETS[self.projection_set])

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["canvas"] = list(self.canvas)
        out["extractor"] = self.extractor.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise InvalidArgumentError(f"config must be a JSON object, got {type(data).__name__}")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise InvalidArgumentError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(data)
        try:
            if "canvas" in kwargs:
                if not isinstance(kwargs["canvas"], list):
                    raise InvalidArgumentError(f"canvas must be a list, got {kwargs['canvas']!r}")
                kwargs["canvas"] = tuple(kwargs["canvas"])
            if "extractor" in kwargs:
                kwargs["extractor"] = ExtractorConfig.from_dict(kwargs["extractor"])
            return cls(**kwargs)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidArgumentError(f"bad config value: {exc}") from exc

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON
            raise InvalidArgumentError(f"{path}: config is not valid JSON ({exc})") from exc
        return cls.from_dict(data)
