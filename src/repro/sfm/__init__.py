"""SfM substrate: matching, incremental reconstruction, clouds, filtering."""

from .columnar import FeatureColumns, PointColumnStore
from .filters import IncrementalSorFilter, sor_filter, sor_mask
from .matching import MatchIndex, match_count
from .model import RecoveredCamera, SfmModel
from .pointcloud import CloudPoint, PointCloud
from .reconstruction import IncrementalSfm, RegistrationReport

__all__ = [
    "CloudPoint",
    "FeatureColumns",
    "IncrementalSfm",
    "IncrementalSorFilter",
    "MatchIndex",
    "PointCloud",
    "PointColumnStore",
    "RecoveredCamera",
    "RegistrationReport",
    "SfmModel",
    "match_count",
    "sor_filter",
    "sor_mask",
]
