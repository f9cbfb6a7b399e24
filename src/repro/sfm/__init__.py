"""SfM substrate: observation table, incremental reconstruction, clouds, filtering."""

from .columnar import FeatureColumns, ObservationTable, PointColumnStore, best_seed_pair
from .filters import IncrementalSorFilter, sor_filter, sor_mask
from .model import RecoveredCamera, SfmModel
from .pointcloud import CloudPoint, PointCloud
from .reconstruction import IncrementalSfm, RegistrationReport

__all__ = [
    "CloudPoint",
    "FeatureColumns",
    "IncrementalSfm",
    "IncrementalSorFilter",
    "ObservationTable",
    "PointCloud",
    "PointColumnStore",
    "RecoveredCamera",
    "RegistrationReport",
    "SfmModel",
    "best_seed_pair",
    "sor_filter",
    "sor_mask",
]
