"""Client/server deployment layer over the discrete-event simulator."""

from .backend import LEDGER_RETENTION_S, PROCESSING_S_PER_PHOTO, BackendServer
from .client import CAPTURE_INTERVAL_S, ClientStats, MobileClient
from .deployment import Deployment, DeploymentReport
from .messages import (
    PhotoBatch,
    ProcessingResult,
    TaskAssignment,
    TaskRequest,
)
from .storage import BackendStore, Lease

__all__ = [
    "BackendServer",
    "BackendStore",
    "CAPTURE_INTERVAL_S",
    "ClientStats",
    "Deployment",
    "DeploymentReport",
    "LEDGER_RETENTION_S",
    "Lease",
    "MobileClient",
    "PROCESSING_S_PER_PHOTO",
    "PhotoBatch",
    "ProcessingResult",
    "TaskAssignment",
    "TaskRequest",
]
