"""The out-of-order superscalar substrate (SimpleScalar-style engine)."""

from .config import (UNLIMITED, BranchPredictorParams, MachineConfig)
from .fetch import FetchUnit, build_predictor
from .funits import FuBank, FuPool
from .lsq import LoadStoreQueue
from .processor import Processor, simulate
from .rename import AssociativeRenamer, MapTableRenamer, make_renamer
from .rob import DONE, ISSUED, READY, WAITING, Group, RobEntry
from .stats import PipelineStats
from .trace import PipelineTracer, RewindRecord, TraceRecord

__all__ = [
    "UNLIMITED", "BranchPredictorParams", "MachineConfig", "FetchUnit",
    "build_predictor", "FuBank", "FuPool", "LoadStoreQueue",
    "Processor", "simulate", "AssociativeRenamer", "MapTableRenamer",
    "make_renamer", "DONE", "ISSUED", "READY", "WAITING", "Group",
    "RobEntry", "PipelineStats", "PipelineTracer", "RewindRecord",
    "TraceRecord",
]
