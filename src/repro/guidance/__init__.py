"""Guidance models: the modular SyntaxSQLNet stand-in used by GPQE."""

from .base import (
    ALL_SLOTS,
    Distribution,
    GuidanceContext,
    GuidanceModel,
    GuidanceRequest,
    SLOT_GROUP_BY,
    SLOT_HAVING,
    SLOT_ORDER_BY,
    SLOT_SELECT,
    SLOT_WHERE,
)
from .batched import (
    AmortisationCounters,
    BatchingGuidanceModel,
    GuidanceCache,
    ServerGuidanceModel,
    close_guidance,
    make_guidance_backend,
    request_candidates,
)
from .lexical import LexicalGuidanceModel
from .modules import MODULES, ModuleInfo, module_by_name
from .oracle import AccuracyProfile, CalibratedOracleModel

__all__ = [
    "ALL_SLOTS",
    "AccuracyProfile",
    "AmortisationCounters",
    "BatchingGuidanceModel",
    "CalibratedOracleModel",
    "Distribution",
    "GuidanceCache",
    "ServerGuidanceModel",
    "GuidanceContext",
    "GuidanceModel",
    "GuidanceRequest",
    "LexicalGuidanceModel",
    "MODULES",
    "ModuleInfo",
    "SLOT_GROUP_BY",
    "SLOT_HAVING",
    "SLOT_ORDER_BY",
    "SLOT_SELECT",
    "SLOT_WHERE",
    "close_guidance",
    "make_guidance_backend",
    "module_by_name",
    "request_candidates",
]
