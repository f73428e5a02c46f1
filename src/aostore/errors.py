"""Error taxonomy shared by the store, the wire protocol and the client."""

from __future__ import annotations

# Numeric codes carried by ERROR replies on the wire.
ERR_UNKNOWN_MSG_TYPE = 1
ERR_MALFORMED = 2
ERR_NOT_FOUND = 3
ERR_DUPLICATE = 4
ERR_UNKNOWN_NAME = 5
ERR_CAPACITY = 6
ERR_SHAPE_MISMATCH = 7
ERR_INVALID = 8
ERR_INTERNAL = 9


class StoreError(Exception):
    """Base class for all store-level failures; carries a wire error code."""

    code = ERR_INTERNAL


class PayloadError(StoreError):
    """Malformed payload bytes (bad tag, truncation, length mismatch)."""

    code = ERR_MALFORMED


class FrameError(StoreError):
    """Malformed wire frame (truncation, oversize, bad offsets)."""

    code = ERR_MALFORMED


class UnknownMsgTypeError(FrameError):
    code = ERR_UNKNOWN_MSG_TYPE


class NotFoundError(StoreError):
    code = ERR_NOT_FOUND


class DuplicateError(StoreError):
    code = ERR_DUPLICATE


class UnknownNameError(StoreError):
    """Unknown class, method or routine key."""

    code = ERR_UNKNOWN_NAME


class CapacityError(StoreError):
    code = ERR_CAPACITY


class ShapeMismatchError(StoreError):
    code = ERR_SHAPE_MISMATCH


class InvalidRequestError(StoreError):
    code = ERR_INVALID


class ArenaError(StoreError):
    """Arena file cannot be opened or is corrupt."""

    code = ERR_INVALID


# the class a client raises for each code; a PayloadError arrives as a
# FrameError and an ArenaError as an InvalidRequestError, whose codes they share
_CODE_TO_CLASS = {
    cls.code: cls
    for cls in (UnknownMsgTypeError, FrameError, NotFoundError, DuplicateError, UnknownNameError,
                CapacityError, ShapeMismatchError, InvalidRequestError, StoreError)
}


def error_for_code(code: int, message: str) -> StoreError:
    """Rebuild the typed exception for an ERROR reply received by a client."""
    cls = _CODE_TO_CLASS.get(code, StoreError)
    exc = cls(message)
    exc.code = code
    return exc
