"""Typed exception hierarchy for the repro package.

Every error the simulator or the kernels can raise on misuse derives from
:class:`ReproError`, so callers can catch the whole family in one clause
while tests assert on the precise subclass.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigError(ReproError):
    """A device configuration is inconsistent or out of range."""


class AllocationError(ReproError):
    """Global- or local-memory allocation failed (out of capacity)."""


class BufferOverflowError(AllocationError):
    """A local tensor does not fit in its hardware buffer."""


class DTypeError(ReproError):
    """An operation was given operands of an unsupported dtype combination."""


class ShapeError(ReproError):
    """An operation was given operands with incompatible shapes."""


class QueueError(ReproError):
    """TQue misuse: deque before enque, exceeding depth, double free, ..."""


class KernelError(ReproError):
    """A kernel was launched with invalid parameters."""


class SchedulerError(ReproError):
    """The discrete-event scheduler reached an invalid state (deadlock,
    dependency on an unknown op, negative duration, ...)."""


class DeadlockError(SchedulerError):
    """No runnable operation remains while unfinished operations exist."""


class DeviceFault(ReproError):
    """A simulated kernel launch failed (fault injection, see
    :mod:`repro.hw.faults`).

    ``permanent`` distinguishes device loss — every later launch on the
    device fails too — from a transient launch failure that a relaunch
    may clear.  The serving layer's retry loop stamps ``attempts`` with
    the number of launch attempts it made before giving up.
    """

    def __init__(
        self,
        message: str,
        *,
        device: "str | None" = None,
        permanent: bool = False,
        launch_index: "int | None" = None,
    ):
        super().__init__(message)
        #: name of the faulting device (``AscendDevice.name``)
        self.device = device
        #: True for permanent device loss, False for a transient failure
        self.permanent = permanent
        #: per-device launch counter value at the moment of the fault
        self.launch_index = launch_index
        #: launch attempts made before this fault escaped the retry loop
        self.attempts = 1
