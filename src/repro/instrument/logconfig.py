"""Logging configuration for the ``repro`` package.

One small entry point, :func:`logging_setup`, replaces the ad-hoc
``print`` calls that used to live in the CLI and the simulation driver.
It configures the ``"repro"`` logger hierarchy only — library consumers
embedding repro keep full control of root logging.
"""

from __future__ import annotations

import logging
import sys

__all__ = ["logging_setup"]

#: handler marker so repeated setup calls replace rather than stack
_HANDLER_NAME = "repro-cli"


def logging_setup(verbosity: int = 0, stream=None) -> logging.Logger:
    """Configure the ``repro`` logger from a CLI verbosity level.

    Parameters
    ----------
    verbosity:
        ``-1`` (or lower) → WARNING (``-q``), ``0`` → INFO,
        ``1`` (or higher) → DEBUG (``-v``).
    stream:
        Destination stream; defaults to ``sys.stdout`` so run products
        and progress lines interleave in order.

    Returns the configured ``"repro"`` logger.  Idempotent: calling it
    again replaces the handler installed by the previous call.
    """
    if verbosity <= -1:
        level = logging.WARNING
    elif verbosity == 0:
        level = logging.INFO
    else:
        level = logging.DEBUG
    logger = logging.getLogger("repro")
    logger.setLevel(level)
    for handler in list(logger.handlers):
        if handler.get_name() == _HANDLER_NAME:
            logger.removeHandler(handler)
    handler = logging.StreamHandler(stream if stream is not None else sys.stdout)
    handler.set_name(_HANDLER_NAME)
    if level <= logging.DEBUG:
        fmt = "%(name)s %(levelname).1s %(message)s"
    else:
        fmt = "%(message)s"
    handler.setFormatter(logging.Formatter(fmt))
    logger.addHandler(handler)
    logger.propagate = False
    return logger
