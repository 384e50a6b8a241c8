"""Serving-suite hygiene: no test may leave an asyncio error behind.

The event loop reports a task that died with nobody awaiting it ("Task
exception was never retrieved") and a failing callback ("Exception in
callback ...") only as ERROR records on the ``asyncio`` logger — the
client usually sees a dropped connection and nothing fails.  Every
external input must get a typed answer instead, so each serving test
fails on any such record, including those a teardown ``gc.collect()``
shakes out of unreferenced tasks.
"""

import gc
import logging

import pytest


class _Collect(logging.Handler):
    def __init__(self) -> None:
        super().__init__(level=logging.ERROR)
        self.records: list[logging.LogRecord] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append(record)


def _fail_on(handler: _Collect) -> None:
    records, handler.records = handler.records, []
    if records:
        pytest.fail(
            "asyncio logged errors:\n"
            + "\n".join(handler.format(record) for record in records),
            pytrace=False,
        )


@pytest.fixture(scope="session", autouse=True)
def asyncio_errors():
    """One collector for the whole run.  Records a class- or
    module-scoped serving plane logs while shutting down, after the last
    test's check, fail the next test or, at the very end, the session."""
    handler = _Collect()
    logger = logging.getLogger("asyncio")
    logger.addHandler(handler)
    try:
        yield handler
        gc.collect()
    finally:
        logger.removeHandler(handler)
    _fail_on(handler)


@pytest.fixture(autouse=True)
def no_asyncio_errors(asyncio_errors):
    yield
    gc.collect()
    _fail_on(asyncio_errors)
