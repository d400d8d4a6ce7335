"""Run plain put/get/sleep scripts on protocol clients through the
workload driver, so each test's history comes from the one recorder
every store shares."""

from repro.api import FnSession
from repro.workload import OpSpec, WorkloadDriver


def client_session(client, write=None, read=None):
    """A driver session over a protocol client: ``write(key, value,
    timeout=)`` and ``read(key, timeout=)`` default to the client's own
    ``put`` / ``get``."""
    write = write or client.put
    read = read or client.get
    return FnSession(
        client.session,
        put_fn=lambda key, value, timeout: write(key, value, timeout=timeout),
        read_fns={"default": lambda key, timeout: read(key, timeout=timeout)},
        default_mode="default",
        client_id=client.node_id,
    )


def put(key, value):
    return OpSpec("put", key, value)


def get(key):
    return OpSpec("read", key)


def sleep(ms):
    return OpSpec("sleep", "", ms)


def drive(sim, *lanes, recorder=None):
    """Run ``(session, ops)`` lanes closed-loop; returns the driver's
    result, whose history holds every op the lanes issued (and every op
    recorded before into ``recorder``, when one is passed)."""
    driver = WorkloadDriver(sim, recorder=recorder)
    for session, ops in lanes:
        driver.add_session(session, ops)
    return driver.run()
