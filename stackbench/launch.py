"""Traced launcher for a serving process.

Usage (from the repository root)::

    STACKBENCH_SPANS=FILE python3 stackbench/launch.py repro.server ARGS...
    STACKBENCH_SPANS=FILE python3 stackbench/launch.py repro.router ARGS...

Wraps the layer functions listed in ``layers.py`` in spans, then calls the
module's normal ``main(ARGS)``. Tracing starts installed; writing ``off``
or ``on`` to ``FILE.ctl`` removes or re-installs the wrappers, and the
launcher acknowledges by writing the same word to ``FILE.ack``. When
``main`` returns (after the usual SIGTERM drain) the spans are written to
``FILE`` as JSON.
"""

from __future__ import annotations

import importlib
import os
import sys
import threading

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402

CONTROL_POLL_S = 0.01


def _control_loop(tracer, path: str, stop: threading.Event) -> None:
    applied = "on"
    while not stop.wait(CONTROL_POLL_S):
        try:
            with open(path + ".ctl") as handle:
                wanted = handle.read().strip()
        except FileNotFoundError:
            continue
        if wanted == applied or wanted not in ("on", "off"):
            continue
        if wanted == "on":
            tracer.install()
        else:
            tracer.uninstall()
        applied = wanted
        with open(path + ".ack.tmp", "w") as handle:
            handle.write(applied)
        os.replace(path + ".ack.tmp", path + ".ack")


def main() -> int:
    module_name, argv = sys.argv[1], sys.argv[2:]
    path = os.environ["STACKBENCH_SPANS"]
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    if module_name == "repro.router":
        tracer = layers.router_tracer()
    else:
        tracer = layers.server_tracer()
    tracer.install()
    stop = threading.Event()
    control = threading.Thread(
        target=_control_loop, args=(tracer, path, stop), daemon=True
    )
    control.start()
    module = importlib.import_module(module_name + ".__main__")
    try:
        code = module.main(argv)
    finally:
        stop.set()
        control.join()
        tracer.uninstall()
        tracer.dump(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
