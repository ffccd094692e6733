"""Layering: the layers above ISIS use its public surface only.

``core/``, ``nfs/`` and ``agent/`` reach the group layer through a ``proc``
(or, in the pipeline services, a ``transport`` port).  Touching a private
attribute of either — the update pipeline used to build reply-collector
records by hand in ``proc._collectors`` — re-implements the layer below
instead of calling it.
"""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).parent
LAYERS = ("core", "nfs", "agent")
PORTS = {"proc", "transport"}


def _private_port_accesses(path: pathlib.Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Attribute):
            continue
        if not node.attr.startswith("_") or node.attr.startswith("__"):
            continue
        owner = node.value
        name = owner.id if isinstance(owner, ast.Name) else \
            owner.attr if isinstance(owner, ast.Attribute) else None
        if name in PORTS:
            found.append(f"{path.relative_to(SRC)}:{node.lineno} "
                         f"{name}.{node.attr}")
    return found


def test_upper_layers_never_touch_isis_or_transport_privates():
    offenders = [hit for layer in LAYERS
                 for path in sorted((SRC / layer).rglob("*.py"))
                 for hit in _private_port_accesses(path)]
    assert offenders == []
