"""Layering: the layers above ISIS use its public surface only, and the
stripe map's format is read in one module.

``core/``, ``nfs/`` and ``agent/`` reach the group layer through a ``proc``
(or, in the pipeline services, a ``transport`` port).  Touching a private
attribute of either — the update pipeline used to build reply-collector
records by hand in ``proc._collectors`` — re-implements the layer below
instead of calling it.

A striped file's map lives in its parent's meta under one key; outside
``core/striping/`` it is read through ``StripeMap``, never parsed by hand.

The agent resolves names in one place: it sends the ``lookup`` NFS op from
one call site, so the dir and negative caches, the placement hints and the
LOOKUP that carries a cold read's bytes cannot drift apart on a second
path.
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


def _stripe_key_uses(path: pathlib.Path) -> list[str]:
    return [f"{path.relative_to(SRC)}:{node.lineno}"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Constant) and node.value == "stripes"]


def test_only_the_striping_package_names_the_stripe_map_key():
    striping = SRC / "core" / "striping"
    offenders = [hit for layer in LAYERS
                 for path in sorted((SRC / layer).rglob("*.py"))
                 if striping not in path.parents
                 for hit in _stripe_key_uses(path)]
    assert offenders == []


def test_the_agent_sends_lookup_from_one_call_site():
    agent = SRC / "agent"
    named, sent = [], []
    for path in sorted(agent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and node.value == "lookup":
                named.append(f"{path.relative_to(SRC)}:{node.lineno}")
            if isinstance(node, ast.Call) and node.args \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "_nfs" \
                    and isinstance(node.args[0], ast.Constant) \
                    and node.args[0].value == "lookup":
                sent.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert len(named) == 1, named
    assert sent == named
