"""Layering: the layers above ISIS use its public surface only, and the
stripe map's format is read in one module.

``core/``, ``nfs/`` and ``agent/`` reach the group layer through a ``proc``
(or, in the pipeline services, a ``transport`` port).  Touching a private
attribute of either — the update pipeline used to build reply-collector
records by hand in ``proc._collectors`` — re-implements the layer below
instead of calling it.

A striped file's map lives in its parent's meta under one key; outside
``core/striping/`` it is read through ``StripeMap``, never parsed by hand.

The NFS op table is the only way a request reaches the envelope: every
name in it is an :class:`~repro.nfs.envelope.Envelope` coroutine method,
and every op the agent sends is in it.

The agent resolves names in one place: it sends the ``lookup`` NFS op from
one call site, so the dir and negative caches, the placement hints and the
LOOKUP that carries a cold read's bytes cannot drift apart on a second
path.
"""

import ast
import inspect
import pathlib

import repro
from repro.nfs.envelope import Envelope
from repro.nfs.server import NFS_OPS

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


def test_every_nfs_op_is_an_envelope_coroutine_method():
    for op in NFS_OPS:
        assert inspect.iscoroutinefunction(getattr(Envelope, op, None)), op


def _agent_sent_ops() -> set[str]:
    """The op names the agent sends: the literal first arguments of
    ``_nfs`` and of the helpers that pass their own ``op`` on to it."""
    trees = [ast.parse(path.read_text())
             for path in sorted((SRC / "agent").rglob("*.py"))]

    def sends(node, name):
        return isinstance(node, ast.Call) and node.args \
            and isinstance(node.func, ast.Attribute) \
            and node.func.attr == name

    senders = {"_nfs"}
    for tree in trees:
        for func in ast.walk(tree):
            if isinstance(func, ast.AsyncFunctionDef) and any(
                    sends(node, "_nfs") and isinstance(node.args[0], ast.Name)
                    and node.args[0].id == "op" for node in ast.walk(func)):
                senders.add(func.name)
    ops = set()
    for tree in trees:
        for node in ast.walk(tree):
            if any(sends(node, name) for name in senders):
                first = node.args[0]
                if isinstance(first, ast.Constant):
                    ops.add(first.value)
                else:    # only a sender's own ``op`` may be a variable
                    assert isinstance(first, ast.Name) and first.id == "op"
    return ops


def test_every_op_the_agent_sends_is_in_the_table():
    sent = _agent_sent_ops()
    assert {"lookup", "read", "write", "create", "mkdir", "symlink",
            "remove", "rmdir", "rename", "link", "readdir"} <= sent
    assert sent <= NFS_OPS
