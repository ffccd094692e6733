"""``racelint``: static analysis for the atomicity contract.

``detlint`` polices *determinism* — two same-seed runs must be
byte-identical.  It says nothing about *atomicity*: a check-then-act race
that fires identically under the same seed passes every determinism pin.
In cooperative-async protocol code every ``await`` is a silent preemption
point, and the paper's correctness arguments (§3.3 token-forwarded
updates, §3.6 recovery merge) all assume each protocol step's
read-modify-write on shared server state is atomic.  ``racelint`` flags
the source shapes that break that assumption.

Rules (each also documented in :data:`RULES`):

``lockguard``
    ``await lock.acquire()`` whose matching ``release()`` is not in the
    ``finally`` of an immediately following ``try`` — an exception (or an
    early return) between acquire and release wedges every later
    acquirer.  Simple non-awaiting statements between the acquire and the
    ``try`` are tolerated; a second ``await`` / ``return`` / ``raise``
    before the guard is not.  A bare ``x.acquire()`` whose result future
    is discarded is also flagged (if the lock was free, it is now held by
    nobody who can release it).
``staleread``
    A shared container entry (``...tokens[k]``, ``...catalogs[k]``, a
    name bound from one) read before an ``await`` and written after it in
    the same function, outside a ``try``/``finally``-release lock guard
    spanning both.  Between the read and the write the task yielded; the
    write may act on a stale value.  Re-validate after the await, hold
    the lock across the span, or suppress with the reason the
    interleaving is benign.
``futleak``
    A pending future (a name bound from ``create_future()``) registered
    in a waiter table and awaited afterwards, without a ``finally`` that
    removes it — an exception mid-await leaks the waiter: ``release()``
    -style completions then "wake" a registration nobody owns, or the
    table wedges pending forever.
``callbackmut``
    Shared protocol state mutated from a *non-task* callback (a lambda or
    sync function handed to ``add_done_callback`` / ``schedule`` /
    ``post`` / ``call_at`` or an ``on_*`` keyword).  Callbacks run
    between task steps: a mutation there can interleave with a task that
    is mid-read-modify-write across an ``await`` and invalidate it —
    exactly the hazard ``ysan`` observes dynamically.
``pragma``
    A malformed suppression: ``# racelint: ok(rule)`` without a reason,
    or naming an unknown rule.

Suppression: append ``# racelint: ok(<rule>) - <reason>`` to the
offending line (or the line directly above it).  The reason is mandatory
— a suppression is a reviewed claim about why the interleaving is safe
(usually "the span holds lock L" or "single-writer by construction"),
and the claim must be stated.
"""

from __future__ import annotations

import ast

from repro.analysis.lintcore import Allowlist, LintTool, Violation

#: rule name -> one-line description (the linter's public contract).
RULES: dict[str, str] = {
    "lockguard": "await lock.acquire() without an immediate try/finally "
                 "release (or an acquire future discarded outright)",
    "staleread": "shared state read before an await and written after it "
                 "without a lock guard spanning both (re-validate or hold "
                 "the lock)",
    "futleak": "pending future registered in a waiter table and awaited "
               "without a finally that removes it",
    "callbackmut": "shared protocol state mutated from a non-task "
                   "callback (runs between task steps)",
    "pragma": "malformed racelint suppression pragma",
}

#: (path suffix, exempt rules or None for all, reason).  Code outside the
#: cooperative protocol domain, where the rules' atomicity model does not
#: apply.
ALLOWLIST: Allowlist = [
    ("repro/analysis/ysan.py", None,
     "the sanitizer itself: its bookkeeping mirrors the shared-attr "
     "names it instruments"),
    ("repro/analysis/racelint.py", None,
     "rule tables quote the very shapes the linter flags"),
]

#: terminal attribute names of containers the atomicity contract covers —
#: the token table, replica records, catalogs and their major maps, token
#: holder sets, directory tables, and stripe maps.
SHARED_ATTRS = frozenset({
    "tokens", "replicas", "catalogs", "majors", "holders",
    "dirtable", "stripes", "read_ts",
})

#: method calls that mutate a container in place.
_MUTATING_METHODS = frozenset({
    "pop", "popitem", "clear", "update", "setdefault",
    "add", "discard", "remove", "append", "extend", "insert",
})

#: read-only accessor calls on shared containers.
_READING_METHODS = frozenset({"get", "keys", "values", "items"})

#: call names that register a callback in their arguments.
_CALLBACK_SINKS = frozenset({"add_done_callback", "schedule", "post",
                             "call_at"})


def _expr_key(node: ast.AST) -> str:
    """Location- and context-free fingerprint of an expression."""
    return ast.dump(node, annotate_fields=False, include_attributes=False) \
        .replace("Store()", "Load()").replace("Del()", "Load()")


def _is_shared_subscript(node: ast.AST) -> str | None:
    """Terminal shared-attr name if ``node`` subscripts a shared container."""
    if (isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr in SHARED_ATTRS):
        return node.value.attr
    return None


def _shared_read_call(node: ast.AST) -> str | None:
    """Shared attr if ``node`` is ``<...>.<shared>.get(...)`` etc."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in _READING_METHODS
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr in SHARED_ATTRS):
        return node.func.value.attr
    return None


def _walk_scope(node: ast.AST):
    """Pre-order ast.walk that does not descend into nested defs.

    Yields in source order — the seen-before bookkeeping in the checkers
    (names bound from shared reads, futures bound from create_future)
    depends on bindings being visited before their uses.
    """
    stack = list(ast.iter_child_nodes(node))[::-1]
    while stack:
        child = stack.pop()
        yield child
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda, ast.ClassDef)):
            continue
        stack.extend(list(ast.iter_child_nodes(child))[::-1])


def _release_spans(fn: ast.AST) -> list[tuple[int, int]]:
    """Line spans of try statements whose finally releases a lock."""
    spans: list[tuple[int, int]] = []
    for node in _walk_scope(fn):
        if isinstance(node, ast.Try) and _finally_releases(node) is not None:
            spans.append((node.lineno, node.end_lineno or node.lineno))
    return spans


def _finally_releases(node: ast.Try) -> ast.expr | None:
    """The receiver of an ``X.release()`` call in the finally, if any."""
    for stmt in node.finalbody:
        for sub in ast.walk(stmt):
            if (isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr == "release"):
                return sub.func.value
    return None


class _MutationScan:
    """Direct shared-state mutations inside one sync function or lambda."""

    @staticmethod
    def mutates(node: ast.AST) -> str | None:
        """Describe the first direct shared mutation in ``node``, or None."""
        for sub in ast.walk(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and sub is not node:
                continue
            if isinstance(sub, (ast.Assign, ast.AugAssign)):
                targets = (sub.targets if isinstance(sub, ast.Assign)
                           else [sub.target])
                for target in targets:
                    attr = _is_shared_subscript(target)
                    if attr is not None:
                        return f"assigns .{attr}[...]"
            if isinstance(sub, ast.Delete):
                for target in sub.targets:
                    attr = _is_shared_subscript(target)
                    if attr is not None:
                        return f"deletes from .{attr}"
            if (isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in _MUTATING_METHODS
                    and isinstance(sub.func.value, ast.Attribute)
                    and sub.func.value.attr in SHARED_ATTRS):
                return (f"calls .{sub.func.value.attr}"
                        f".{sub.func.attr}(...)")
        return None


class _ClassMutators(ast.NodeVisitor):
    """Module pre-pass: per class, sync methods that mutate shared state."""

    def __init__(self) -> None:
        self.by_class: dict[str, dict[str, str]] = {}

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        methods: dict[str, str] = {}
        for stmt in node.body:
            if isinstance(stmt, ast.FunctionDef):  # sync only
                how = _MutationScan.mutates(stmt)
                if how is not None:
                    methods[stmt.name] = how
        self.by_class[node.name] = methods
        self.generic_visit(node)


class _Linter(ast.NodeVisitor):
    """The per-module rule pass."""

    def __init__(self, path: str, tree: ast.Module):
        self.path = path
        self.violations: list[Violation] = []
        mutators = _ClassMutators()
        mutators.visit(tree)
        self.class_mutators = mutators.by_class
        self._class_stack: list[str] = []

    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        self.violations.append(
            Violation(self.path, getattr(node, "lineno", 0), rule, message))

    # ------------------------------------------------------------------ #
    # traversal
    # ------------------------------------------------------------------ #

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_function(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_function(node)
        self.generic_visit(node)

    def _check_function(self, fn: ast.FunctionDef | ast.AsyncFunctionDef
                        ) -> None:
        self._check_lockguard_blocks(fn)
        self._check_staleread(fn)
        self._check_futleak(fn)
        self._check_callbacks(fn)

    # ------------------------------------------------------------------ #
    # lockguard
    # ------------------------------------------------------------------ #

    @staticmethod
    def _acquire_receiver(stmt: ast.stmt) -> ast.expr | None:
        """Receiver X of a statement-level ``await X.acquire()``."""
        value = stmt.value if isinstance(stmt, (ast.Expr, ast.Assign)) \
            else None
        if isinstance(value, ast.Await):
            value = value.value
        else:
            return None
        if (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr == "acquire"):
            return value.func.value
        return None

    @staticmethod
    def _has_await_or_exit(stmt: ast.stmt) -> bool:
        for sub in ast.walk(stmt):
            if isinstance(sub, (ast.Await, ast.Return, ast.Raise)):
                return True
        return False

    def _check_lockguard_blocks(self, fn: ast.AST) -> None:
        for node in _walk_scope(fn):
            for field in ("body", "orelse", "finalbody"):
                block = getattr(node, field, None)
                if isinstance(block, list) and block \
                        and isinstance(block[0], ast.stmt):
                    self._scan_block(block)
        # the function's own body
        body = getattr(fn, "body", None)
        if isinstance(body, list):
            self._scan_block(body)

    def _scan_block(self, stmts: list[ast.stmt]) -> None:
        for i, stmt in enumerate(stmts):
            # discarded acquire future: Expr of a bare X.acquire()
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
                call = stmt.value
                if (isinstance(call.func, ast.Attribute)
                        and call.func.attr == "acquire"):
                    self._flag(stmt, "lockguard",
                               "acquire() future discarded: if the lock was "
                               "free it is now held with no awaiter to "
                               "release it")
                    continue
            receiver = self._acquire_receiver(stmt)
            if receiver is None:
                continue
            want = _expr_key(receiver)
            guarded = False
            for nxt in stmts[i + 1:]:
                if isinstance(nxt, ast.Try):
                    released = _finally_releases(nxt)
                    guarded = (released is not None
                               and _expr_key(released) == want)
                    break
                if self._has_await_or_exit(nxt):
                    break  # yields or leaves before any guard: unprotected
            if not guarded:
                self._flag(stmt, "lockguard",
                           "await ...acquire() is not followed by a "
                           "try/finally that releases the same lock; an "
                           "exception here wedges every later acquirer")

    # ------------------------------------------------------------------ #
    # staleread
    # ------------------------------------------------------------------ #

    def _check_staleread(self, fn: ast.AST) -> None:
        awaits = sorted(sub.lineno for sub in _walk_scope(fn)
                        if isinstance(sub, ast.Await))
        if not awaits:
            return
        spans = _release_spans(fn)
        bound: dict[str, tuple[str, int]] = {}  # name -> (shared attr, line)
        reads: list[tuple[str, int]] = []
        # (attr, write line, node, binding line or None).  A write through
        # a *bound name* can only be stale relative to the read that bound
        # it — re-binding after an await is the re-validate idiom, and
        # pairing such a write with unrelated earlier reads of the same
        # container would flag exactly the code doing the right thing.
        writes: list[tuple[str, int, ast.AST, int | None]] = []
        for sub in _walk_scope(fn):
            if isinstance(sub, (ast.Assign, ast.AugAssign)):
                targets = (sub.targets if isinstance(sub, ast.Assign)
                           else [sub.target])
                for target in targets:
                    attr = _is_shared_subscript(target)
                    if attr is not None:
                        writes.append((attr, target.lineno, sub, None))
                    elif (isinstance(target, ast.Attribute)
                          and isinstance(target.value, ast.Name)
                          and target.value.id in bound):
                        battr, bline = bound[target.value.id]
                        writes.append((battr, target.lineno, sub, bline))
                # name bound from a shared read: `token = ...tokens[k]`
                if isinstance(sub, ast.Assign) and len(sub.targets) == 1 \
                        and isinstance(sub.targets[0], ast.Name):
                    value_attr = (_is_shared_subscript(sub.value)
                                  or _shared_read_call(sub.value))
                    if value_attr is not None:
                        bound[sub.targets[0].id] = (value_attr, sub.lineno)
            if isinstance(sub, ast.Subscript) \
                    and isinstance(sub.ctx, ast.Load):
                attr = _is_shared_subscript(sub)
                if attr is not None:
                    reads.append((attr, sub.lineno))
            elif isinstance(sub, ast.Delete):
                for target in sub.targets:
                    attr = _is_shared_subscript(target)
                    if attr is not None:
                        writes.append((attr, target.lineno, sub, None))
            elif isinstance(sub, ast.Call) \
                    and isinstance(sub.func, ast.Attribute):
                attr_read = _shared_read_call(sub)
                if attr_read is not None:
                    reads.append((attr_read, sub.lineno))
                elif (sub.func.attr in _MUTATING_METHODS
                      and isinstance(sub.func.value, ast.Attribute)
                      and sub.func.value.attr in SHARED_ATTRS):
                    writes.append(
                        (sub.func.value.attr, sub.lineno, sub, None))
                    # `info.holders.discard(x)` where info came from a
                    # shared read: the mutation also writes through the
                    # container the name was bound from
                    base = sub.func.value.value
                    if isinstance(base, ast.Name) and base.id in bound:
                        battr, bline = bound[base.id]
                        writes.append((battr, sub.lineno, sub, bline))
        flagged: set[tuple[str, int]] = set()
        for attr, wline, wnode, bind_line in writes:
            if (attr, wline) in flagged:
                continue
            candidates = ([(attr, bind_line)] if bind_line is not None
                          else reads + [v for v in bound.values()])
            for rattr, rline in candidates:
                if rattr != attr or rline >= wline:
                    continue
                if not any(rline < a <= wline for a in awaits):
                    continue
                if any(lo <= rline and wline <= hi for lo, hi in spans):
                    continue
                flagged.add((attr, wline))
                self._flag(wnode, "staleread",
                           f"'.{attr}' read at line {rline} crosses an "
                           "await before this write; the task yielded in "
                           "between — re-validate, hold the lock across "
                           "the span, or state why the interleaving is "
                           "benign")
                break

    # ------------------------------------------------------------------ #
    # futleak
    # ------------------------------------------------------------------ #

    def _check_futleak(self, fn: ast.AST) -> None:
        future_names: set[str] = set()
        registrations: list[tuple[str, ast.stmt]] = []
        removal_tables: set[str] = set()
        awaits: list[int] = []
        for sub in _walk_scope(fn):
            if isinstance(sub, ast.Await):
                awaits.append(sub.lineno)
            if isinstance(sub, ast.Assign):
                value = sub.value
                if (isinstance(value, ast.Call)
                        and isinstance(value.func, ast.Attribute)
                        and value.func.attr == "create_future"):
                    for target in sub.targets:
                        if isinstance(target, ast.Name):
                            future_names.add(target.id)
                # table[key] = fut
                if isinstance(value, ast.Name) and value.id in future_names:
                    for target in sub.targets:
                        if (isinstance(target, ast.Subscript)
                                and isinstance(target.value, ast.Attribute)):
                            registrations.append(
                                (target.value.attr, sub))
            if isinstance(sub, ast.Try):
                for stmt in sub.finalbody:
                    for inner in ast.walk(stmt):
                        if (isinstance(inner, ast.Call)
                                and isinstance(inner.func, ast.Attribute)
                                and inner.func.attr in ("pop", "__delitem__")
                                and isinstance(inner.func.value,
                                               ast.Attribute)):
                            removal_tables.add(inner.func.value.attr)
                        if isinstance(inner, ast.Delete):
                            for target in inner.targets:
                                if (isinstance(target, ast.Subscript)
                                        and isinstance(target.value,
                                                       ast.Attribute)):
                                    removal_tables.add(target.value.attr)
        for table, stmt in registrations:
            if table in removal_tables:
                continue
            if not any(a > stmt.lineno for a in awaits):
                continue  # nothing yields after the registration
            self._flag(stmt, "futleak",
                       f"pending future registered in '.{table}' and "
                       "awaited after, with no finally removing it; an "
                       "exception mid-await leaks the waiter")

    # ------------------------------------------------------------------ #
    # callbackmut
    # ------------------------------------------------------------------ #

    def _callback_args(self, call: ast.Call) -> list[ast.expr]:
        out: list[ast.expr] = []
        func = call.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else "")
        if name in _CALLBACK_SINKS:
            if name == "add_done_callback":
                out.extend(call.args[:1])
            else:  # schedule/post/call_at: (delay, fn, *args)
                out.extend(call.args[1:2])
        out.extend(kw.value for kw in call.keywords
                   if kw.arg is not None and kw.arg.startswith("on_"))
        return out

    def _check_callbacks(self, fn: ast.AST) -> None:
        local_defs = {stmt.name: stmt for stmt in _walk_scope(fn)
                      if isinstance(stmt, ast.FunctionDef)}
        mutating_methods = (self.class_mutators.get(self._class_stack[-1], {})
                            if self._class_stack else {})
        for sub in _walk_scope(fn):
            if not isinstance(sub, ast.Call):
                continue
            for arg in self._callback_args(sub):
                how = self._callback_mutates(arg, local_defs,
                                             mutating_methods)
                if how is not None:
                    self._flag(sub, "callbackmut",
                               f"callback {how}; it runs between task "
                               "steps and can interleave with a task "
                               "mid-read-modify-write")
                    break

    def _callback_mutates(self, arg: ast.expr,
                          local_defs: dict[str, ast.FunctionDef],
                          mutating_methods: dict[str, str]) -> str | None:
        target: ast.AST | None = None
        label = ""
        if isinstance(arg, ast.Lambda):
            target, label = arg, "lambda"
        elif isinstance(arg, ast.Name) and arg.id in local_defs:
            target, label = local_defs[arg.id], f"'{arg.id}'"
        elif (isinstance(arg, ast.Attribute)
              and isinstance(arg.value, ast.Name)
              and arg.value.id == "self" and arg.attr in mutating_methods):
            return (f"'self.{arg.attr}' {mutating_methods[arg.attr]} "
                    "on shared state")
        if target is None:
            return None
        how = _MutationScan.mutates(target)
        if how is not None:
            return f"{label} {how} on shared state"
        # one level of indirection: lambda/def calling a mutating method
        for sub in ast.walk(target):
            if (isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and isinstance(sub.func.value, ast.Name)
                    and sub.func.value.id == "self"
                    and sub.func.attr in mutating_methods):
                return (f"{label} calls 'self.{sub.func.attr}', which "
                        f"{mutating_methods[sub.func.attr]} on shared state")
        return None


_TOOL = LintTool("racelint", "Atomicity", RULES, ALLOWLIST, _Linter)
lint_source = _TOOL.lint_source
lint_paths = _TOOL.lint_paths
format_violations = _TOOL.format_violations
main = _TOOL.main


if __name__ == "__main__":
    raise SystemExit(main())
