"""``detlint``: static analysis for the determinism contract.

Every simulation in this repository promises that two same-seed runs are
byte-identical.  The promise dies quietly: one ``time.time()`` in a
protocol path, one module-global ``random.random()``, one iteration over a
``set`` of addresses that decides which replica gets the first RPC — and
the 64-server determinism pin goes red an afternoon of bisecting later.
``detlint`` proves the contract at review time instead.

Rules (each also documented in :data:`RULES`):

``wallclock``
    Reading the host clock (``time.time`` / ``monotonic`` /
    ``perf_counter`` / their ``_ns`` twins, ``datetime.now`` /
    ``utcnow`` / ``today``) in a sim-domain module.  Virtual time is
    ``kernel.now``; wall time differs between runs by construction.
``entropy``
    Drawing from the process-global ``random`` module instance
    (``random.random()``, ``random.choice()``, …), constructing an
    *unseeded* ``random.Random()`` (it seeds itself from OS entropy), or
    reseeding the global instance with ``random.seed``.  Only injected,
    explicitly seeded ``Random`` instances are legal in sim domain.
``osentropy``
    ``os.urandom``, ``uuid.uuid1`` / ``uuid.uuid4``, or anything from
    ``secrets`` — OS entropy that no seed controls.
``idorder``
    Using ``id(...)`` as an ordering key (inside ``sorted`` / ``.sort`` /
    ``min`` / ``max`` or an ordering comparison).  CPython addresses vary
    per run; ``id()`` is only legal for identity/membership bookkeeping.
``iterorder``
    The subtle one: iterating a ``dict`` / ``set`` (``.items()`` /
    ``.values()`` / ``.keys()``, a set literal/constructor, or a name the
    module assigns a set to) in a loop whose body **schedules events,
    sends messages, completes futures, or draws from an RNG** — without
    wrapping the iterable in ``sorted(...)``.  Dict order is insertion
    order (deterministic only if every insertion is); set order hinges on
    string hashing, which ``PYTHONHASHSEED`` scrambles between processes.
    Also a *keyed* ``sorted`` / ``min`` / ``max`` / ``.sort`` whose input
    was built by iterating a set (directly, in a comprehension, or via a
    local list): the sort is stable, so keys that tie keep hash order.
``pragma``
    A malformed suppression: ``# detlint: ok(rule)`` without a reason, or
    naming an unknown rule.

Suppression: append ``# detlint: ok(<rule>) - <reason>`` to the offending
line (or the line directly above it).  The reason is mandatory — a
suppression is a reviewed claim, and the claim must be stated.

Allowlist: the real-time seam — modules that *legitimately* touch the
host clock or OS (wall-clock benchmarking, durable file I/O) — is exempt
per rule in :data:`ALLOWLIST`, each entry with its reason.
"""

from __future__ import annotations

import ast

from repro.analysis.lintcore import Allowlist, LintTool, Violation

#: rule name -> one-line description (the linter's public contract).
RULES: dict[str, str] = {
    "wallclock": "host clock read in sim domain (use kernel.now)",
    "entropy": "process-global or unseeded random use (inject a seeded "
               "random.Random instead)",
    "osentropy": "OS entropy (os.urandom / uuid1 / uuid4 / secrets) in "
                 "sim domain",
    "idorder": "id() used as an ordering key (addresses vary per run)",
    "iterorder": "unordered dict/set iteration feeding event scheduling, "
                 "message sends, future completion, RNG draws, or the tie "
                 "order of a keyed sort (wrap in sorted(...))",
    "pragma": "malformed detlint suppression pragma",
}

#: (path suffix, exempt rules or None for all, reason).  The real-time
#: seam: code that measures or persists in *host* time on purpose.
ALLOWLIST: Allowlist = [
    ("repro/cli.py", frozenset({"wallclock"}),
     "profile/restart-bench subcommands report real wall time"),
    ("repro/restartbench.py", frozenset({"wallclock"}),
     "restart benchmark times real journal replay and cold start"),
    ("repro/storage/backend.py", None,
     "durability seam: real file I/O outside the simulation clock"),
    ("repro/obs/loadtest.py", frozenset({"wallclock"}),
     "saturation harness reports real wall seconds per ramp step; "
     "simulated time comes from kernel.now"),
]

_WALLCLOCK_TIME_FNS = frozenset({
    "time", "monotonic", "perf_counter", "process_time",
    "time_ns", "monotonic_ns", "perf_counter_ns", "process_time_ns",
})
_WALLCLOCK_DATETIME_FNS = frozenset({"now", "utcnow", "today"})

#: module-global ``random.<fn>`` draws (shared-state or entropy-seeded).
_GLOBAL_RANDOM_FNS = frozenset({
    "random", "randrange", "randint", "uniform", "choice", "choices",
    "shuffle", "sample", "gauss", "normalvariate", "expovariate",
    "betavariate", "triangular", "vonmisesvariate", "paretovariate",
    "weibullvariate", "lognormvariate", "getrandbits", "randbytes", "seed",
})

#: method names whose call inside a loop makes iteration order observable:
#: event scheduling, message transmission, future completion, RNG draws.
_EFFECT_METHODS = frozenset({
    # kernel scheduling
    "schedule", "post", "call_at", "spawn", "sleep", "wait_for",
    "_schedule_now", "run_until_complete",
    # network / group sends
    "send", "multicast", "transmit", "rpc", "call", "cbcast",
    # future completion (wakes awaiting tasks in completion order)
    "set_result", "set_exception", "try_set_result", "try_set_exception",
    # RNG draws (consume the shared seeded stream)
    "random", "randrange", "randint", "uniform", "choice", "choices",
    "shuffle", "sample", "gauss", "expovariate", "getrandbits",
})

#: wrappers that preserve their argument's iteration order.
_ORDER_PRESERVING_WRAPPERS = frozenset({
    "list", "tuple", "enumerate", "reversed", "iter",
})


class _SetSymbols(ast.NodeVisitor):
    """Module pre-pass: names/attributes the module binds to sets.

    A heuristic on purpose — it records ``x = set(...)``, ``x = {a, b}``,
    set comprehensions, ``x: set[...]`` / ``self.x: set[...]``
    annotations, and whatever ``.add(...)`` / ``.discard(...)`` is called
    on (only sets have those: it is how a field declared in another
    module shows its type here) anywhere in the module.  Scope-blind: a
    name bound to a set in one function taints the name module-wide,
    which errs toward reporting (the cheap out is ``sorted(...)`` or a
    pragma).
    """

    def __init__(self) -> None:
        self.names: set[str] = set()
        self.attrs: set[str] = set()

    @staticmethod
    def _is_set_expr(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("set", "frozenset"))

    @staticmethod
    def _is_set_annotation(node: ast.AST) -> bool:
        target = node
        if isinstance(target, ast.Subscript):
            target = target.value
        if isinstance(target, ast.Name):
            return target.id in ("set", "frozenset", "Set", "FrozenSet",
                                 "MutableSet", "AbstractSet")
        if isinstance(target, ast.Attribute):
            return target.attr in ("Set", "FrozenSet", "MutableSet",
                                   "AbstractSet")
        return False

    def _record(self, target: ast.AST) -> None:
        if isinstance(target, ast.Name):
            self.names.add(target.id)
        elif isinstance(target, ast.Attribute):
            self.attrs.add(target.attr)

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._is_set_expr(node.value):
            for target in node.targets:
                self._record(target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if self._is_set_annotation(node.annotation) or (
                node.value is not None and self._is_set_expr(node.value)):
            self._record(node.target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        # x |= {...} marks x set-like even without seeing its creation
        if self._is_set_expr(node.value):
            self._record(node.target)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in ("add", "discard"):
            self._record(func.value)
        self.generic_visit(node)


class _Linter(ast.NodeVisitor):
    """The per-module rule pass."""

    def __init__(self, path: str, tree: ast.Module):
        self.path = path
        self.violations: list[Violation] = []
        #: local alias -> canonical module name, for ``import x as y``
        self.module_aliases: dict[str, str] = {}
        #: names ``from <mod> import <name>`` pulled in, per hazard class
        self.from_time: set[str] = set()
        self.from_datetime: set[str] = set()
        self.from_random: set[str] = set()
        self.from_os: set[str] = set()
        self.from_uuid: set[str] = set()
        symbols = _SetSymbols()
        symbols.visit(tree)
        self.set_names = symbols.names
        self.set_attrs = symbols.attrs
        #: local name -> why, for lists built by iterating a set (scoped
        #: to the function being visited)
        self.hash_ordered: dict[str, str] = {}

    # ------------------------------------------------------------------ #
    # bookkeeping
    # ------------------------------------------------------------------ #

    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        self.violations.append(
            Violation(self.path, getattr(node, "lineno", 0), rule, message))

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.module_aliases[alias.asname or alias.name.split(".")[0]] = \
                alias.name
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        pools = {"time": self.from_time, "datetime": self.from_datetime,
                 "random": self.from_random, "os": self.from_os,
                 "uuid": self.from_uuid}
        pool = pools.get(node.module or "")
        if pool is not None:
            for alias in node.names:
                pool.add(alias.asname or alias.name)
        self.generic_visit(node)

    def _module_of(self, name: str) -> str | None:
        return self.module_aliases.get(name)

    # ------------------------------------------------------------------ #
    # call-site rules: wallclock / entropy / osentropy / idorder
    # ------------------------------------------------------------------ #

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            self._check_attribute_call(node, func)
        elif isinstance(func, ast.Name):
            self._check_name_call(node, func)
        self._check_ordering_args(node)
        self._check_keyed_ordering(node)
        self.generic_visit(node)

    def _check_attribute_call(self, node: ast.Call,
                              func: ast.Attribute) -> None:
        attr = func.attr
        base = func.value
        if isinstance(base, ast.Name):
            module = self._module_of(base.id)
            if module == "time" and attr in _WALLCLOCK_TIME_FNS:
                self._flag(node, "wallclock",
                           f"time.{attr}() reads the host clock; "
                           "sim code must use kernel.now")
                return
            if module == "random":
                if attr in _GLOBAL_RANDOM_FNS:
                    self._flag(node, "entropy",
                               f"random.{attr}() draws from the process-"
                               "global RNG; use the injected seeded rng")
                    return
                if attr == "Random" and not node.args and not node.keywords:
                    self._flag(node, "entropy",
                               "random.Random() without a seed draws its "
                               "seed from OS entropy")
                    return
            if module == "os" and attr == "urandom":
                self._flag(node, "osentropy", "os.urandom() is OS entropy")
                return
            if module == "uuid" and attr in ("uuid1", "uuid4"):
                self._flag(node, "osentropy",
                           f"uuid.{attr}() is OS-entropy/host-derived")
                return
            if module == "secrets":
                self._flag(node, "osentropy",
                           f"secrets.{attr}() is OS entropy")
                return
            if module == "datetime" and attr in _WALLCLOCK_DATETIME_FNS:
                self._flag(node, "wallclock",
                           f"datetime.{attr}() reads the host clock")
                return
        # datetime.datetime.now() / dt.datetime.now()
        if (attr in _WALLCLOCK_DATETIME_FNS
                and isinstance(base, ast.Attribute)
                and base.attr in ("datetime", "date")
                and isinstance(base.value, ast.Name)
                and self._module_of(base.value.id) == "datetime"):
            self._flag(node, "wallclock",
                       f"datetime.{base.attr}.{attr}() reads the host clock")
        # <name imported from datetime>.now()
        if (attr in _WALLCLOCK_DATETIME_FNS and isinstance(base, ast.Name)
                and base.id in self.from_datetime):
            self._flag(node, "wallclock",
                       f"{base.id}.{attr}() reads the host clock")

    def _check_name_call(self, node: ast.Call, func: ast.Name) -> None:
        name = func.id
        if name in self.from_time and name in _WALLCLOCK_TIME_FNS:
            self._flag(node, "wallclock",
                       f"{name}() (from time) reads the host clock")
        elif name in self.from_random:
            if name == "Random":
                if not node.args and not node.keywords:
                    self._flag(node, "entropy",
                               "Random() without a seed draws its seed "
                               "from OS entropy")
            elif name in _GLOBAL_RANDOM_FNS:
                self._flag(node, "entropy",
                           f"{name}() (from random) draws from the "
                           "process-global RNG")
        elif name in self.from_os and name == "urandom":
            self._flag(node, "osentropy", "urandom() is OS entropy")
        elif name in self.from_uuid and name in ("uuid1", "uuid4"):
            self._flag(node, "osentropy", f"{name}() is OS entropy")

    @staticmethod
    def _contains_id_call(node: ast.AST) -> ast.Call | None:
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                    and sub.func.id == "id" and len(sub.args) == 1):
                return sub
        return None

    def _check_ordering_args(self, node: ast.Call) -> None:
        """``idorder``: id() feeding sorted/min/max/.sort/heap ordering."""
        func = node.func
        is_ordering = (
            (isinstance(func, ast.Name)
             and func.id in ("sorted", "min", "max"))
            or (isinstance(func, ast.Attribute)
                and func.attr in ("sort", "heappush", "heappushpop")))
        if not is_ordering:
            return
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            id_call = self._contains_id_call(arg)
            if id_call is not None:
                self._flag(id_call, "idorder",
                           "id() as an ordering key: CPython addresses "
                           "vary per run")
                return

    def visit_Compare(self, node: ast.Compare) -> None:
        if any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
               for op in node.ops):
            for side in [node.left] + node.comparators:
                if (isinstance(side, ast.Call)
                        and isinstance(side.func, ast.Name)
                        and side.func.id == "id"):
                    self._flag(side, "idorder",
                               "ordering comparison on id(): CPython "
                               "addresses vary per run")
                    break
        self.generic_visit(node)

    # ------------------------------------------------------------------ #
    # iterorder
    # ------------------------------------------------------------------ #

    def _unordered_iter(self, expr: ast.AST,
                        views: bool = True) -> str | None:
        """Describe why ``expr`` iterates in container order, or None
        (``views=False``: hash order only, dict views pass)."""
        # unwrap order-preserving wrappers: list(d.items()), enumerate(s)…
        while (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name)
               and expr.func.id in _ORDER_PRESERVING_WRAPPERS and expr.args):
            expr = expr.args[0]
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name) and func.id in ("sorted",):
                return None  # explicitly ordered
            if views and isinstance(func, ast.Attribute) and func.attr in (
                    "items", "values", "keys"):
                return f".{func.attr}() iterates in dict insertion order"
            if (isinstance(func, ast.Name)
                    and func.id in ("set", "frozenset")):
                return "set() iterates in hash order"
            return None
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return "set literal iterates in hash order"
        if isinstance(expr, ast.Name) and expr.id in self.set_names:
            return f"'{expr.id}' is set-typed; sets iterate in hash order"
        if (isinstance(expr, ast.Attribute)
                and expr.attr in self.set_attrs):
            return (f"'.{expr.attr}' is set-typed; sets iterate in "
                    "hash order")
        return None

    def _hash_ordered_seq(self, expr: ast.AST) -> str | None:
        """Why ``expr`` yields its elements in set-hash order, seeing
        through a comprehension and a local name bound to either."""
        if isinstance(expr, (ast.ListComp, ast.GeneratorExp)):
            expr = expr.generators[0].iter
        elif isinstance(expr, ast.Name) and expr.id in self.hash_ordered:
            return self.hash_ordered[expr.id]
        return self._unordered_iter(expr, views=False)

    def _visit_function(self, node: ast.AST) -> None:
        """Scope :attr:`hash_ordered` to one ``def`` (closures inherit)."""
        outer = self.hash_ordered
        self.hash_ordered = dict(outer)
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Assign) and len(sub.targets) == 1
                    and isinstance(sub.targets[0], ast.Name)):
                why = self._hash_ordered_seq(sub.value)
                if why is not None:
                    self.hash_ordered[sub.targets[0].id] = why
        self.generic_visit(node)
        self.hash_ordered = outer

    visit_FunctionDef = visit_AsyncFunctionDef = _visit_function

    def _check_keyed_ordering(self, node: ast.Call) -> None:
        """A keyed sort/min/max is stable: elements whose keys tie stay in
        the order the input produced them.  Dict views are let through —
        insertion order is the seed's, hash order is the interpreter's."""
        if not any(kw.arg == "key" for kw in node.keywords):
            return
        func = node.func
        if (isinstance(func, ast.Name) and func.id in ("sorted", "min", "max")
                and node.args):
            subject = node.args[0]
        elif isinstance(func, ast.Attribute) and func.attr == "sort":
            subject = func.value
        else:
            return
        why = self._hash_ordered_seq(subject)
        if why is not None:
            self._flag(node, "iterorder",
                       f"keyed ordering leaves ties in input order, but "
                       f"{why}; build the input from sorted(...)")

    @staticmethod
    def _effect_call(body: list[ast.stmt]) -> str | None:
        """First scheduling/sending/RNG call inside ``body``, if any."""
        for stmt in body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Call):
                    func = sub.func
                    if (isinstance(func, ast.Attribute)
                            and func.attr in _EFFECT_METHODS):
                        return func.attr
        return None

    def _check_loop(self, node: ast.For | ast.AsyncFor) -> None:
        why = self._unordered_iter(node.iter)
        if why is None:
            return
        effect = self._effect_call(node.body)
        if effect is None:
            return
        self._flag(node, "iterorder",
                   f"loop body calls .{effect}() but {why}; wrap the "
                   "iterable in sorted(...) or suppress with a reason")

    def visit_For(self, node: ast.For) -> None:
        self._check_loop(node)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_loop(node)
        self.generic_visit(node)

    def _check_comprehension(self, node: ast.AST,
                             generators: list[ast.comprehension],
                             elements: list[ast.AST]) -> None:
        for gen in generators:
            why = self._unordered_iter(gen.iter)
            if why is None:
                continue
            for element in elements:
                for sub in ast.walk(element):
                    if (isinstance(sub, ast.Call)
                            and isinstance(sub.func, ast.Attribute)
                            and sub.func.attr in _EFFECT_METHODS):
                        self._flag(
                            node, "iterorder",
                            f"comprehension calls .{sub.func.attr}() but "
                            f"{why}; wrap the iterable in sorted(...)")
                        return

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_comprehension(node, node.generators, [node.elt])
        self.generic_visit(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._check_comprehension(node, node.generators, [node.elt])
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._check_comprehension(node, node.generators, [node.elt])
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._check_comprehension(node, node.generators,
                                  [node.key, node.value])
        self.generic_visit(node)


_TOOL = LintTool("detlint", "Determinism", RULES, ALLOWLIST, _Linter)
lint_source = _TOOL.lint_source
lint_paths = _TOOL.lint_paths
format_violations = _TOOL.format_violations
main = _TOOL.main


if __name__ == "__main__":
    raise SystemExit(main())
