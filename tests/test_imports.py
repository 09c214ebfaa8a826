"""Every module of the package uses what it imports, and the package's
public names resolve.  No linter is assumed; these checks read the source
with `ast`."""

import ast
import re
import typing
from pathlib import Path
from typing import NamedTuple

import pytest

import sdag
import sdag.simnet

PACKAGE = Path(sdag.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]
CALLER_FILES = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))
# the benchmark scripts, without their tests
BENCH_SCRIPTS = sorted((ROOT / "bench").glob("*.py"))
# every file that a check reads, parsed once, as UTF-8 whatever the locale
TREES = {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in {*MODULES, *CALLER_FILES}}
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Local name bound by each import -> its line number."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere, plus the entries of `__all__` (a re-export
    counts as a use).  Names inside quoted annotations are not seen."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(elt.value for elt in node.value.elts)
    return used


def test_modules_found():
    assert {"core.py", "dag.py", "node.py", "__init__.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    names = imported_names(TREES[path])
    unused = sorted(f"{name} (line {names[name]})" for name in set(names) - used_names(TREES[path]))
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_public_names_resolve():
    assert len(set(sdag.__all__)) == len(sdag.__all__)
    missing = [name for name in sdag.__all__ if not hasattr(sdag, name)]
    assert not missing


def test_private_definitions_are_read():
    """Every private function, method or class defined in the package is
    read somewhere in it, as a name or an attribute, so deleting its last
    caller deletes it too.  Names are matched across modules, not bound to
    their scope."""
    defined = {}
    read = set()
    for path in MODULES:
        for node in ast.walk(TREES[path]):
            if isinstance(node, DEFINITIONS):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    orphans = sorted(f"{name} ({where})" for name, where in defined.items() if name not in read)
    assert not orphans, f"private definitions never read: {', '.join(orphans)}"


def is_blocks(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "blocks"


# builtins that iterate over their first argument
ITERATING = {
    "all", "any", "dict", "enumerate", "frozenset", "iter", "len", "list",
    "max", "min", "set", "sorted", "sum", "tuple", "zip",
}


def whole_store_reads(tree: ast.Module) -> list[str]:
    """Membership tests in, and iterations over, an `.blocks` attribute.
    On an SDag that shares a block store, `blocks` holds every block of the
    store, so it answers neither what the SDag holds nor in which order."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for op, right in zip(node.ops, node.comparators):
                if isinstance(op, (ast.In, ast.NotIn)) and is_blocks(right):
                    found.append(ast.unparse(node))
        elif isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)) and is_blocks(node.iter):
            found.append(f"for ... in {ast.unparse(node.iter)}")
        elif isinstance(node, ast.Attribute) and node.attr in ("items", "keys", "values") and is_blocks(node.value):
            found.append(ast.unparse(node))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ITERATING
            and any(is_blocks(arg) for arg in node.args)
        ):
            found.append(ast.unparse(node))
    return found


def test_whole_store_reads_flagged():
    tree = ast.parse(
        "a in s.blocks\nb not in s.blocks\nfor x in s.blocks: pass\n[x for x in s.blocks]\n"
        "s.blocks.items()\nlen(s.blocks)\ns.blocks[x]\nx in s\nfor y in view.blocks[1:]: pass\n"
    )
    assert len(whole_store_reads(tree)) == 6


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_whole_store_reads(path):
    """No module tests membership in `.blocks` or iterates over it: it goes
    through `bid in sdag`, `SDag.block_ids` and `SDag.peer_block_ids`."""
    found = whole_store_reads(TREES[path])
    assert not found, f"{path.name} reads the whole block store: {'; '.join(found)}"


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_members(path: Path, cls: str) -> set[str]:
    """The private methods a class defines and the private attributes it
    assigns on `self`."""
    for node in ast.walk(TREES[path]):
        if isinstance(node, ast.ClassDef) and node.name == cls:
            names = set()
            for sub in ast.walk(node):
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and is_private(sub.name):
                    names.add(sub.name)
                elif (
                    isinstance(sub, ast.Attribute)
                    and isinstance(sub.ctx, ast.Store)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"
                    and is_private(sub.attr)
                ):
                    names.add(sub.attr)
            return names
    raise LookupError(f"no class {cls} in {path.name}")


def foreign_private_reads(tree: ast.Module, names: set[str]) -> list[str]:
    """Reads of `names` on anything but the reading method's own `self`."""
    return [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr in names
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
    ]


def sdag_and_node_privates() -> set[str]:
    return private_members(PACKAGE / "dag.py", "SDag") | private_members(PACKAGE / "node.py", "NodeState")


def test_foreign_private_reads_flagged():
    names = sdag_and_node_privates()
    assert {"_unreferenced", "_switch_to", "_drain_orphans", "_walk_level"} <= names
    tree = ast.parse(
        "node.sdag._unreferenced\nsim.nodes[0].sdag._switch_to(ms)\nnode._drain_orphans(b)\n"
        "self._push(t)\nnode.sdag.main_chain\n"
    )
    assert len(foreign_private_reads(tree, names)) == 3


def test_simnet_reads_no_private_state_of_sdag_or_node():
    """The simulator drives nodes through their public methods only
    (`catch_up`, `create_block`, ...), so the bulk path and the
    per-delivery path share one copy of the held, unreferenced and
    chain-switch logic."""
    found = foreign_private_reads(TREES[PACKAGE / "simnet.py"], sdag_and_node_privates())
    assert not found, f"simnet.py reads private state: {'; '.join(found)}"



# state that only one adversary strategy reads, so it belongs in that
# strategy's run state
STRATEGY_ONLY = {"private_pending", "adversary_releases", "first_stores", "public_height", "_public_height", "_maybe_release"}


def strategy_branches(tree: ast.Module, strategies: set[str], attributes: set[str]) -> list[str]:
    """In the class `Simulation`: `isinstance` tests against a class named in
    `strategies`, and reads or writes of `self.<name>` for a name in
    `attributes`."""
    found = []
    for cls in ast.walk(tree):
        if not (isinstance(cls, ast.ClassDef) and cls.name == "Simulation"):
            continue
        for node in ast.walk(cls):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
                tested = node.args[1] if len(node.args) == 2 else ast.Tuple(elts=[])
                classes = tested.elts if isinstance(tested, ast.Tuple) else [tested]
                if {ast.unparse(c).rsplit(".", 1)[-1] for c in classes} & strategies:
                    found.append(ast.unparse(node))
            elif (
                isinstance(node, ast.Attribute)
                and node.attr in attributes
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                found.append(ast.unparse(node))
    return found


def test_strategy_branches_flagged():
    tree = ast.parse(
        "class Simulation:\n"
        "    def _handle_adv_mine(self, t):\n"
        "        if isinstance(self.cfg.adversary_strategy, PrivateMilestoneFork):\n"
        "            self.private_pending.append(b)\n"
        "        isinstance(s, (int, simnet.PeerChainFork))\n"
        "        isinstance(x, int)\n"
        "        self.adversary.pending\n"
        "class SimConfig:\n"
        "    def validate(self):\n"
        "        isinstance(self.adversary_strategy, PeerChainFork)\n"
    )
    found = strategy_branches(tree, {"PrivateMilestoneFork", "PeerChainFork"}, {"private_pending", "pending"})
    assert len(found) == 3


def test_simulation_keeps_no_strategy_state():
    """Each adversary strategy keeps its run state in its own object (the
    classes with an `on_mine` method), which `Simulation` calls through
    generic hooks: no method of `Simulation` tests a strategy's type or
    holds an attribute that only one strategy uses.  `SimConfig.validate`
    may still test the type, to check a strategy's arguments."""
    tree = TREES[PACKAGE / "simnet.py"]
    hint = typing.get_type_hints(sdag.simnet.SimConfig)["adversary_strategy"]
    strategies = {cls.__name__ for cls in typing.get_args(hint)} - {"NoneType"}
    attributes = set(STRATEGY_ONLY)
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and any(
            isinstance(f, ast.FunctionDef) and f.name == "on_mine" for f in cls.body
        ):
            strategies.add(cls.name)
            attributes |= {
                node.attr
                for node in ast.walk(cls)
                if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            }
    assert {"PrivateMilestoneFork", "PeerChainFork"} <= strategies
    found = strategy_branches(tree, strategies, attributes)
    assert not found, f"Simulation branches on or holds strategy state: {'; '.join(found)}"


class Read(NamedTuple):
    """A read of a name: `how` is "attribute" (`origin` its receiver if a bare
    name), "name" (`y` of `from M import x as y`, matched as x and y, `origin`
    M) or "import" (`origin` M); `keywords` are those its call passes."""

    scope: str
    how: str
    origin: str
    keywords: frozenset
    text: str


def scoped_reads(tree: ast.Module, module: str, names: set[str]) -> list[Read]:
    """Each read of one of `names`, called or not (an alias calls it later),
    with the dotted name of the definitions around it, from `module` on."""
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    aliases = {alias.asname or alias.name: (alias.name, node.module) for node in imports for alias in node.names}
    found = []

    def visit(node, scope, call):
        if isinstance(node, DEFINITIONS):
            scope = f"{scope}.{node.name}"
        keywords = frozenset(kw.arg for kw in call.keywords) if call else frozenset()
        if isinstance(node, ast.Attribute) and node.attr in names:
            receiver = node.value.id if isinstance(node.value, ast.Name) else ""
            found.append(Read(scope, "attribute", receiver, keywords, ast.unparse(node)))
        elif isinstance(node, ast.Name):
            name, origin = aliases.get(node.id, (node.id, ""))
            if name in names or node.id in names:
                found.append(Read(scope, "name", origin, keywords, node.id))
        elif isinstance(node, ast.ImportFrom):
            imported = [alias.name for alias in node.names if alias.name in names]
            found.extend(Read(scope, "import", node.module, keywords, f"from {node.module} import {x}") for x in imported)
        for child in ast.iter_child_nodes(node):
            visit(child, scope, node if isinstance(node, ast.Call) and child is node.func else None)

    visit(tree, module, None)
    return found


class Rule(NamedTuple):
    """Reads of `names` of a kind in `kinds`, (how, origin) with None for any
    origin, in a scope that `covers` matches from its start, may be made
    only in the `allowed` scopes, each given with why.  A call that passes
    the keyword `unless` is no read."""

    names: set[str]
    kinds: set[tuple[str, str | None]]
    allowed: dict[str, str]
    message: str
    covers: str = ""
    unless: str = ""

    def reads(self, module: str, tree: ast.Module) -> list[Read]:
        return [
            r
            for r in scoped_reads(tree, module, self.names)
            if {(r.how, None), (r.how, r.origin)} & self.kinds
            and re.match(self.covers, r.scope)
            and self.unless not in r.keywords
        ]


HELPER = "collector_paused"
ATTRIBUTE = {("attribute", None)}

RULES = {
    # an honest node's `create_block` and a strategy's `on_mine`, in a class `Simulation`
    "mining_calls": Rule(
        {"create_block", "on_mine"}, ATTRIBUTE,
        {"simnet.Simulation._handle_mine": "catches every miner up first and queues its next mining time after"},
        "Simulation mines outside _handle_mine", covers=r".*\bSimulation\b",
    ),
    "mine_uses": Rule(
        {"mine"}, ATTRIBUTE | {("name", "core"), ("name", "sdag.core"), ("name", "sdag")},
        {
            "node.NodeState.mine_block": "every block a node makes, honest or forged",
            "demo.build_demo": "grinds each block of the fixed example to its class from nonce 0 on a bare SDag",
        },
        "core.mine read outside NodeState.mine_block, which draws the nonce, counts the attempts and stores the block",
    ),
    # a node's per-delivery receive path: the library API that the simulator's store-time oracle replays
    "per_delivery_uses": Rule(
        {"on_receive_block", "on_tx"}, ATTRIBUTE, {},
        "simnet.py takes a delivery in outside NodeState.catch_up, every receiver's one way in", covers=r"simnet\b",
    ),
    # the scheme's primitives, which `sigs.MockScheme.witness` and `.opens` wrap
    # with the witness layout and the owner's address
    "signature_primitive_uses": Rule(
        {"sign", "verify"}, ATTRIBUTE, {},
        "signs or verifies outside sigs.py, the one home of the witness layout and the ownership check",
        covers=r"(?!sigs\b)",
    ),
    "heap_pushes": Rule(
        {"heappush", "heappushpop", "heapreplace"}, ATTRIBUTE | {("name", None), ("import", "heapq")},
        {
            "simnet.Simulation._push": "the event queue, which drops every event past the horizon",
            "simnet._PrivateForkRun.milestone_stored": "milestone first-store times, not events",
        },
        "heap pushes outside Simulation._push, so the horizon would not bound every event",
    ),
    # switching the cyclic collector off or on, retuning it or moving objects between its generations
    "collector_switches": Rule(
        {"disable", "enable", "freeze", "unfreeze", "set_threshold"}, {("attribute", "gc"), ("name", "gc")},
        {f"dag.{HELPER}": "every pause restores the state it found"},
        f"switches the cyclic collector outside dag.{HELPER}",
    ),
    "environment_reads": Rule(
        {"environ", "getenv"}, {("attribute", "os"), ("import", "os")}, {},
        "reads the environment, a second way to set an input, which no manifest records",
    ),
    "locale_text_io": Rule(
        {"open", "TextIOWrapper", "read_text", "write_text"}, ATTRIBUTE | {("name", None)}, {},
        "reads or writes text in the locale's encoding, which differs by host: pass encoding=", unless="encoding",
    ),
}

GC_TREE = (
    f"import gc\nfrom gc import freeze as f\ndef {HELPER}():\n    gc.disable()\n    gc.freeze()\n    gc.unfreeze()\n"
    "    gc.enable()\ndef run():\n    gc.disable()\n    f()\n    gc.unfreeze()\n    gc.set_threshold(0)\n"
    "    gc.collect()\n    gc.isenabled()\n    gc.get_freeze_count()\n"
)

# (rule, module the source is read as, source, what the rule flags outside
# its allowed scopes: each hit as (scope, text), or their number)
SCOPED_READ_CASES = [
    ("mining_calls", "m", "class Simulation:\n"
     "    def _handle_mine(self, i, t):\n        self.receivers[i].create_block()\n"
     "    def _handle_adv_mine(self, t):\n        self.adversary.on_mine(t)\n"
     "    def run(self):\n        mine = self.nodes[0].create_block\n        self.create_blocks()\n"
     "class _PrivateForkRun:\n    def on_mine(self, t):\n        self.sim.adv_node.create_block()\n",
     [("m.Simulation._handle_mine", "self.receivers[i].create_block"),
      ("m.Simulation._handle_adv_mine", "self.adversary.on_mine"), ("m.Simulation.run", "self.nodes[0].create_block")]),
    ("mine_uses", "m", "from .core import Block, mine as grind\n"
     "class NodeState:\n    def mine_block(self, t):\n        return grind(t, self.params, 16)\n"
     "class _PeerForkRun:\n    def on_mine(self, t):\n        core.mine(t, p, 16)\n"
     "def f(counts):\n    mine = counts.get(0)\n    return mine, grind\n",
     [("m.NodeState.mine_block", "grind"), ("m._PeerForkRun.on_mine", "core.mine"), ("m.f", "grind")]),
    # a local named `mine` is no use where `core.mine` is not imported under it
    ("mine_uses", "m", "def f(counts):\n    mine = counts.get(0)\n    return mine\n", []),
    ("per_delivery_uses", "simnet", "node.on_tx(e)\nself.adv_node.on_receive_block(b)\nf = node.on_tx\n"
     "node.catch_up(e)\n", 3),
    ("signature_primitive_uses", "m", "S.sign(k, m)\nDEFAULT_SCHEME.verify(p, m, s)\ncheck = S.verify\n"
     "S.witness(k, m)\nS.opens(w, a, m)\nsign(k, m)\n",
     [("m", "S.sign"), ("m", "DEFAULT_SCHEME.verify"), ("m", "S.verify")]),
    ("heap_pushes", "m", "import heapq\nfrom heapq import heappush as hp, heappop\n"
     "class Simulation:\n    def _push(self, e):\n        heapq.heappush(self.heap, e)\n"
     "    def run(self):\n        push = heapq.heappush\n        heapq.heapreplace(self.heap, 1)\n"
     "        heapq.heappop(self.heap)\ndef f(heap):\n    heappushpop(heap, 1)\n",
     [("m", "from heapq import heappush"), ("m.Simulation._push", "heapq.heappush"),
      ("m.Simulation.run", "heapq.heappush"), ("m.Simulation.run", "heapq.heapreplace"), ("m.f", "heappushpop")]),
    ("collector_switches", "dag", GC_TREE, 4),
    ("collector_switches", "cli", GC_TREE, 8),
    ("environment_reads", "m", "import os\nfrom os import getenv\nos.environ.get('A')\nos.getenv('B')\n"
     "os.environ['C']\nos.cpu_count()\nconfig.environ\n", 4),
    ("locale_text_io", "m", "import io\nfrom io import TextIOWrapper as Text\nopen(p)\nopen(p, encoding='utf-8')\n"
     "io.TextIOWrapper(b)\nText(b, encoding='utf-8')\nPath(p).read_text()\np.write_text(s, encoding='utf-8')\n"
     "reader = p.read_text\n",
     [("m", "open"), ("m", "io.TextIOWrapper"), ("m", "Path(p).read_text"), ("m", "p.read_text")]),
]


@pytest.mark.parametrize(
    "rule, module, source, expected", SCOPED_READ_CASES, ids=[f"{c[0]}-{c[1]}" for c in SCOPED_READ_CASES]
)
def test_scoped_reads_flagged(rule, module, source, expected):
    rule = RULES[rule]
    found = [(r.scope, r.text) for r in rule.reads(module, ast.parse(source)) if r.scope not in rule.allowed]
    assert (len(found) if isinstance(expected, int) else found) == expected


def stray_reads(rule: Rule, paths: list[Path]) -> tuple[list[Read], list[str]]:
    """Every read of the rule's names in the modules at `paths`, and those of
    them outside the scopes it allows, as "scope: text"."""
    found = [r for path in paths for r in rule.reads(path.stem, TREES[path])]
    return found, sorted(f"{r.scope}: {r.text}" for r in found if r.scope not in rule.allowed)


@pytest.mark.parametrize("rule", RULES.values(), ids=list(RULES))
def test_only_allowed_scopes_read(rule):
    """No module of the package reads a rule's names outside the scopes it
    allows, and each scope it allows still reads one."""
    found, stray = stray_reads(rule, MODULES)
    assert not stray, f"{rule.message}: {'; '.join(stray)}"
    stale = sorted(set(rule.allowed) - {r.scope for r in found})
    assert not stale, f"allowed scopes that no longer read {', '.join(sorted(rule.names))}: {', '.join(stale)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_reads_the_environment(path):
    """Every input of a run comes from its arguments or its config, which a
    manifest records; no module reads `os.environ` or `os.getenv`."""
    _found, stray = stray_reads(RULES["environment_reads"], [path])
    assert not stray, f"{path.name} {RULES['environment_reads'].message}: {'; '.join(stray)}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "sigs.py"], ids=lambda p: p.name)
def test_only_sigs_signs_and_verifies(path):
    """A witness is built and opened in one place: every module but
    `sigs.py` goes through `witness` and `opens`, never `sign` or `verify`."""
    _found, stray = stray_reads(RULES["signature_primitive_uses"], [path])
    assert not stray, f"{path.name} {RULES['signature_primitive_uses'].message}: {'; '.join(stray)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_helper_switches_the_collector(path):
    """Only `dag.collector_paused` switches the cyclic collector, and every
    pause it makes restores the state it found."""
    _found, stray = stray_reads(RULES["collector_switches"], [path])
    assert not stray, f"{path.name} {RULES['collector_switches'].message}: {'; '.join(stray)}"


def test_only_load_and_fold_pause_the_collector():
    """The pause is safe only around code that makes no cyclic garbage, as
    loading and folding a DAG do (`tests/test_ledger.py` checks it); a
    simulation run does make some, so it runs with the collector on."""
    paused, other = [], []
    for path in MODULES:
        decorators = set()
        for node in ast.walk(TREES[path]):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for d in node.decorator_list:
                    if isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == HELPER:
                        decorators.add(id(d.func))
                        paused.append(node.name)
        other += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(TREES[path])
            if isinstance(node, ast.Name) and node.id == HELPER and id(node) not in decorators
        ]
    assert sorted(paused) == ["build_from_dag", "load"]
    assert not other, f"{HELPER} used other than as a decorator: {', '.join(other)}"


def defaulted_params(tree: ast.Module) -> dict[str, list[tuple[str, int | None]]]:
    """Callee name -> (name, position or None if keyword-only) of each of its
    parameters with a default.  A method's callee is its own name, without
    `self` or `cls`; an `__init__`'s is its class."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    owner = {
        id(f): cls.name
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for f in cls.body
        if isinstance(f, functions)
    }
    found: dict[str, list[tuple[str, int | None]]] = {}
    for f in ast.walk(tree):
        if not isinstance(f, functions):
            continue
        cls = owner.get(id(f))
        positional = f.args.posonlyargs + f.args.args
        if cls is not None and not any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in f.decorator_list):
            positional = positional[1:]
        first_default = len(positional) - len(f.args.defaults)
        params = [(a.arg, i) for i, a in enumerate(positional) if i >= first_default]
        params += [(a.arg, None) for a, d in zip(f.args.kwonlyargs, f.args.kw_defaults) if d is not None]
        if params:
            found.setdefault(cls if f.name == "__init__" else f.name, []).extend(params)
    return found


def passed_params(trees: list[ast.Module]) -> set[tuple[str, str | int]]:
    """(callee name, keyword or position) of every argument at every call,
    with "*" for a `*args` from its position on and "**" for a `**kwargs`."""
    passed = set()
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            if name is None:
                continue
            for i, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    passed.add((name, "*"))
                    passed.update((name, j) for j in range(i))
                    break
                passed.add((name, i))
            passed.update((name, kw.arg or "**") for kw in node.keywords)
    return passed


def unset_knobs(definitions: list[ast.Module], callers: list[ast.Module]) -> list[str]:
    """Parameters with a default that no call passes, by keyword or position."""
    passed = passed_params(callers)
    flagged = []
    for tree in definitions:
        for callee, params in defaulted_params(tree).items():
            for name, pos in params:
                starred = (callee, "*") in passed and pos is not None
                if not ({(callee, name), (callee, pos), (callee, "**")} & passed or starred):
                    flagged.append(f"{callee}({name})")
    return sorted(flagged)


def test_unset_knobs_flagged():
    definitions = ast.parse(
        "def f(a, b=1, *, c=2, d=3): pass\n"
        "def g(a=1, b=2): pass\n"
        "class C:\n"
        "    def __init__(self, x, y=0, z=0): pass\n"
        "    def m(self, u=0, v=0): pass\n"
        "    @staticmethod\n"
        "    def s(u=0, v=0): pass\n"
    )
    callers = ast.parse("f(0, 5, d=4)\ng(*xs)\nC(1, z=2)\nobj.m(1)\nC.s(1)\n")
    assert unset_knobs([definitions], [callers]) == ["C(y)", "f(c)", "m(v)", "s(v)"]


def trees(paths) -> list[ast.Module]:
    return [TREES[p] for p in paths]


def test_every_knob_has_a_caller():
    """Every parameter with a default, of a function or method in the
    package, is passed at some call in `src/`, `tests/` or `bench/`: one that
    never is can only ever hold its default.  Callees are matched by name,
    and a constructor by its class."""
    flagged = unset_knobs(trees(MODULES), trees(CALLER_FILES))
    assert not flagged, f"parameters no call passes: {', '.join(flagged)}"


# parameters that only tests pass, each with why it stays
TEST_ONLY_KNOBS = {
    "build_ledger(genesis_outputs)": "build_ledger is a test oracle that bench/tracer.py wraps by name (ROADMAP item 2)",
    "estimate_power(window)": "estimate_power is a test oracle that bench/tracer.py wraps by name (ROADMAP item 2)",
}


def test_every_knob_has_a_caller_outside_the_tests():
    """Every parameter with a default is passed at some call in `src/` or
    in a benchmark script, but for `TEST_ONLY_KNOBS`: a value that only
    tests set is a setting no command or simulation can reach, and the
    tests can set a module constant instead (`monkeypatch`)."""
    flagged = set(unset_knobs(trees(MODULES), trees(MODULES + BENCH_SCRIPTS)))
    only_tests = sorted(flagged - set(TEST_ONLY_KNOBS))
    assert not only_tests, f"parameters only tests pass: {', '.join(only_tests)}"
    stale = sorted(set(TEST_ONLY_KNOBS) - flagged)
    assert not stale, f"exempt parameters that are gone or have a caller: {', '.join(stale)}"


def foreign_modules(tree: ast.Module) -> set[str]:
    """Local names of the modules a script imports from outside the package."""
    return {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.split(".")[0] != "sdag"
    }


def bench_names(tree: ast.Module) -> set[str]:
    """What a benchmark script can reach in the package by name: the names
    and attributes it reads, but not an attribute of a module it imports
    from outside the package (`statistics.mean` names no `mean` of sdag),
    and its string constants (the tracer binds its targets by name)."""
    foreign = foreign_modules(tree)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and not (isinstance(node.value, ast.Name) and node.value.id in foreign):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def unreached_public_definitions(package: dict[str, ast.Module], bench: list[ast.Module]) -> dict[str, str]:
    """Name -> where, of each public function, class or method of the
    package that no module of it reads, as a name or an attribute, and no
    benchmark script names.  An import is not a read, so neither is a
    re-export in `__init__`.  Names are matched across modules, not bound
    to their scope."""
    defined = {}
    reached = set()
    for name, tree in package.items():
        for node in ast.walk(tree):
            if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
                defined.setdefault(node.name, f"{name}:{node.lineno}")
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reached.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reached.add(node.attr)
    for tree in bench:
        reached |= bench_names(tree)
    return {name: where for name, where in defined.items() if name not in reached}


def test_unreached_public_definitions_flagged():
    package = {
        "a.py": ast.parse(
            "def used(): pass\ndef unused(): pass\ndef _private(): pass\ndef traced(): pass\n"
            "class C:\n    def m(self): pass\n    def n(self): pass\n    def k(self): pass\n"
            "used()\nobj.m()\n"
        ),
        "__init__.py": ast.parse("from .a import unused\n__all__ = ['unused']\n"),
    }
    bench = [
        ast.parse(
            "import statistics\nfrom sdag.a import C\nstatistics.k([1])\nC.n\n"
            "TARGETS = (('a', None, 'traced'),)\n"
        )
    ]
    assert sorted(unreached_public_definitions(package, bench)) == ["k", "unused"]


# public definitions that only tests reach, each with why it stays
TEST_ONLY_DEFINITIONS = {
    "w1_of_theta": "the paper's capacity-latency trade-off, W1 as a function of theta (tests/test_analysis.py)",
    "z_success_prob": "the paper's closed form for a milestone creator having seen every prior one (tests/test_analysis.py)",
    "mean": "DelayCurve.mean, the paper's mean broadcast delay of each curve (tests/test_curves.py)",
    "collision_prob": "the paper's collision closed form, which criterion 1 reads",
    "confirm_set": "the DAG query that criterion 8b checks against a brute-force closure",
    "milestone_leaf_set": "the DAG query that criterion 8a and the DAG tests read",
    "block_class": "the DAG query that the demo, DAG and oracle tests read",
}


def test_public_definitions_are_reached():
    """Every public function, method or class defined in the package is
    read somewhere in it or named by a benchmark script, but for
    `TEST_ONLY_DEFINITIONS`: code that only tests reach belongs in the
    tests, or goes with its last caller."""
    package = {p.name: TREES[p] for p in MODULES}
    unreached = unreached_public_definitions(package, trees(BENCH_SCRIPTS))
    orphans = sorted(f"{name} ({where})" for name, where in unreached.items() if name not in TEST_ONLY_DEFINITIONS)
    assert not orphans, f"public definitions only tests reach: {', '.join(orphans)}"
    stale = sorted(set(TEST_ONLY_DEFINITIONS) - set(unreached))
    assert not stale, f"exempt definitions that are gone or reached: {', '.join(stale)}"


def attribute_reads(tree: ast.Module) -> set[str]:
    """The attributes a module reads, but not those of a module it imports
    from outside the package, and the constant names it passes to
    `getattr`.  A store, a `del` or an augmented assignment (`self.n += 1`)
    reads nothing."""
    foreign = foreign_modules(tree)
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if not (isinstance(node.value, ast.Name) and node.value.id in foreign):
                reads.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
        ):
            reads.add(node.args[1].value)
    return reads


def class_fields(module: str, tree: ast.Module) -> dict[str, str]:
    """`Class.field` -> where, of each field a class declares in its body,
    annotated or assigned (bar dunder names), and each attribute its
    methods assign on `self`."""
    found = {}
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for stmt in cls.body:
            if isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            elif isinstance(stmt, ast.Assign):
                targets = stmt.targets
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    found.setdefault(f"{cls.name}.{target.id}", f"{module}:{stmt.lineno}")
        for node in ast.walk(cls):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                found.setdefault(f"{cls.name}.{node.attr}", f"{module}:{node.lineno}")
    return found


def unread_fields(package: dict[str, ast.Module], bench: list[ast.Module]) -> dict[str, str]:
    """`Class.field` -> where, of each field of the package that no module
    of it reads and no benchmark script reads.  Fields are matched by name
    across classes and modules, as definitions are."""
    defined = {}
    reads = set()
    for module, tree in package.items():
        for field, where in class_fields(module, tree).items():
            defined.setdefault(field, where)
        reads |= attribute_reads(tree)
    for tree in bench:
        reads |= attribute_reads(tree)
    return {field: where for field, where in defined.items() if field.rsplit(".", 1)[1] not in reads}


def field_problems(unread: dict[str, str], exempt: dict[str, str]) -> list[str]:
    """Each unread field that `exempt` does not list, then each entry of
    `exempt` that is gone or read."""
    problems = [f"{field} ({where}) is never read" for field, where in sorted(unread.items()) if field not in exempt]
    problems += [f"exempt field {field} is gone or read" for field in sorted(set(exempt) - set(unread))]
    return problems


def test_unread_fields_flagged():
    package = {
        "a.py": ast.parse(
            "import statistics\n"
            "class R(NamedTuple):\n    kind: int\n    amount: int\n"
            "class E(Exception):\n    def __init__(self, x):\n        self.x = x\n        self.hits = 0\n"
            "    def bump(self):\n        self.hits += 1\n"
            "class S:\n    LIMIT = 3\n    __slots__ = ()\n    def __init__(self):\n        self.seen = set()\n        self.log = []\n"
            "r.amount\nstatistics.kind\ngetattr(s, 'seen')\nS.LIMIT\n"
        )
    }
    bench = [ast.parse("import statistics\nfrom sdag.a import S\nstatistics.x\nS().log\n")]
    unread = unread_fields(package, bench)
    assert unread == {"R.kind": "a.py:3", "E.x": "a.py:7", "E.hits": "a.py:8"}
    exempt = {"E.x": "why", "E.hits": "why"}
    assert field_problems(unread, {**exempt, "R.kind": "why"}) == []
    assert field_problems(unread, exempt) == ["R.kind (a.py:3) is never read"]
    assert field_problems(unread, {**exempt, "R.kind": "", "R.amount": ""}) == ["exempt field R.amount is gone or read"]


# fields that only tests read, each with why it stays
TEST_ONLY_FIELDS = {
    "PeerChainView.registered": "whether the canonical peer chain starts at a registration (the signature-continuity tests)",
    "PeerChainView.current_address": "the payout address in force (criterion 8e and the signature-continuity tests)",
    "SimMetrics.reward_by_miner": "each miner's total reward, which criterion 7e compares with its hash-power share",
    "SimMetrics.reward_amounts": "every reward amount, whose squares give criterion 7e's sigma",
    "DemoDag.ids": "the demo block ids by name, by which the demo and DAG tests find blocks",
    "DemoDag.peers": "the demo miners' identities, which the DAG and mempool tests read",
}


def test_every_field_is_read():
    """Every class field and `self` attribute in the package is read
    somewhere in it (as an attribute or a constant `getattr` name) or by a
    benchmark script, but for `TEST_ONLY_FIELDS`: a value nothing reads is
    kept for nothing, and one only tests read belongs in the tests."""
    package = {p.name: TREES[p] for p in MODULES}
    problems = field_problems(unread_fields(package, trees(BENCH_SCRIPTS)), TEST_ONLY_FIELDS)
    assert not problems, "; ".join(problems)


def parser_dests(tree: ast.Module, builder: str) -> set[str]:
    """The dest of each `add_argument` call inside the function `builder`:
    its `dest=` keyword, else its first long option (or its first name)
    without dashes, `-` read as `_`.  A `version` or `help` action stores
    nothing."""
    dests = set()
    for func in ast.walk(tree):
        if not (isinstance(func, ast.FunctionDef) and func.name == builder):
            continue
        for node in ast.walk(func):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "add_argument"):
                continue
            keywords = {kw.arg: kw.value for kw in node.keywords}
            action = keywords.get("action")
            if isinstance(action, ast.Constant) and action.value in ("version", "help"):
                continue
            if isinstance(keywords.get("dest"), ast.Constant):
                dests.add(keywords["dest"].value)
                continue
            names = [arg.value for arg in node.args if isinstance(arg, ast.Constant)]
            name = next((n for n in names if n.startswith("--")), names[0])
            dests.add(name.lstrip("-").replace("-", "_"))
    return dests


def args_reads(tree: ast.Module) -> set[str]:
    """Attributes read on a name `args`; `vars(args)` reads none."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and isinstance(node.value, ast.Name)
        and node.value.id == "args"
    }


def test_unread_dests_flagged():
    tree = ast.parse(
        "def build_parser():\n"
        "    p.add_argument('--version', action='version', version='1')\n"
        "    p.add_argument('--seed', type=int)\n"
        "    p.add_argument('-q', '--honest-fixed', action='store_true')\n"
        "    p.add_argument('--x', dest='why')\n"
        "    p.add_argument('path')\n"
        "def other():\n"
        "    p.add_argument('--elsewhere')\n"
        "def run(args):\n"
        "    args.seed\n"
        "    args.path = 1\n"
        "    digest(vars(args))\n"
    )
    assert parser_dests(tree, "build_parser") == {"seed", "honest_fixed", "why", "path"}
    assert parser_dests(tree, "build_parser") - args_reads(tree) == {"honest_fixed", "why", "path"}


def test_every_flag_is_read():
    """Every option the parser accepts is read as `args.<dest>` in `cli.py`:
    one that nothing reads is accepted and ignored.  Hashing `vars(args)`
    into a digest is not a read."""
    tree = TREES[PACKAGE / "cli.py"]
    dests = parser_dests(tree, "build_parser")
    assert {"config", "seed", "pnmu", "out"} <= dests
    unread = sorted(dests - args_reads(tree))
    assert not unread, f"options never read: {', '.join(unread)}"
