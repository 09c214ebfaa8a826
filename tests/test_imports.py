"""Every module of the package uses what it imports, and the package's
public names resolve.  No linter is assumed; these checks read the source
with `ast`."""

import ast
import typing
from pathlib import Path

import pytest

import sdag
import sdag.simnet

MODULES = sorted(Path(sdag.__file__).parent.glob("*.py"))


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
    tree = ast.parse(path.read_text(), filename=str(path))
    names = imported_names(tree)
    unused = sorted(f"{name} (line {names[name]})" for name in set(names) - used_names(tree))
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
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
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
    found = whole_store_reads(ast.parse(path.read_text(), filename=str(path)))
    assert not found, f"{path.name} reads the whole block store: {'; '.join(found)}"


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_members(path: Path, cls: str) -> set[str]:
    """The private methods a class defines and the private attributes it
    assigns on `self`."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
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
    package = Path(sdag.__file__).parent
    return private_members(package / "dag.py", "SDag") | private_members(package / "node.py", "NodeState")


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
    path = Path(sdag.__file__).parent / "simnet.py"
    found = foreign_private_reads(ast.parse(path.read_text(), filename=str(path)), sdag_and_node_privates())
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
    path = Path(sdag.__file__).parent / "simnet.py"
    tree = ast.parse(path.read_text(), filename=str(path))
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


# the methods that mine: an honest node's `create_block`, a strategy's `on_mine`
MINING_CALLS = {"create_block", "on_mine"}
MINING_HANDLER = "_handle_mine"


def mining_calls(tree: ast.Module) -> list[tuple[str, str]]:
    """In the class `Simulation`: each read of a `MINING_CALLS` attribute,
    called or not (an alias calls it later), with the name of the method
    that makes it ('' in the class body)."""
    found = []
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name == "Simulation":
            for member in cls.body:
                scope = member.name if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) else ""
                found += [
                    (scope, ast.unparse(node))
                    for node in ast.walk(member)
                    if isinstance(node, ast.Attribute) and node.attr in MINING_CALLS
                ]
    return found


def test_mining_calls_flagged():
    tree = ast.parse(
        "class Simulation:\n"
        "    def _handle_mine(self, i, t):\n        self.receivers[i].create_block()\n"
        "    def _handle_adv_mine(self, t):\n        self.adversary.on_mine(t)\n"
        "    def run(self):\n        mine = self.nodes[0].create_block\n        self.create_blocks()\n"
        "class _PrivateForkRun:\n    def on_mine(self, t):\n        self.sim.adv_node.create_block()\n"
    )
    assert mining_calls(tree) == [
        ("_handle_mine", "self.receivers[i].create_block"),
        ("_handle_adv_mine", "self.adversary.on_mine"),
        ("run", "self.nodes[0].create_block"),
    ]


def test_simulation_has_one_mining_path():
    """Every miner, the adversary included, mines through
    `Simulation._handle_mine`, which catches it up first and queues its
    next mining time after: no other method makes an honest block or calls
    a strategy's `on_mine`."""
    path = Path(sdag.__file__).parent / "simnet.py"
    found = mining_calls(ast.parse(path.read_text(), filename=str(path)))
    stray = sorted(f"{scope}: {what}" for scope, what in found if scope != MINING_HANDLER)
    assert not stray, f"Simulation mines outside {MINING_HANDLER}: {'; '.join(stray)}"
    assert found, f"{MINING_HANDLER} no longer mines"


# the functions that may grind a nonce with `core.mine`, each with why
MINERS = {
    "node.NodeState.mine_block": "every block a node makes, honest or forged",
    "demo.build_demo": "grinds each block of the fixed example to its class from nonce 0 on a bare SDag",
}


def mine_uses(tree: ast.Module) -> list[tuple[str, str]]:
    """Each read of `core.mine`, called or not (an alias calls it later):
    a name imported as it from `core` or `sdag`, or a `.mine` attribute,
    with the dotted name of the definitions around it ('' at module
    level)."""
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in ("core", "sdag.core", "sdag")
        for alias in node.names
        if alias.name == "mine"
    }
    found = []

    def visit(node, scope):
        if isinstance(node, DEFINITIONS):
            scope = f"{scope}.{node.name}".lstrip(".")
        if isinstance(node, ast.Attribute) and node.attr == "mine":
            found.append((scope, ast.unparse(node)))
        elif isinstance(node, ast.Name) and node.id in aliases and isinstance(node.ctx, ast.Load):
            found.append((scope, node.id))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def test_mine_uses_flagged():
    tree = ast.parse(
        "from .core import Block, mine as grind\n"
        "class NodeState:\n    def mine_block(self, t):\n        return grind(t, self.params, 16)\n"
        "class _PeerForkRun:\n    def on_mine(self, t):\n        core.mine(t, p, 16)\n"
        "def f(counts):\n    mine = counts.get(0)\n    return mine, grind\n"
    )
    assert mine_uses(tree) == [
        ("NodeState.mine_block", "grind"),
        ("_PeerForkRun.on_mine", "core.mine"),
        ("f", "grind"),
    ]
    # a local named `mine` is no use where `core.mine` is not imported under it
    assert mine_uses(ast.parse("def f(counts):\n    mine = counts.get(0)\n    return mine\n")) == []


def test_only_mine_block_mines():
    """A node mines every block it makes, an honest miner's and a forger's,
    through `NodeState.mine_block`, which draws the nonce from the node's
    `rng`, counts the attempts and stores the block: no other function of
    the package calls `core.mine`, bar `MINERS`."""
    found = [
        (f"{path.stem}.{scope}", what)
        for path in MODULES
        for scope, what in mine_uses(ast.parse(path.read_text(), filename=str(path)))
    ]
    stray = sorted(f"{scope}: {what}" for scope, what in found if scope not in MINERS)
    assert not stray, f"core.mine called outside {', '.join(MINERS)}: {'; '.join(stray)}"
    stale = sorted(set(MINERS) - {scope for scope, _what in found})
    assert not stale, f"exempt functions that no longer mine: {', '.join(stale)}"


# a node's per-delivery receive path: the library API that the simulator's
# store-time oracle replays
PER_DELIVERY = {"on_receive_block", "on_tx"}


def per_delivery_uses(tree: ast.Module) -> list[str]:
    return [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr in PER_DELIVERY]


def test_per_delivery_uses_flagged():
    tree = ast.parse("node.on_tx(e)\nself.adv_node.on_receive_block(b)\nf = node.on_tx\nnode.catch_up(e)\n")
    assert len(per_delivery_uses(tree)) == 3


def test_simnet_has_one_receive_path():
    """Every receiver of the simulator, the adversary included, takes
    broadcasts and transactions in through `NodeState.catch_up` alone."""
    path = Path(sdag.__file__).parent / "simnet.py"
    found = per_delivery_uses(ast.parse(path.read_text(), filename=str(path)))
    assert not found, f"simnet.py uses the per-delivery path: {'; '.join(found)}"


# the scheme's primitives, which `sigs.MockScheme.witness` and `.opens` wrap
# with the witness layout and the owner's address
SIGNATURE_PRIMITIVES = {"sign", "verify"}


def signature_primitive_uses(tree: ast.Module) -> list[str]:
    """Each read of a `sign` or `verify` attribute, called or not (an alias
    calls it later)."""
    return [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in SIGNATURE_PRIMITIVES
    ]


def test_signature_primitive_uses_flagged():
    tree = ast.parse(
        "S.sign(k, m)\nDEFAULT_SCHEME.verify(p, m, s)\ncheck = S.verify\n"
        "S.witness(k, m)\nS.opens(w, a, m)\nsign(k, m)\n"
    )
    assert sorted(signature_primitive_uses(tree)) == ["DEFAULT_SCHEME.verify", "S.sign", "S.verify"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "sigs.py"], ids=lambda p: p.name)
def test_only_sigs_signs_and_verifies(path):
    """A witness is built and opened in one place: every module but
    `sigs.py` goes through `witness` and `opens`, never `sign` or `verify`,
    so the witness layout and the ownership check have one home."""
    found = signature_primitive_uses(ast.parse(path.read_text(), filename=str(path)))
    assert not found, f"{path.name} signs or verifies outside sigs: {'; '.join(found)}"


# calls that put an item on a heap, and the functions outside
# `Simulation._push` that may make them, each with the heap it keeps
HEAP_PUSHES = {"heappush", "heappushpop", "heapreplace"}
QUEUE = "simnet.Simulation._push"
OTHER_HEAPS = {"simnet._PrivateForkRun.milestone_stored": "milestone first-store times, not events"}


def heap_pushes(tree: ast.Module) -> list[tuple[str, str]]:
    """Each use of a `HEAP_PUSHES` function, called or not (an alias pushes
    too), and each import of one from `heapq`, with the dotted name of the
    definitions around it ('' at module level)."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}".lstrip(".")
        if isinstance(node, ast.Attribute) and node.attr in HEAP_PUSHES:
            found.append((scope, ast.unparse(node)))
        elif isinstance(node, ast.Name) and node.id in HEAP_PUSHES:
            found.append((scope, node.id))
        elif isinstance(node, ast.ImportFrom) and node.module == "heapq":
            found.extend((scope, f"from heapq import {a.name}") for a in node.names if a.name in HEAP_PUSHES)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def test_heap_pushes_flagged():
    tree = ast.parse(
        "import heapq\nfrom heapq import heappush as hp, heappop\n"
        "class Simulation:\n    def _push(self, e):\n        heapq.heappush(self.heap, e)\n"
        "    def run(self):\n        push = heapq.heappush\n        heapq.heapreplace(self.heap, 1)\n"
        "        heapq.heappop(self.heap)\n"
        "def f(heap):\n    heappushpop(heap, 1)\n"
    )
    assert heap_pushes(tree) == [
        ("", "from heapq import heappush"),
        ("Simulation._push", "heapq.heappush"),
        ("Simulation.run", "heapq.heappush"),
        ("Simulation.run", "heapq.heapreplace"),
        ("f", "heappushpop"),
    ]


def test_only_push_queues_events():
    """`Simulation._push` drops every event past the horizon, so it is the
    one place the horizon bounds the traffic only if no other code queues
    an event: nothing else in the package pushes onto a heap, bar the
    exempt functions, whose heaps hold no events."""
    found = [
        (f"{path.stem}.{scope}", what)
        for path in MODULES
        for scope, what in heap_pushes(ast.parse(path.read_text(), filename=str(path)))
    ]
    stray = sorted(f"{scope}: {what}" for scope, what in found if scope != QUEUE and scope not in OTHER_HEAPS)
    assert not stray, f"heap pushes outside {QUEUE}: {'; '.join(stray)}"
    stale = sorted({QUEUE, *OTHER_HEAPS} - {scope for scope, _what in found})
    assert not stale, f"push sites that no longer push: {', '.join(stale)}"


# calls that switch the cyclic collector off or on, retune it or move
# objects between its generations
GC_SWITCHES = {"disable", "enable", "freeze", "unfreeze", "set_threshold"}
HELPER = "collector_paused"


def collector_switches(tree: ast.Module, helper_module: bool) -> list[str]:
    """Calls of `GC_SWITCHES`, through `gc.` or imported from `gc`, outside
    the body of the helper (counted only in the helper's own module)."""
    from_gc = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "gc"
        for alias in node.names
        if alias.name in GC_SWITCHES
    }
    exempt = set()
    if helper_module:
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == HELPER:
                exempt.update(id(sub) for sub in ast.walk(node))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in exempt:
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in GC_SWITCHES
            and isinstance(func.value, ast.Name)
            and func.value.id == "gc"
        ) or (isinstance(func, ast.Name) and func.id in from_gc):
            found.append(ast.unparse(node))
    return found


def test_collector_switches_flagged():
    tree = ast.parse(
        "import gc\nfrom gc import freeze as f\n"
        f"def {HELPER}():\n    gc.disable()\n    gc.freeze()\n    gc.unfreeze()\n    gc.enable()\n"
        "def run():\n    gc.disable()\n    f()\n    gc.unfreeze()\n    gc.set_threshold(0)\n"
        "    gc.collect()\n    gc.isenabled()\n    gc.get_freeze_count()\n"
    )
    assert len(collector_switches(tree, helper_module=True)) == 4
    assert len(collector_switches(tree, helper_module=False)) == 8


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_helper_switches_the_collector(path):
    """`dag.collector_paused` alone turns the cyclic collector off and back
    on and promotes objects, so every pause restores the state it found."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = collector_switches(tree, helper_module=path.name == "dag.py")
    assert not found, f"{path.name} switches the cyclic collector: {'; '.join(found)}"


def test_only_load_and_fold_pause_the_collector():
    """The pause is safe only around code that makes no cyclic garbage, as
    loading and folding a DAG do (`tests/test_ledger.py` checks it); a
    simulation run does make some, so it runs with the collector on."""
    paused, other = [], []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        decorators = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for d in node.decorator_list:
                    if isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == HELPER:
                        decorators.add(id(d.func))
                        paused.append(node.name)
        other += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == HELPER and id(node) not in decorators
        ]
    assert sorted(paused) == ["build_from_dag", "load"]
    assert not other, f"{HELPER} used other than as a decorator: {', '.join(other)}"


ROOT = Path(__file__).resolve().parents[1]
CALLER_FILES = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))


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


def parse(paths) -> list[ast.Module]:
    return [ast.parse(p.read_text(), filename=str(p)) for p in paths]


def test_every_knob_has_a_caller():
    """Every parameter with a default, of a function or method in the
    package, is passed at some call in `src/`, `tests/` or `bench/`: one that
    never is can only ever hold its default.  Callees are matched by name,
    and a constructor by its class."""
    flagged = unset_knobs(parse(MODULES), parse(CALLER_FILES))
    assert not flagged, f"parameters no call passes: {', '.join(flagged)}"


# the benchmark scripts, without their tests
BENCH_SCRIPTS = sorted((ROOT / "bench").glob("*.py"))

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
    flagged = set(unset_knobs(parse(MODULES), parse(MODULES + BENCH_SCRIPTS)))
    only_tests = sorted(flagged - set(TEST_ONLY_KNOBS))
    assert not only_tests, f"parameters only tests pass: {', '.join(only_tests)}"
    stale = sorted(set(TEST_ONLY_KNOBS) - flagged)
    assert not stale, f"exempt parameters that are gone or have a caller: {', '.join(stale)}"


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


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
    package = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    unreached = unreached_public_definitions(package, parse(BENCH_SCRIPTS))
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
    package = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    problems = field_problems(unread_fields(package, parse(BENCH_SCRIPTS)), TEST_ONLY_FIELDS)
    assert not problems, "; ".join(problems)


def environment_reads(tree: ast.Module) -> list[str]:
    """Reads of the process environment: `os.environ` (and so
    `os.environ.get`), `os.getenv`, and either name imported from `os`."""
    found = [
        f"from os import {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "os"
        for alias in node.names
        if alias.name in ("environ", "getenv")
    ]
    found += [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr in ("environ", "getenv")
        and isinstance(node.value, ast.Name)
        and node.value.id == "os"
    ]
    return found


def test_environment_reads_flagged():
    tree = ast.parse(
        "import os\nfrom os import getenv\nos.environ.get('A')\nos.getenv('B')\nos.environ['C']\n"
        "os.cpu_count()\nconfig.environ\n"
    )
    assert len(environment_reads(tree)) == 4


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_reads_the_environment(path):
    """Each input has one way in: a flag or a config key.  A value read from
    the environment as well is a second way to set it, which no manifest
    records."""
    found = environment_reads(ast.parse(path.read_text(), filename=str(path)))
    assert not found, f"{path.name} reads the environment: {'; '.join(found)}"


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
    path = Path(sdag.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    dests = parser_dests(tree, "build_parser")
    assert {"config", "seed", "pnmu", "out"} <= dests
    unread = sorted(dests - args_reads(tree))
    assert not unread, f"options never read: {', '.join(unread)}"
