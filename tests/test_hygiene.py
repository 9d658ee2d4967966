"""Source hygiene: every module-level import, every function and every
stored attribute in the package is used by the package itself, no module
reaches into another object's private state, and only the event log
moves time.

A deleted code path must not leave its imports or helpers behind, and
`src` keeps no function that only tests call.  Every module-level name
that is not a dunder (a constant, a function, a class) is loaded by some
module of the package, imported by one, or listed in an `__all__`.  An import counts as used
if the module reads it anywhere or re-exports it through `__all__`; a
private function or method counts as used if any module of the package
names it.  A public method counts as named through an attribute access,
a public function through a name, an import or `__all__`.  A dataclass
field or a stored attribute counts as used if the package loads an
attribute of that name; an augmented assignment (`x.n += 1`) only stores.
Each exemption from these checks must still be reported by its own
check, so that no list of exemptions goes stale.

No class under `tests/` subclasses `Simulator`: the driver is checked
against `tests/reference.py` as it is, and a subclass would pin the
shape of its methods.

Time advances only in `EventLog`, by the entry that records the cycles:
no other code stores to an attribute named `now` or defines a `charge`.

Every call that writes a log entry (`emit`, `emit_around`, `hypercall`)
names its kind by one of `channel`'s constants, never a string literal,
so each kind is spelt once.

Per-step code reads no enum member through its class and no `.value`: on
Python 3.11 the enum metaclass defines `__getattr__`, so `Mode.MULTIVERSE`
inside a function is an unspecialised class-attribute load, and `.value`
a Python-level property call.  Neither shows in a profile, as neither is
a Python frame.  Such code reads module constants bound at import instead.
No dataclass field defaults to an enum member: the default stays a class
attribute, and on 3.11 it keeps every read of the field from specialising.
Nor does per-step code build an `EventRecord` inside a loop: a kernel-mode
thread refills the one record it owns for every event it forwards.
"""

import ast
import dataclasses
import enum
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "hrtsim"
SOURCES = sorted(PACKAGE.glob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}  # bound name -> line of its import
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom .a import b, c as d\n__all__ = ['b']\n")
    assert unused_imports(tree) == ["line 1: os", "line 2: d"]


def unused_private_functions(trees: dict[str, ast.Module]) -> list[str]:
    defined: dict[str, str] = {}  # private name -> "module:line" of a definition
    referenced: set[str] = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
                if name.startswith("_") and not name.endswith("__"):
                    defined.setdefault(name, f"{module}:{node.lineno}")
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return sorted(f"{where}: {name}" for name, where in defined.items() if name not in referenced)


def test_every_private_function_is_used():
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    assert unused_private_functions(trees) == []


def test_check_sees_an_unused_private_function():
    tree = ast.parse(
        "def _kept(): pass\n"
        "def _left(): pass\n"
        "def __init__(self): pass\n"
        "class C:\n"
        "    def _method(self): return _kept()\n"
        "    def _orphan(self): return self._method()\n"
    )
    assert unused_private_functions({"m.py": tree}) == ["m.py:2: _left", "m.py:6: _orphan"]


# Public functions that only the tests or the benchmark harness call, kept for them.
NAMED_ONLY_BY_TESTS = {
    "latency_table": "acceptance criterion 1 reads the cost model's latency table",
    "parse_override_config": "acceptance criterion 10 parses a whole override config",
    "embed": "the toolchain's container writer: criterion 10 and test_toolchain tie it "
    "to every image set-up installs",
    "parse_fat_binary": "the toolchain's container reader: criterion 10 and test_toolchain "
    "tie it to every image set-up installs",
    "actions": "perfbench's shape() and tracer, the parser tests and tests/reference.py read "
    "a body's actions by field",
}


def unnamed_public_functions(trees: dict[str, ast.Module]) -> list[str]:
    defined: list[tuple[str, bool, str]] = []  # (name, is a method, "module:line")
    names: set[str] = set()  # named as a name, an import or in __all__
    attributes: set[str] = set()
    for module, tree in trees.items():
        methods = {
            id(item)
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for item in node.body
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not node.name.startswith("_"):
                    defined.append((node.name, id(node) in methods, f"{module}:{node.lineno}"))
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                names |= {elt.value for elt in node.value.elts}
    return sorted(
        f"{where}: {name}"
        for name, method, where in defined
        if name not in (attributes if method else names)
    )


def test_every_public_function_is_named_in_src():
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    unnamed = unnamed_public_functions(trees)
    assert [u for u in unnamed if u.rsplit(": ", 1)[1] not in NAMED_ONLY_BY_TESTS] == []


def test_check_sees_an_unnamed_public_function():
    lib = ast.parse(
        "def called(): pass\n"
        "def imported(): pass\n"
        "def exported(): pass\n"
        "def orphan(): pass\n"
        "def as_attribute(): pass\n"
        "class C:\n"
        "    def used(self): return called()\n"
        "    def as_name(self): pass\n"
        "    def unused(self): pass\n"
    )
    user = ast.parse(
        "from .lib import imported\n"
        "__all__ = ['exported']\n"
        "as_name = C().used()\n"
        "x.as_attribute\n"
    )
    assert unnamed_public_functions({"lib.py": lib, "user.py": user}) == [
        "lib.py:4: orphan",
        "lib.py:5: as_attribute",
        "lib.py:8: as_name",
        "lib.py:9: unused",
    ]


def module_level_names(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of each name that tree's top level binds by a def, a
    class or an assignment; dunder names are left out."""
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [
                (n.id, node.lineno)
                for target in targets
                for n in ast.walk(target)
                if isinstance(n, ast.Name)
            ]
    return [(n, line) for n, line in bound if not (n.startswith("__") and n.endswith("__"))]


def unloaded_module_names(trees: dict[str, ast.Module]) -> list[str]:
    loaded: set[str] = set()  # loaded as a name, imported, or in an __all__
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                loaded |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                loaded |= {elt.value for elt in node.value.elts}
    return sorted(
        f"{module}:{line}: {name}"
        for module, tree in trees.items()
        for name, line in module_level_names(tree)
        if name not in loaded
    )


def test_every_module_level_name_is_loaded():
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    unloaded = unloaded_module_names(trees)
    assert [u for u in unloaded if u.rsplit(": ", 1)[1] not in NAMED_ONLY_BY_TESTS] == []


def test_check_sees_an_unloaded_module_name():
    lib = ast.parse(
        "__version__ = '1'\n"
        "KEPT = {'a'}\n"
        "ORPHAN = {'b'}\n"
        "FIRST, SECOND = 1, 2\n"
        "TYPED: int = 3\n"
        "EXPORTED = 4\n"
        "class Used: pass\n"
        "class Unused: pass\n"
        "def imported(): return KEPT, Used\n"
        "__all__ = ['EXPORTED']\n"
    )
    user = ast.parse("from .lib import imported\nFIRST = 5\nprint(TYPED.real)\n")
    assert unloaded_module_names({"lib.py": lib, "user.py": user}) == [
        "lib.py:3: ORPHAN",
        "lib.py:4: FIRST",
        "lib.py:4: SECOND",
        "lib.py:8: Unused",
        "user.py:2: FIRST",
    ]


# Attributes that `src` stores and only readers outside it load.
READ_OUTSIDE_SRC = {
    "remerge_count": "perfbench/tracing.py reports it as hrt.remerges",
    "hits": "perfbench/tracing.py reports the symbol cache's hit ratio",
    "misses": "perfbench/tracing.py reports the symbol cache's hit ratio",
    "line": "ParseError's public field: the line of the malformed input",
    "offset": "FormatError's public field: where in the container the malformation is",
    "events": "DeadlockError's public field: tests compare the outstanding events it carries",
    "role": "ThreadBody's side; perfbench/workloads.py's shape() counts bodies by role",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id == "dataclass"
        or isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass"
        for d in node.decorator_list
    )


def write_only_attributes(trees: dict[str, ast.Module]) -> list[str]:
    stored: dict[str, str] = {}  # field or attribute name -> "module:line" of a store
    loaded: set[str] = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        stored.setdefault(item.target.id, f"{module}:{item.lineno}")
            elif isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Store):
                    stored.setdefault(node.attr, f"{module}:{node.lineno}")
                elif isinstance(node.ctx, ast.Load):
                    loaded.add(node.attr)
    return sorted(f"{where}: {name}" for name, where in stored.items() if name not in loaded)


def test_no_attribute_is_write_only():
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    found = write_only_attributes(trees)
    assert [f for f in found if f.rsplit(": ", 1)[1] not in READ_OUTSIDE_SRC] == []


def test_check_sees_a_write_only_attribute():
    tree = ast.parse(
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    kept: int\n"
        "    orphan: int = 0\n"
        "class Plain:\n"
        "    annotated: int\n"
        "def f(a, b):\n"
        "    b.stored = a.kept\n"
        "    b.counted += 1\n"
        "    return b.read\n"
        "def g(b):\n"
        "    b.read = 1\n"
    )
    assert write_only_attributes({"m.py": tree}) == [
        "m.py:4: orphan",
        "m.py:8: stored",
        "m.py:9: counted",
    ]


def stale_exemptions(exempt: dict[str, str], found: list[str]) -> list[str]:
    """Keys of exempt that no entry of found ("where: name") reports: an
    exemption its own check no longer needs."""
    reported = {f.rsplit(": ", 1)[1] for f in found}
    return sorted(name for name in exempt if name not in reported)


def test_no_exemption_is_stale():
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    assert stale_exemptions(READ_OUTSIDE_SRC, write_only_attributes(trees)) == []
    unnamed = unnamed_public_functions(trees) + unloaded_module_names(trees)
    assert stale_exemptions(NAMED_ONLY_BY_TESTS, unnamed) == []


def test_check_sees_a_stale_exemption():
    exempt = {"kept": "still reported", "gone": "no longer reported"}
    found = ["m.py:1: kept", "m.py:2: other"]
    assert stale_exemptions(exempt, found) == ["gone"]


def private_access_across_objects(trees: dict[str, ast.Module]) -> list[str]:
    """`x._name` where x is not `self`; dunder names are not private."""
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute) or not node.attr.startswith("_"):
                continue
            if node.attr.endswith("__"):
                continue
            if not (isinstance(node.value, ast.Name) and node.value.id == "self"):
                found.append(f"{module}:{node.lineno}: {ast.unparse(node)}")
    return sorted(found)


def test_no_private_access_across_objects():
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    assert private_access_across_objects(trees) == []


def test_check_sees_a_private_access_across_objects():
    tree = ast.parse(
        "def f(self, ros, kind):\n"
        "    self._own()\n"
        "    ros._alloc_region(1)\n"
        "    self.system.ros._new_thread()\n"
        "    kind._value_, kind.__class__\n"
    )
    assert private_access_across_objects({"m.py": tree}) == [
        "m.py:3: ros._alloc_region",
        "m.py:4: self.system.ros._new_thread",
        "m.py:5: kind._value_",
    ]


def simulator_subclasses(tree: ast.Module) -> list[str]:
    """Classes in tree with `Simulator` among their bases, by name or
    attribute (`sim.Simulator`)."""
    return [
        f"line {node.lineno}: {node.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(getattr(b, "id", getattr(b, "attr", None)) == "Simulator" for b in node.bases)
    ]


def test_no_test_subclasses_the_simulator():
    tests = sorted(Path(__file__).parent.glob("*.py"))
    found = [f"{p.name} {c}" for p in tests for c in simulator_subclasses(ast.parse(p.read_text()))]
    assert found == []


def test_check_sees_a_simulator_subclass():
    tree = ast.parse(
        "class Loop(Simulator):\n    pass\n"
        "class Qualified(hrtsim.sim.Simulator, Mixin):\n    pass\n"
        "class Other(System):\n    sim = Simulator\n"
        "def f():\n    class Nested(Simulator): pass\n"
    )
    assert simulator_subclasses(tree) == ["line 1: Loop", "line 3: Qualified", "line 8: Nested"]


def time_moved_outside_the_log(tree: ast.Module) -> list[str]:
    """Stores to an attribute `now`, and definitions of `charge`, outside
    the class `EventLog`."""
    inside = {
        id(sub)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "EventLog"
        for sub in ast.walk(node)
    }
    found = []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Attribute) and node.attr == "now":
            if isinstance(node.ctx, ast.Store):
                found.append(f"line {node.lineno}: stores .now")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "charge":
            found.append(f"line {node.lineno}: defines charge")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_the_event_log_moves_time(path):
    assert time_moved_outside_the_log(ast.parse(path.read_text())) == []


def test_check_sees_time_moved_outside_the_log():
    tree = ast.parse(
        "class EventLog:\n"
        "    def charge(self, cost): self.now += cost\n"
        "class Clock:\n"
        "    def charge(self, cost): pass\n"
        "def step(self):\n"
        "    self.log.now += 5\n"
        "    a, self.now = 1, 2\n"
        "    start = self.log.now\n"
        "    self.now.cycle = start\n"
    )
    assert time_moved_outside_the_log(tree) == [
        "line 4: defines charge",
        "line 6: stores .now",
        "line 7: stores .now",
    ]


# The position of the kind among each log writer's arguments.
KIND_ARG = {"emit": 0, "emit_around": 0, "hypercall": 1}


def literal_kinds(tree: ast.Module) -> list[str]:
    """Calls in tree of `emit`, `emit_around` or `hypercall`, by name or
    attribute, whose kind, by position or keyword, is a string literal."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
        if name not in KIND_ARG:
            continue
        i = KIND_ARG[name]
        kinds = node.args[i : i + 1] + [k.value for k in node.keywords if k.arg == "kind"]
        if any(isinstance(k, ast.Constant) and isinstance(k.value, str) for k in kinds):
            found.append(f"line {node.lineno}: {ast.unparse(node.func)}")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_log_kind_is_a_channel_constant(path):
    assert literal_kinds(ast.parse(path.read_text())) == []


def test_check_sees_a_literal_kind():
    tree = ast.parse(
        "def f(self, log, channel, g):\n"
        "    log.emit(COMPUTE, 1, 'compute', 5)\n"
        "    log.emit('Compute', 1, 'compute', 5)\n"
        "    self.log.emit_around(kind='SyncInvoke', origin=0, detail='', cost=1, service=g)\n"
        "    channel.hypercall(1, 'AsyncCall', 'd', 5, g)\n"
        "    channel.hypercall(1, ASYNC_CALL, 'AsyncCall', 5, g)\n"
        "    emit('x', 1, 'd')\n"
    )
    assert literal_kinds(tree) == [
        "line 3: log.emit",
        "line 4: self.log.emit_around",
        "line 5: channel.hypercall",
        "line 7: emit",
    ]


# Functions that run once per simulated action, event or step, as
# "module:qualified name"; each must exist, so the list cannot go stale.
PER_STEP = (
    "mem:translate",
    "mem:_leaf_table",
    "mem:_table_frame",
    "mem:map_page",
    "mem:fault_in",
    "mem:unmap_page",
    "mem:FrameAllocator.take",
    "channel:fault_detail",
    "channel:EventLog.emit",
    "channel:EventChannel.forward_event",
    "channel:EventChannel.complete_event",
    "hrt:HrtKernel.handle_page_fault",
    "ros:RegionList.add",
    "ros:RegionList.writable_at",
    "ros:RegionList.carve",
    "ros:RosKernel.touch",
    "ros:RosKernel.demand_fault",
    "ros:RosKernel.serve_forwarded",
    "ros:RosKernel.partner_step",
    "ros:RosKernel.syscall",
    "ros:RosKernel.sys_mmap",
    "ros:RosKernel.sys_munmap",
    "ros:RosKernel._alloc_region",
    "sim:Simulator.step",
    "sim:_call_payload",
    "sim:Simulator._ros_thread",
    "sim:Simulator._hrt_thread",
    "sim:Simulator._partner",
)


def find_function(tree: ast.Module, qualname: str) -> ast.FunctionDef | None:
    """The definition of `name` or `Class.name` at the top of tree."""
    *cls, name = qualname.split(".")
    body = tree.body
    if cls:
        body = next((n.body for n in body if isinstance(n, ast.ClassDef) and n.name == cls[0]), [])
    return next((n for n in body if isinstance(n, ast.FunctionDef) and n.name == name), None)


def enum_toll(func: ast.AST, namespace: dict) -> list[str]:
    """Loads in func of an enum member through its class (`X.MEMBER`, with
    X an `enum.Enum` subclass in namespace) and of any `.value`."""
    found = []
    for node in ast.walk(func):
        if not isinstance(node, ast.Attribute) or not isinstance(node.ctx, ast.Load):
            continue
        owner = namespace.get(node.value.id) if isinstance(node.value, ast.Name) else None
        member = isinstance(owner, type) and issubclass(owner, enum.Enum)
        if node.attr == "value" or member and node.attr in owner.__members__:
            found.append((node.lineno, node.col_offset, ast.unparse(node)))
    return [f"line {line}: {text}" for line, _, text in sorted(found)]


def test_per_step_code_pays_no_enum_toll():
    found, missing = [], []
    for entry in PER_STEP:
        module, qualname = entry.split(":")
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        func = find_function(tree, qualname)
        if func is None:
            missing.append(entry)
            continue
        namespace = vars(importlib.import_module(f"hrtsim.{module}"))
        found += [f"{entry} {where}" for where in enum_toll(func, namespace)]
    assert missing == []
    assert found == []


def test_check_sees_an_enum_toll():
    class Kind(enum.Enum):
        A = "a"

    tree = ast.parse(
        "def f(ev, table):\n"
        "    if ev.kind is Kind.A or ev.kind is A:\n"
        "        return ev.kind.value, ev.kind._value_, Kind(ev), table.A\n"
        "    Alias.A, Kind.__members__\n"
    )
    namespace = {"Kind": Kind, "Alias": Kind, "A": Kind.A}
    assert find_function(tree, "f") is tree.body[0]
    assert find_function(tree, "Missing.f") is None
    assert enum_toll(tree, namespace) == [
        "line 2: Kind.A",
        "line 3: ev.kind.value",
        "line 4: Alias.A",
    ]


def enum_defaults(namespace: dict) -> list[str]:
    """Fields, of the dataclasses defined in namespace, whose default is an
    enum member."""
    return [
        f"{cls.__name__}.{f.name}"
        for cls in namespace.values()
        if isinstance(cls, type)
        and dataclasses.is_dataclass(cls)
        and cls.__module__ == namespace["__name__"]
        for f in dataclasses.fields(cls)
        if isinstance(f.default, enum.Enum)
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dataclass_field_defaults_to_an_enum_member(path):
    assert enum_defaults(vars(importlib.import_module(f"hrtsim.{path.stem}"))) == []


def test_check_sees_an_enum_default():
    class Kind(enum.Enum):
        A = "a"

    @dataclasses.dataclass
    class Record:
        required: Kind
        flag: bool = False
        kind: Kind = Kind.A
        kinds: list = dataclasses.field(default_factory=lambda: [Kind.A])

    @dataclasses.dataclass
    class Elsewhere:
        kind: Kind = Kind.A

    Elsewhere.__module__ = "other"
    namespace = {"__name__": __name__, "Kind": Kind, "Record": Record, "Elsewhere": Elsewhere}
    assert enum_defaults(namespace) == ["Record.kind"]


def records_built_in_loops(func: ast.AST) -> list[str]:
    """Calls in func of `EventRecord(...)`, by name or attribute, inside a
    `for` or `while` loop: a forwarding thread refills the one record it
    owns instead of building one per event."""
    lines = {
        node.lineno
        for loop in ast.walk(func)
        if isinstance(loop, (ast.For, ast.While))
        for node in ast.walk(loop)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == "EventRecord"
    }
    return [f"line {line}" for line in sorted(lines)]


def test_per_step_code_builds_no_event_record_per_iteration():
    found = []
    for entry in PER_STEP:
        module, qualname = entry.split(":")
        func = find_function(ast.parse((PACKAGE / f"{module}.py").read_text()), qualname)
        found += [f"{entry} {where}" for where in records_built_in_loops(func)]
    assert found == []


def test_check_sees_a_record_built_in_a_loop():
    tree = ast.parse(
        "def f(steps, channel):\n"
        "    slot = EventRecord(0)\n"
        "    for s in steps:\n"
        "        while s:\n"
        "            ev = EventRecord(s)\n"
        "        channel.EventRecord(s)\n"
        "        slot.kind = s\n"
        "    return EventRecord(1)\n"
    )
    assert records_built_in_loops(tree) == ["line 5", "line 6"]
