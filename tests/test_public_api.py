"""Every public module-level function and class of `genomelm` is reached by
the program: named in its own module outside its definition, or imported
from `genomelm` by another file of `src/`, `scripts/` or `perfbench/`, or
read there as an attribute of a module imported from `genomelm`. A file's
own function of the same name does not count. An API that only tests call
is code to delete, not to keep."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "genomelm"
PROGRAM_DIRS = [ROOT / "src", ROOT / "scripts", ROOT / "perfbench"]

# name -> why it stays although no program path names it
ALLOWED = {
    "bpe_decode": "the inverse that the bpe_encode round-trip tests check against",
}


def _names(node: ast.AST, skip: ast.AST = None) -> set:
    """Every identifier `node` names (names, attributes, imports) outside
    the subtree `skip`."""
    found = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif isinstance(n, ast.alias):
            found.add(n.name.rpartition(".")[2])
        stack.extend(ast.iter_child_nodes(n))
    return found


def _package_names(tree: ast.AST, in_package: bool) -> set:
    """Every name `tree` imports from `genomelm` (relative imports count
    `in_package` only), or reads as an attribute of a module it imports from
    there."""
    found, modules = set(), set()
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom) and (
                n.level and in_package or not n.level and n.module.split(".")[0] == "genomelm"):
            found.update(alias.name for alias in n.names)
            if n.module in (None, "genomelm"):  # `from . import lm`, `from genomelm import lm`
                modules.update(alias.asname or alias.name for alias in n.names)
        elif isinstance(n, ast.Import):
            modules.update(alias.asname or "genomelm" for alias in n.names
                           if alias.name.split(".")[0] == "genomelm")
    for n in ast.walk(tree):
        if isinstance(n, ast.Attribute):
            root = n.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                found.add(n.attr)
    return found


def _program_trees() -> dict:
    return {
        path: ast.parse(path.read_text(), filename=str(path))
        for d in PROGRAM_DIRS
        for path in sorted(d.rglob("*.py"))
    }


def _unreached(trees: dict) -> list:
    """(module, name) of each public definition that neither its own module
    outside it nor another program file reaches."""
    elsewhere = {path: _package_names(tree, path.parent == PACKAGE)
                 for path, tree in trees.items()}
    unreached = []
    for path in sorted(p for p in trees if p.parent == PACKAGE):
        tree = trees[path]
        other_files = set().union(*(names for p, names in elsewhere.items() if p != path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name in ALLOWED or node.name in other_files:
                continue
            if node.name not in _names(tree, skip=node):
                unreached.append((path.stem, node.name))
    return unreached


def test_every_public_definition_is_reached_by_the_program():
    assert _unreached(_program_trees()) == []


def test_every_allowed_name_is_still_defined():
    defined = {
        node.name
        for path in PACKAGE.glob("*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert set(ALLOWED) <= defined


def _with_planted_module(source: str) -> dict:
    trees = _program_trees()
    trees[PACKAGE / "planted.py"] = ast.parse(source)
    return trees


def test_a_definition_nothing_else_names_is_flagged():
    # what mcc or parse_genbank were: defined, reachable only from tests;
    # naming itself (recursion) does not count as being reached
    trees = _with_planted_module(
        "def only_tests_call_me(n):\n"
        "    return only_tests_call_me(n - 1) if n else 0\n"
        "class OnlyTestsBuildMe:\n"
        "    pass\n"
        "def _private_helper():\n"
        "    pass\n"
    )
    assert _unreached(trees) == [
        ("planted", "only_tests_call_me"), ("planted", "OnlyTestsBuildMe"),
    ]


def test_a_definition_its_own_module_or_another_file_names_is_reached():
    trees = _with_planted_module(
        "def helper():\n"
        "    return 1\n"
        "def planted_entry():\n"
        "    return helper()\n"
        "def read_fasta():\n"  # a name that other program files use
        "    pass\n"
    )
    assert _unreached(trees) == [("planted", "planted_entry")]


def test_a_name_another_file_defines_for_itself_is_not_a_reach():
    # perfbench/inputs.py defines and calls its own write_fasta, as
    # `inputs.write_fasta`: that reaches nothing of `genomelm`
    trees = _with_planted_module(
        "def write_fasta(path, records):\n"
        "    pass\n"
    )
    assert _unreached(trees) == [("planted", "write_fasta")]
