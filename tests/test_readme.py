import ast
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
# a comment that opens with a number, such as "# 0.780239" or "# 1.732... >= 0"
NUMBER = re.compile(r"\s#\s*(-?\d+\.(\d+))")


def _quick_start() -> str:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_quick_start_runs():
    # the library quick start uses the public config fields, so a renamed or
    # deleted field fails here instead of leaving the README silently stale
    namespace: dict = {}
    exec(compile(_quick_start(), str(README), "exec"), namespace)
    assert namespace["rep"]["classification"] == "corollary2"
    assert namespace["scan"].passed


def test_quick_start_comments_match_output():
    # each statement runs on its own; one whose line ends in a numeric comment
    # must print that number first, to the digits the comment shows
    source = _quick_start()
    lines, namespace, checked = source.splitlines(), {}, 0
    for node in ast.parse(source).body:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(ast.Module([node], []), str(README), "exec"), namespace)
        comment = NUMBER.search(lines[node.end_lineno - 1])
        if comment:
            printed = float(out.getvalue().split()[0])
            assert f"{printed:.{len(comment[2])}f}" == comment[1], (lines[node.end_lineno - 1], printed)
            checked += 1
    assert checked >= 4


def test_public_api():
    # qsteer's public names are the union of its modules' export lists, every
    # entry resolves, and README's Public API section names each one
    import types

    import qsteer
    from qsteer import monogamy, randgen, states, steering

    modules = (monogamy, randgen, states, steering)
    listed = [name for module in modules for name in module.__all__]
    assert len(listed) == len(set(listed)) == 35
    public = {name for name, value in vars(qsteer).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(listed)
    for module in modules:
        for name in module.__all__:
            assert getattr(qsteer, name) is getattr(module, name)
    section = re.search(r"^## Public API\n(.*?)^## ", README.read_text(encoding="utf-8"), flags=re.S | re.M)
    named = set(re.findall(r"`([A-Za-z_]\w*)", section[1]))
    assert sorted(public - named) == []


def test_private_names_stay_in_their_module():
    # no qsteer module imports or reads another's underscore names, so a rule
    # that two modules would have to keep bit for bit cannot span them; the one
    # exception is the config-field check that randgen, monogamy and cli share
    allowed = {("states", "_check_integers")}
    crossings = []
    for path in sorted((README.parent / "src" / "qsteer").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}  # local name -> the qsteer module it binds (from . import states)
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            # ".states" for from .states, "qsteer.states" for from qsteer.states
            source = "." * node.level + (node.module or "")
            if source in (".", "qsteer"):
                modules.update({a.asname or a.name: a.name for a in node.names})
            elif source.startswith((".", "qsteer.")):
                crossings += [f"{path.name}:{node.lineno} imports {source}.{a.name}" for a in node.names
                              if a.name.startswith("_") and (source.rpartition(".")[2], a.name) not in allowed]
        crossings += [f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}" for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                      and isinstance(node.value, ast.Name) and node.value.id in modules
                      and (modules[node.value.id], node.attr) not in allowed]
    assert crossings == []
