import ast
import io
import re
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).parent.parent


def module_caps() -> dict[str, int]:
    """Every module-level `MAX_*` constant of the package, by module-qualified name."""
    caps = {}
    for path in sorted((ROOT / "src" / "wdsparql").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id.startswith("MAX_"):
                        caps[f"{path.stem}.{target.id}"] = ast.literal_eval(node.value)
    return caps


def test_readme_lists_every_cap_with_its_value():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    listed = {name: int(value.replace(",", "")) for name, value in
              re.findall(r"`(\w+\.MAX_[A-Z_]+)` = ([\d,]+)", readme)}
    caps = module_caps()
    assert len(caps) >= 10
    assert listed == caps
    assert set(re.findall(r"MAX_[A-Z_]+", readme)) == {name.split(".")[1] for name in caps}


def test_readme_library_block_prints_its_comments():
    """README's `## Library` block runs, and each `print` line prints
    the value its `# ...` comment shows."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library\n\n```python\n(.*?)^```", readme, re.S | re.M).group(1)
    expected = re.findall(r"^print\(.*\)\s+# (.*)$", block, re.M)
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert expected and len(expected) == block.count("print(")
    assert out.getvalue().splitlines() == expected


def test_readme_dotted_names_resolve_in_the_package():
    """Every dotted name README puts in backticks, `module.name` or
    `Class.attribute`, names something the package has: its first part is
    a module of the package or a name it exports."""
    import importlib

    import wdsparql

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    names = set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", readme))
    assert len(names) >= 15
    for name in sorted(names):
        head, *rest = name.split(".")
        if (ROOT / "src" / "wdsparql" / f"{head}.py").exists():
            found = importlib.import_module(f"wdsparql.{head}")
        else:
            assert hasattr(wdsparql, head), name
            found = getattr(wdsparql, head)
        for part in rest:
            assert hasattr(found, part), name
            found = getattr(found, part)
