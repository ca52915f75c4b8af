import ast
import re
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
