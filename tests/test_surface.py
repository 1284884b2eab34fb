import pathlib
import re
import types

import conebell


def test_every_exported_name_is_used_in_the_package():
    """Every name in conebell.__all__ but the modules is named in the
    package's modules somewhere besides its own definition."""
    package = pathlib.Path(conebell.__file__).parent
    text = "\n".join(path.read_text() for path in package.glob("*.py")
                     if path.name != "__init__.py")
    unused = [name for name in conebell.__all__
              if not isinstance(getattr(conebell, name), types.ModuleType)
              and len(re.findall(rf"\b{name}\b", text)) < 2]
    assert unused == []
