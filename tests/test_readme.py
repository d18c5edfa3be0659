"""The README's python example, run as a doctest."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_example():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    test = doctest.DocTestParser().get_doctest(
        "\n".join(blocks), {}, "README.md", str(README), 0)
    report = []
    result = doctest.DocTestRunner().run(test, out=report.append)
    assert result.attempted >= 7
    assert result.failed == 0, "".join(report)
