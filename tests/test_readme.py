"""The README's "Library quickstart" runs, and gives the values its comments
state."""

from pathlib import Path

from tdpair121 import QQ

README = Path(__file__).parent.parent / "README.md"


def quickstart() -> str:
    """The python block under the "## Library quickstart" heading."""
    section = README.read_text().split("\n## Library quickstart\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quickstart_gives_the_values_its_comments_state():
    code = quickstart()
    stated = {line.partition("#")[0].strip(): line.partition("#")[2].strip()
              for line in code.splitlines() if "#" in line}
    assert stated == {
        "admissible(pa).ok": "True",
        "derived_params(pa)": "(-5/4, -5/4, 3/4, 3/4)",
        "tds = construct(pa)": "canonical matrix pair + idempotents",
        "report.overall, report.shape": "True, (1, 2, 1)",
        "extract_parameter_array(tds) == pa": "True",
    }
    scope = {}
    exec(compile(code, str(README), "exec"), scope)
    assert eval("admissible(pa).ok", scope) is True
    dp = eval("derived_params(pa)", scope)
    assert (dp.varphi1, dp.varphi2, dp.phi1, dp.phi2) == tuple(
        QQ(x) for x in ("-5/4", "-5/4", "3/4", "3/4"))
    assert eval("report.overall, report.shape", scope) == (True, (1, 2, 1))
    assert eval("extract_parameter_array(tds) == pa", scope) is True
