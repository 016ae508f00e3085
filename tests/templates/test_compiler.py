"""Direct tests of the template-to-Python compiler."""

import pytest

from repro.templates import Template, TemplateEngine, TemplateRenderError
from repro.templates import engine as engine_module
from repro.templates.compiler import CompileUnsupported, compile_template
from repro.templates.nodes import Node
from repro.templates.parser import TemplateParser
from tests.templates.interpreter import Interpreter


def engine_pair(sources):
    """A compiled engine and the reference interpreter over the same
    sources."""
    return (
        TemplateEngine(sources=dict(sources)),
        Interpreter(TemplateEngine(sources=dict(sources))),
    )


class TestCompiledPath:
    def test_generated_source_is_attached(self):
        engine = TemplateEngine(sources={"a.html": "{{ x }}"})
        template = engine.get_template("a.html")
        assert "def _render" in template._render_fn.generated_source

    def test_standalone_template_is_compiled(self):
        template = Template("{{ x }}")
        assert "def _render" in template._render_fn.generated_source
        assert template.render({"x": "<b>"}) == "&lt;b&gt;"

    def test_literal_runs_are_pre_joined(self):
        engine = TemplateEngine(
            sources={"a.html": "a{# comment #}b{% comment %}x{% endcomment %}c"}
        )
        template = engine.get_template("a.html")
        assert "'abc'" in template._render_fn.generated_source
        assert template.render({}) == "abc"

    def test_unknown_node_fails_at_load(self, monkeypatch):
        class Opaque(Node):
            pass

        class OpaqueParser(TemplateParser):
            def parse(self):
                return super().parse() + [Opaque()]

        monkeypatch.setattr(engine_module, "TemplateParser", OpaqueParser)
        engine = TemplateEngine(sources={"a.html": "x"})
        with pytest.raises(CompileUnsupported, match="Opaque"):
            engine.get_template("a.html")
        assert engine.cache_stats()["size"] == 0
        assert engine.cache_stats()["compile_fallbacks"] == 0

    def test_compile_template_raises_instead_of_returning_none(self):
        class Opaque(Node):
            pass

        template = Template("x")
        template.nodes.append(Opaque())
        with pytest.raises(CompileUnsupported, match="Opaque"):
            compile_template(template)

    def test_compile_fallbacks_is_constant_zero(self):
        engine = TemplateEngine(sources={
            "base.html": "<{% block b %}d{% endblock %}>",
            "child.html": "{% extends 'base.html' %}{% block b %}"
                          "{% include 'p.html' %}{% endblock %}",
            "p.html": "{% cache 'k' %}{{ x }}{% endcache %}",
        })
        assert engine.render("child.html", {"x": 1}) == "<1>"
        assert engine.cache_stats()["compile_fallbacks"] == 0


INHERITANCE_CASES = {
    "override": {
        "base.html": "<{% block body %}default{% endblock %}>",
        "child.html": "{% extends 'base.html' %}"
                      "{% block body %}{{ x }}{% endblock %}",
    },
    "default-kept": {
        "base.html": "{% block a %}A{% endblock %}|{% block b %}{{ x }}{% endblock %}",
        "child.html": "{% extends 'base.html' %}{% block a %}[{{ x }}]{% endblock %}",
    },
    "three-level": {
        "base.html": "({% block b %}base{% endblock %})",
        "mid.html": "{% extends 'base.html' %}{% block b %}mid{{ x }}{% endblock %}",
        "child.html": "{% extends 'mid.html' %}{% block b %}top{{ x }}{% endblock %}",
    },
    "block-in-parent-loop": {
        "base.html": "{% for i in xs %}{% block row %}-{% endblock %}{% endfor %}",
        "child.html": "{% extends 'base.html' %}"
                      "{% block row %}{{ i }}{{ forloop.counter }};{% endblock %}",
    },
    "include-in-override": {
        "base.html": "<{% block body %}{% endblock %}>",
        "child.html": "{% extends 'base.html' %}"
                      "{% block body %}{% include 'p.html' %}{% endblock %}",
        "p.html": "{% with y=x %}{{ y }}&{% endwith %}",
    },
}


@pytest.mark.parametrize("case", list(INHERITANCE_CASES))
def test_compiled_block_overrides_match_oracle(case):
    # Block overrides travel as compiled block functions; the oracle
    # carries node lists.  Both must produce the same bytes.
    compiled, oracle = engine_pair(INHERITANCE_CASES[case])
    data = {"x": "<x>", "xs": ["a", "b"]}
    assert compiled.render("child.html", data) == oracle.render("child.html", data)


class TestCompiledSemantics:
    """Spot checks on the trickier lowering rules (the equivalence
    suite covers the full surface)."""

    def test_forloop_metadata(self):
        source = (
            "{% for x in xs %}{{ forloop.counter }}:{{ forloop.revcounter }}"
            "{% if forloop.first %}F{% endif %}"
            "{% if forloop.last %}L{% endif %};{% endfor %}"
        )
        compiled, interpreted = engine_pair({"a.html": source})
        data = {"xs": ["a", "b", "c"]}
        assert compiled.render("a.html", data) == "1:3F;2:2;3:1L;"
        assert compiled.render("a.html", data) == interpreted.render("a.html", data)

    def test_loop_variable_named_forloop_shadows_metadata(self):
        source = "{% for forloop in xs %}{{ forloop }}{% endfor %}"
        compiled, interpreted = engine_pair({"a.html": source})
        data = {"xs": [1, 2]}
        assert compiled.render("a.html", data) == interpreted.render("a.html", data) == "12"

    def test_nested_loop_parentloop(self):
        source = (
            "{% for row in rows %}{% for cell in row %}"
            "{{ forloop.parentloop.counter }}.{{ forloop.counter }} "
            "{% endfor %}{% endfor %}"
        )
        compiled, interpreted = engine_pair({"a.html": source})
        data = {"rows": [[1, 2], [3]]}
        assert compiled.render("a.html", data) == interpreted.render("a.html", data)

    def test_tuple_unpack_error_message_matches(self):
        source = "{% for a, b in xs %}{{ a }}{% endfor %}"
        compiled, interpreted = engine_pair({"a.html": source})
        data = {"xs": [(1, 2, 3)]}
        with pytest.raises(TemplateRenderError) as compiled_error:
            compiled.render("a.html", data)
        with pytest.raises(TemplateRenderError) as interpreted_error:
            interpreted.render("a.html", data)
        assert str(compiled_error.value) == str(interpreted_error.value)

    def test_filter_failure_message_matches(self):
        source = "{{ x|floatformat:bad }}"
        compiled, interpreted = engine_pair({"a.html": source})
        data = {"x": 1.5, "bad": "zz"}
        with pytest.raises(TemplateRenderError) as compiled_error:
            compiled.render("a.html", data)
        with pytest.raises(TemplateRenderError) as interpreted_error:
            interpreted.render("a.html", data)
        assert str(compiled_error.value) == str(interpreted_error.value)

    def test_not_iterable_error_matches(self):
        source = "{% for x in n %}{{ x }}{% endfor %}"
        compiled, interpreted = engine_pair({"a.html": source})
        for engine in (compiled, interpreted):
            with pytest.raises(TemplateRenderError, match="not iterable"):
                engine.render("a.html", {"n": 7})

    def test_include_resolves_through_engine_at_render_time(self):
        sources = {"a.html": "[{% include 'p.html' %}]", "p.html": "one"}
        engine = TemplateEngine(sources=sources)
        assert engine.render("a.html", {}) == "[one]"
        engine.add_source("p.html", "two")
        assert engine.render("a.html", {}) == "[two]"

    def test_inlined_include_records_dependency(self):
        sources = {
            "a.html": "{% for i in xs %}{% include 'p.html' %}{% endfor %}",
            "p.html": "[{{ i }}]",
        }
        engine = TemplateEngine(sources=sources)
        assert engine.render("a.html", {"xs": [1, 2]}) == "[1][2]"
        template = engine.get_template("a.html")
        assert "p.html" in template._dependencies
        # Invalidating the inlined dependency drops the dependent too.
        engine.invalidate("p.html")
        assert "a.html" not in engine._cache
        engine.add_source("p.html", "({{ i }})")
        assert engine.render("a.html", {"xs": [1]}) == "(1)"

    def test_recursive_include_does_not_hang_compilation(self):
        sources = {"a.html": "{% if go %}{% include 'a.html' %}{% endif %}x"}
        engine = TemplateEngine(sources=sources)
        assert engine.render("a.html", {"go": False}) == "x"

    def test_with_bindings_see_earlier_ones(self):
        source = "{% with a=x b=a %}{{ b }}{% endwith %}"
        compiled, interpreted = engine_pair({"a.html": source})
        data = {"x": "v"}
        assert compiled.render("a.html", data) == interpreted.render("a.html", data) == "v"

    def test_callable_values_are_called(self):
        source = "{{ f }}-{{ d.g }}"
        compiled, interpreted = engine_pair({"a.html": source})
        data = {"f": lambda: "A", "d": {"g": lambda: "B"}}
        assert compiled.render("a.html", data) == interpreted.render("a.html", data) == "A-B"

    def test_autoescape_matches_interpreter(self):
        source = "{{ x }}|{{ x|safe }}|{{ n }}"
        compiled, interpreted = engine_pair({"a.html": source})
        data = {"x": "<a href=\"x\">'&'</a>", "n": 3.5}
        assert compiled.render("a.html", data) == interpreted.render("a.html", data)
