"""End-to-end template rendering tests (parser + nodes + engine)."""

import pytest
from hypothesis import given, strategies as st

from repro.templates import (
    Template,
    TemplateEngine,
    TemplateNotFoundError,
    TemplateRenderError,
    TemplateSyntaxError,
)
from tests.templates.interpreter import Interpreter

#: The reference interpreter, for standalone templates (no engine).
ORACLE = Interpreter()


def render(source, data=None, **engine_sources):
    engine = TemplateEngine(sources={"main.html": source, **engine_sources})
    return engine.render("main.html", data or {})


class TestVariables:
    def test_simple_substitution(self):
        assert render("Hello {{ name }}!", {"name": "World"}) == "Hello World!"

    def test_missing_variable_renders_empty(self):
        assert render("[{{ nope }}]") == "[]"

    def test_dotted_lookup(self):
        assert render("{{ a.b }}", {"a": {"b": 7}}) == "7"

    def test_autoescape_on_by_default(self):
        assert render("{{ x }}", {"x": "<b>"}) == "&lt;b&gt;"

    def test_safe_filter_disables_escape(self):
        assert render("{{ x|safe }}", {"x": "<b>"}) == "<b>"

    def test_filter_chain(self):
        assert render("{{ x|lower|capfirst }}", {"x": "HELLO"}) == "Hello"

    def test_filter_with_argument(self):
        assert render("{{ x|floatformat:2 }}", {"x": 3.14159}) == "3.14"

    def test_filter_with_quoted_argument(self):
        assert render('{{ x|default:"none" }}', {}) == "none"

    def test_string_literal_base(self):
        assert render('{{ "lit"|upper }}') == "LIT"

    def test_number_literal(self):
        assert render("{{ 42 }}") == "42"

    def test_none_renders_as_None(self):
        # Django renders None as "None".
        assert render("{{ x }}", {"x": None}) == "None"

    def test_unknown_filter_is_syntax_error(self):
        with pytest.raises(TemplateSyntaxError):
            render("{{ x|nosuchfilter }}")

    def test_pipe_inside_string_not_a_filter(self):
        assert render('{{ "a|b" }}') == "a|b"


class TestForLoop:
    def test_iteration(self):
        assert render(
            "{% for x in xs %}{{ x }},{% endfor %}", {"xs": [1, 2, 3]}
        ) == "1,2,3,"

    def test_forloop_counter(self):
        out = render(
            "{% for x in xs %}{{ forloop.counter }}:{{ forloop.counter0 }} "
            "{% endfor %}",
            {"xs": "ab"},
        )
        assert out == "1:0 2:1 "

    def test_forloop_first_last(self):
        out = render(
            "{% for x in xs %}"
            "{% if forloop.first %}[{% endif %}{{ x }}"
            "{% if forloop.last %}]{% endif %}"
            "{% endfor %}",
            {"xs": [1, 2, 3]},
        )
        assert out == "[123]"

    def test_forloop_revcounter(self):
        out = render(
            "{% for x in xs %}{{ forloop.revcounter }}{% endfor %}",
            {"xs": "abc"},
        )
        assert out == "321"

    def test_empty_clause(self):
        source = "{% for x in xs %}{{ x }}{% empty %}none{% endfor %}"
        assert render(source, {"xs": []}) == "none"
        assert render(source, {"xs": [1]}) == "1"

    def test_missing_iterable_uses_empty(self):
        assert render(
            "{% for x in nope %}x{% empty %}0{% endfor %}"
        ) == "0"

    def test_nested_loops_and_parentloop(self):
        out = render(
            "{% for row in grid %}{% for cell in row %}"
            "{{ forloop.parentloop.counter }}.{{ forloop.counter }} "
            "{% endfor %}{% endfor %}",
            {"grid": [[1, 2], [3]]},
        )
        assert out == "1.1 1.2 2.1 "

    def test_tuple_unpacking(self):
        out = render(
            "{% for k, v in pairs %}{{ k }}={{ v }};{% endfor %}",
            {"pairs": [("a", 1), ("b", 2)]},
        )
        assert out == "a=1;b=2;"

    def test_unpack_mismatch_raises(self):
        with pytest.raises(TemplateRenderError):
            render("{% for a, b in xs %}{% endfor %}", {"xs": [(1, 2, 3)]})

    def test_non_iterable_raises(self):
        with pytest.raises(TemplateRenderError):
            render("{% for x in n %}{% endfor %}", {"n": 42})

    def test_loop_variable_scoped(self):
        assert render(
            "{% for x in xs %}{% endfor %}[{{ x }}]", {"xs": [1]}
        ) == "[]"

    def test_missing_endfor(self):
        with pytest.raises(TemplateSyntaxError):
            render("{% for x in xs %}")

    def test_malformed_for(self):
        with pytest.raises(TemplateSyntaxError):
            render("{% for %}{% endfor %}")


class TestIf:
    def test_truthy(self):
        assert render("{% if x %}yes{% endif %}", {"x": 1}) == "yes"

    def test_falsy(self):
        assert render("{% if x %}yes{% endif %}", {"x": 0}) == ""

    def test_else(self):
        assert render(
            "{% if x %}a{% else %}b{% endif %}", {"x": False}
        ) == "b"

    def test_elif_chain(self):
        source = (
            "{% if x == 1 %}one{% elif x == 2 %}two{% else %}many{% endif %}"
        )
        assert render(source, {"x": 1}) == "one"
        assert render(source, {"x": 2}) == "two"
        assert render(source, {"x": 9}) == "many"

    @pytest.mark.parametrize("op,value,expected", [
        ("==", 5, "y"), ("!=", 5, ""), ("<", 10, "y"), (">", 10, ""),
        ("<=", 5, "y"), (">=", 6, ""),
    ])
    def test_comparisons(self, op, value, expected):
        assert render(
            f"{{% if x {op} {value} %}}y{{% endif %}}", {"x": 5}
        ) == expected

    def test_and_or_not(self):
        source = "{% if a and not b or c %}y{% endif %}"
        assert render(source, {"a": 1, "b": 0, "c": 0}) == "y"
        assert render(source, {"a": 0, "b": 0, "c": 1}) == "y"
        assert render(source, {"a": 1, "b": 1, "c": 0}) == ""

    def test_in_operator(self):
        assert render(
            "{% if x in xs %}y{% endif %}", {"x": 2, "xs": [1, 2]}
        ) == "y"

    def test_not_in_operator(self):
        assert render(
            "{% if x not in xs %}y{% endif %}", {"x": 5, "xs": [1, 2]}
        ) == "y"

    def test_string_comparison(self):
        assert render(
            '{% if kind == "a" %}A{% endif %}', {"kind": "a"}
        ) == "A"

    def test_incomparable_types_false(self):
        assert render(
            "{% if x < y %}y{% else %}n{% endif %}", {"x": 1, "y": "a"}
        ) == "n"

    def test_missing_variable_falsy(self):
        assert render("{% if nope %}y{% else %}n{% endif %}") == "n"

    def test_missing_endif(self):
        with pytest.raises(TemplateSyntaxError):
            render("{% if x %}")

    def test_empty_condition_rejected(self):
        with pytest.raises(TemplateSyntaxError):
            render("{% if %}{% endif %}")

    def test_filter_in_condition(self):
        assert render(
            "{% if xs|length > 2 %}big{% endif %}", {"xs": [1, 2, 3]}
        ) == "big"


class TestIncludeAndComments:
    def test_include(self):
        out = render(
            'A{% include "part.html" %}C',
            {"x": "B"},
            **{"part.html": "{{ x }}"},
        )
        assert out == "ABC"

    def test_include_missing_template(self):
        with pytest.raises(TemplateNotFoundError):
            render('{% include "nope.html" %}')

    def test_include_dynamic_name(self):
        out = render(
            "{% include which %}",
            {"which": "part.html"},
            **{"part.html": "inner"},
        )
        assert out == "inner"

    def test_inline_comment_removed(self):
        assert render("a{# hidden #}b") == "ab"

    def test_block_comment_removed(self):
        assert render("a{% comment %}x {{ y }} z{% endcomment %}b") == "ab"

    def test_unknown_tag_rejected(self):
        with pytest.raises(TemplateSyntaxError):
            render("{% blink %}")


class TestWith:
    def test_binds_value(self):
        assert render(
            "{% with total=xs|length %}{{ total }}{% endwith %}",
            {"xs": [1, 2]},
        ) == "2"

    def test_scope_ends(self):
        assert render(
            "{% with v=1 %}{% endwith %}[{{ v }}]"
        ) == "[]"

    def test_multiple_bindings(self):
        assert render(
            "{% with a=1 b=2 %}{{ a }}{{ b }}{% endwith %}"
        ) == "12"

    def test_malformed_binding(self):
        with pytest.raises(TemplateSyntaxError):
            render("{% with novalue %}{% endwith %}")


class TestEngine:
    def test_cache_returns_same_object(self):
        engine = TemplateEngine(sources={"t.html": "x"})
        assert engine.get_template("t.html") is engine.get_template("t.html")

    def test_add_source_invalidates(self):
        engine = TemplateEngine(sources={"t.html": "old"})
        engine.render("t.html")
        engine.add_source("t.html", "new")
        assert engine.render("t.html") == "new"

    def test_invalidate_all(self):
        engine = TemplateEngine(sources={"t.html": "a"})
        first = engine.get_template("t.html")
        engine.invalidate()
        assert engine.get_template("t.html") is not first

    def test_missing_template(self):
        with pytest.raises(TemplateNotFoundError):
            TemplateEngine().get_template("missing.html")

    def test_directory_loading(self, tmp_path):
        (tmp_path / "disk.html").write_text("from disk: {{ x }}")
        engine = TemplateEngine(directory=str(tmp_path))
        assert engine.render("disk.html", {"x": 1}) == "from disk: 1"

    def test_directory_traversal_refused(self, tmp_path):
        secret_dir = tmp_path / "private"
        secret_dir.mkdir()
        (secret_dir / "secret.html").write_text("secret")
        public = tmp_path / "public"
        public.mkdir()
        engine = TemplateEngine(directory=str(public))
        with pytest.raises(TemplateNotFoundError):
            engine.get_template("../private/secret.html")

    def test_template_standalone(self):
        assert Template("{{ a }}").render({"a": 1}) == "1"


class TestProperties:
    @given(st.text(alphabet=st.characters(
        blacklist_characters="{%}#"), max_size=80))
    def test_plain_text_roundtrips(self, text):
        template = Template(text)
        assert template.render({}) == text
        assert ORACLE.render_template(template, {}) == text

    @given(st.dictionaries(
        st.text(alphabet="abcdefg", min_size=1, max_size=6),
        st.integers(min_value=-1000, max_value=1000),
        min_size=1, max_size=5,
    ))
    def test_variables_render_their_values(self, data):
        name = sorted(data)[0]
        template = Template(f"{{{{ {name} }}}}")
        assert template.render(data) == str(data[name])
        assert ORACLE.render_template(template, data) == str(data[name])

    @given(st.text(max_size=60))
    def test_escaped_output_has_no_raw_angle_brackets(self, value):
        template = Template("{{ x }}")
        out = template.render({"x": value})
        assert out == ORACLE.render_template(template, {"x": value})
        assert "<" not in out
        assert ">" not in out
