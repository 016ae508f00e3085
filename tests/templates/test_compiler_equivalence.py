"""Compiled rendering must be byte-identical to the reference interpreter.

Two layers: every TPC-W page rendered through its real handler data,
and hypothesis-generated random templates over random data.  The
oracle (``tests/templates/interpreter.py``) walks the parsed node tree
and never runs compiled code, so a codegen bug shows as a mismatch.
"""

import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.templates import TemplateEngine, TemplateSyntaxError
from repro.tpcw.templates_source import TEMPLATES
from tests.templates.interpreter import Interpreter


def compiled_engine(sources):
    """An engine with every source loaded (and so compiled) up front."""
    engine = TemplateEngine(sources=dict(sources))
    for name in sources:
        engine.get_template(name)
    return engine


class TestTPCWEquivalence:
    def test_every_tpcw_template_compiles(self):
        compiled_engine(TEMPLATES)

    def test_every_route_renders_identically(self, tpcw_app):
        compiled = compiled_engine(TEMPLATES)
        interpreted = Interpreter(TemplateEngine(sources=dict(TEMPLATES)))
        exercised = set()
        for path, handler in sorted(tpcw_app.routes.items()):
            name, data = handler()
            exercised.add(name)
            assert compiled.render(name, data) == interpreted.render(name, data), path
        # Every page template is driven directly; base.html and
        # item_row.html are exercised through extends/include.
        assert exercised == set(TEMPLATES) - {"base.html", "item_row.html"}


# ----------------------------------------------------------------------
# Randomized templates
# ----------------------------------------------------------------------
VARIABLES = ["alpha", "beta", "gamma", "row", "row.name", "row.n", "missing"]
FILTERS = ["upper", "lower", "capfirst", "default:'d'", "floatformat:2",
           "length", "urlencode"]

text = st.text(alphabet=string.ascii_letters + " <>&'\"{}%.,!", min_size=0,
               max_size=12).map(
    # Avoid accidentally opening a template tag.
    lambda s: s.replace("{%", "(").replace("{{", "(").replace("{#", "(")
)
variable_tag = st.builds(
    lambda name, filters: "{{ %s }}" % "|".join([name] + filters),
    st.sampled_from(VARIABLES),
    st.lists(st.sampled_from(FILTERS), max_size=2),
)


def wrap_for(body):
    return "{%% for row in rows %%}%s{{ forloop.counter }}{%% endfor %%}" % body


def wrap_if(body):
    return "{%% if alpha %%}%s{%% else %%}E{%% endif %%}" % body


def wrap_with(body):
    return "{%% with beta=alpha %%}%s{%% endwith %%}" % body


fragments = st.recursive(
    st.one_of(text, variable_tag),
    lambda children: st.builds(
        lambda parts, wrapper: wrapper("".join(parts)),
        st.lists(children, min_size=1, max_size=3),
        st.sampled_from([wrap_for, wrap_if, wrap_with]),
    ),
    max_leaves=8,
)
template_sources = st.lists(fragments, max_size=5).map("".join)

data_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-1000, 1000),
    st.floats(-100, 100, allow_nan=False),
    st.text(alphabet=string.printable, max_size=10),
)


@st.composite
def template_data(draw):
    return {
        "alpha": draw(data_values),
        "beta": draw(data_values),
        "gamma": draw(data_values),
        "rows": draw(st.lists(
            st.fixed_dictionaries({"name": data_values, "n": data_values}),
            max_size=3,
        )),
    }


def _outcome(make_engine, name, data):
    """Render result, or the error both renderers must agree on.  Random
    sources may be syntactically invalid; both must then raise the same
    syntax error (at load time, before any rendering)."""
    try:
        return ("ok", make_engine().render(name, dict(data)))
    except TemplateSyntaxError as exc:
        return ("syntax", str(exc))
    except Exception as exc:
        return ("err", type(exc).__name__, str(exc))


@settings(max_examples=150, deadline=None)
@given(source=template_sources, data=template_data())
def test_random_templates_render_identically(source, data):
    sources = {"t.html": source}
    compiled = _outcome(lambda: compiled_engine(sources), "t.html", data)
    interpreted = _outcome(
        lambda: Interpreter(TemplateEngine(sources=sources)), "t.html", data
    )
    assert compiled == interpreted


@settings(max_examples=60, deadline=None)
@given(source=template_sources, data=template_data())
def test_random_templates_with_inheritance(source, data):
    sources = {
        "base.html": "A{% block one %}1{% endblock %}B{% block two %}2{% endblock %}C",
        "child.html": (
            "{% extends 'base.html' %}"
            "{% block one %}" + source + "{% endblock %}"
        ),
    }
    compiled = _outcome(lambda: compiled_engine(sources), "child.html", data)
    interpreted = _outcome(
        lambda: Interpreter(TemplateEngine(sources=dict(sources))),
        "child.html", data,
    )
    assert compiled == interpreted
