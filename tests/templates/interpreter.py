"""Reference node-walk interpreter: the test oracle for the compiler.

Templates render only through compiled functions
(:mod:`repro.templates.compiler`).  This module walks the same parsed
node tree directly, one node at a time, and defines what that output
must be: the equivalence tests and the render benchmark compare the
compiled path against it byte for byte, error messages included.

It never calls compiled code.  Include and extends targets are parsed
from the engine's template sources and walked here too; block overrides
travel in the context's ``__blocks__`` registry as node lists.  The
``{% cache %}`` tag shares the runtime
:func:`~repro.templates.fragcache.render_fragment` with compiled code,
so the cache semantics themselves are tested directly in
``test_fragcache.py``.
"""

from typing import Any, Dict, List, Optional

from repro.templates.context import Context
from repro.templates.errors import TemplateRenderError
from repro.templates.filters import SafeString, escape_html
from repro.templates.fragcache import render_fragment
from repro.templates.nodes import (
    BlockNode,
    CacheNode,
    ExtendsNode,
    ForLoopInfo,
    ForNode,
    IfNode,
    IncludeNode,
    Node,
    TextNode,
    VariableNode,
    WithNode,
)
from repro.templates.parser import TemplateParser


class Interpreter:
    """Render templates by walking their node trees.

    ``render(name, data)`` mirrors :meth:`TemplateEngine.render` for the
    engine's templates; parsed trees are cached per name, as the engine
    caches compiled templates, so timings compare rendering alone.
    ``render_template`` walks a standalone :class:`Template`'s tree.
    """

    def __init__(self, engine=None):
        self.engine = engine
        self._trees: Dict[str, List[Node]] = {}
        self._dispatch = {
            TextNode: self._text,
            VariableNode: self._variable,
            ForNode: self._for,
            IfNode: self._if,
            WithNode: self._with,
            IncludeNode: self._include,
            BlockNode: self._block,
            ExtendsNode: self._extends,
            CacheNode: self._cache,
        }

    def nodes(self, name: str) -> List[Node]:
        tree = self._trees.get(name)
        if tree is None:
            source = self.engine._load_source(name)
            tree = TemplateParser(source, name, self.engine).parse()
            self._trees[name] = tree
        return tree

    def render(self, name: str, data: Optional[Dict[str, Any]] = None) -> str:
        return self.render_nodes(self.nodes(name), data)

    def render_template(self, template, data: Optional[Dict[str, Any]] = None,
                        autoescape: bool = True) -> str:
        return self.render_nodes(template.nodes, data, autoescape)

    def render_nodes(self, nodes: List[Node], data,
                     autoescape: bool = True) -> str:
        context = data if isinstance(data, Context) else Context(data, autoescape)
        parts: List[str] = []
        self.walk(nodes, context, parts)
        return "".join(parts)

    def walk(self, nodes: List[Node], context: Context, parts: List[str]) -> None:
        dispatch = self._dispatch
        for node in nodes:
            dispatch[type(node)](node, context, parts)

    def _text(self, node: TextNode, context, parts) -> None:
        parts.append(node.text)

    def _variable(self, node: VariableNode, context, parts) -> None:
        value = node.expression.resolve(context, default="")
        if value is None:
            value = "None"
        if context.autoescape and not isinstance(value, SafeString):
            parts.append(escape_html(value))
        else:
            parts.append(value if isinstance(value, str) else str(value))

    def _for(self, node: ForNode, context, parts) -> None:
        values = node.iterable.resolve(context, default=None)
        if values is None:
            items: List[Any] = []
        else:
            try:
                items = list(values)
            except TypeError:
                raise TemplateRenderError(
                    f"{node.iterable.expression!r} is not iterable in {{% for %}}"
                )
        if not items:
            self.walk(node.empty_body, context, parts)
            return
        parentloop = context.get("forloop")
        total = len(items)
        context.push()
        try:
            for index, item in enumerate(items):
                context["forloop"] = ForLoopInfo(index, total, parentloop)
                _bind(node.loop_vars, context, item)
                self.walk(node.body, context, parts)
        finally:
            context.pop()

    def _if(self, node: IfNode, context, parts) -> None:
        for condition, body in node.branches:
            if condition.evaluate(context):
                self.walk(body, context, parts)
                return
        self.walk(node.else_body, context, parts)

    def _with(self, node: WithNode, context, parts) -> None:
        context.push()
        try:
            for name, expression in node.bindings:
                context[name] = expression.resolve(context, default=None)
            self.walk(node.body, context, parts)
        finally:
            context.pop()

    def _include(self, node: IncludeNode, context, parts) -> None:
        name = node.template_name.resolve(context, default=None)
        if not name:
            raise TemplateRenderError(
                f"{{% include %}} name {node.template_name.expression!r} "
                f"resolved to nothing"
            )
        self.walk(self.nodes(str(name)), context, parts)

    def _block(self, node: BlockNode, context, parts) -> None:
        overrides = context.get("__blocks__")
        body = node.body
        if overrides and node.name in overrides:
            body = overrides[node.name]
        self.walk(body, context, parts)

    def _extends(self, node: ExtendsNode, context, parts) -> None:
        name = node.parent_name.resolve(context, default=None)
        if not name:
            raise TemplateRenderError(
                f"{{% extends %}} name {node.parent_name.expression!r} "
                f"resolved to nothing"
            )
        parent = self.nodes(str(name))
        # Merge: inner (child) overrides win over any already present
        # (grandchild beats child in a 3-level chain).
        existing = context.get("__blocks__") or {}
        merged = dict(node.blocks)
        merged.update(existing)
        context.push({"__blocks__": merged})
        try:
            self.walk(parent, context, parts)
        finally:
            context.pop()

    def _cache(self, node: CacheNode, context, parts) -> None:
        render_fragment(
            node.engine, context, parts,
            lambda ctx, out: self.walk(node.body, ctx, out),
            node.key, node.timeout, node.vary,
        )


def _bind(loop_vars: List[str], context: Context, item: Any) -> None:
    if len(loop_vars) == 1:
        context[loop_vars[0]] = item
        return
    try:
        unpacked = tuple(item)
    except TypeError:
        raise TemplateRenderError(
            f"cannot unpack non-sequence into {loop_vars!r}"
        )
    if len(unpacked) != len(loop_vars):
        raise TemplateRenderError(
            f"cannot unpack {len(unpacked)} values into "
            f"{len(loop_vars)} loop variables {loop_vars!r}"
        )
    for name, value in zip(loop_vars, unpacked):
        context[name] = value
