"""SQL executor: compiles parsed statements into immutable plans.

A statement compiles once (the engine caches the plan per schema
version) into a tree of Python closures.  Column references resolve at
compile time to a fixed ``(alias position, column)``, so evaluating a
row is a chain of closure calls over a tuple of row dicts, with no AST
dispatch and no name search.  Plans are simple but cost-faithful:
equality predicates on indexed columns become index probes; everything
else scans.  Every elementary operation is charged to the
:class:`~repro.db.cost.CostModel` — in bulk, one ``charge`` per operator
with the same counts a row-at-a-time charge would give — which is how
the TPC-W fast/slow page dichotomy emerges.

A plan holds no mutable state: parameters, the undo log, the statement's
accumulated cost and materialised ``IN (SELECT ...)`` sets live in an
:class:`ExecutionContext` made per call, so any number of connections
may run one plan at once.

Errors surface where row-at-a-time evaluation meets them: a reference
that cannot be resolved compiles to a closure that raises when a row
reaches it (an empty scan never raises), and a statement naming an
unknown table raises at the step that would read it.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
import re
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.db.cost import CostModel
from repro.db.errors import ColumnError, ProgrammingError, SQLSyntaxError, TableError
from repro.db.sql.ast import (
    Between,
    BinaryOp,
    ColumnRef,
    Delete,
    Expression,
    FuncCall,
    InList,
    Insert,
    InSubquery,
    IsNull,
    Like,
    Literal,
    Placeholder,
    Select,
    Statement,
    UnaryOp,
    Update,
)
from repro.db.table import Table

#: One row dict per table alias, in FROM/JOIN order.
Env = Tuple[Dict[str, Any], ...]
#: Compile-time view of an Env: ``(alias, table)`` per position.
Scope = Tuple[Tuple[str, Table], ...]


@dataclasses.dataclass
class ResultSet:
    """The outcome of one statement."""

    columns: List[str] = dataclasses.field(default_factory=list)
    rows: List[Tuple] = dataclasses.field(default_factory=list)
    rowcount: int = 0
    lastrowid: Optional[int] = None

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)


class ExecutionContext:
    """Everything one execution of a plan may write."""

    __slots__ = ("params", "undo", "cost", "subqueries", "_model")

    def __init__(self, params: Sequence[Any], cost_model: CostModel,
                 undo=None):
        self.params = params
        self.undo = undo  # the active transaction's UndoLog, if any
        self.cost = 0.0
        #: Materialised IN (SELECT ...) sets by their slot in the plan.
        self.subqueries: Dict[int, frozenset] = {}
        self._model = cost_model

    def charge(self, operation: str, count: int = 1) -> None:
        if count:
            self.cost += self._model.charge(operation, count)


#: A compiled statement: runs against one context.
Plan = Callable[[ExecutionContext], ResultSet]


def run_plan(plan: Plan, params: Sequence[Any], cost_model: CostModel,
             undo=None) -> ResultSet:
    """Run ``plan`` once and settle its cost with the model."""
    context = ExecutionContext(params, cost_model, undo)
    context.charge("statement")
    result = plan(context)
    cost_model.settle(context.cost)
    return result


def compile_statement(statement: Statement, tables: Dict[str, Table]) -> Plan:
    """Compile a SELECT, INSERT, UPDATE or DELETE against ``tables``."""
    return _Compiler(tables).statement(statement)


@functools.lru_cache(maxsize=4096)
def _like_regex(pattern: str) -> "re.Pattern[str]":
    regex = re.escape(pattern).replace("%", ".*").replace("_", ".")
    return re.compile(f"^{regex}$", re.IGNORECASE | re.DOTALL)


def _fail(error: type, message: str) -> Callable[..., Any]:
    """A closure that raises ``error(message)`` whenever it is called."""
    def fail(*_args):
        raise error(message)
    return fail


# ----------------------------------------------------------------------
# Value-level operators, shared by row and grouped evaluation
# ----------------------------------------------------------------------

def _coerce_pair(left: Any, right: Any) -> Tuple[Any, Any]:
    """MySQL-flavoured implicit coercion for comparisons: a number and a
    numeric string compare numerically."""
    if isinstance(left, str) and isinstance(right, (int, float)):
        try:
            return float(left), float(right)
        except ValueError:
            return left, str(right)
    if isinstance(right, str) and isinstance(left, (int, float)):
        try:
            return float(left), float(right)
        except ValueError:
            return str(left), right
    return left, right


def _comparison(op: Callable[[Any, Any], Any]) -> Callable[[Any, Any], Any]:
    def compare(left, right):
        # NULL never compares true.
        if left is None or right is None:
            return False
        if left.__class__ is not right.__class__:
            left, right = _coerce_pair(left, right)
        try:
            return op(left, right)
        except TypeError:
            return False
    return compare


def _arithmetic(op: Callable[[Any, Any], Any]) -> Callable[[Any, Any], Any]:
    def arithmetic(left, right):
        if left is None or right is None:
            return None
        return op(left, right)
    return arithmetic


def _divide(left, right):
    if left is None or right is None or right == 0:
        return None  # MySQL: division by zero yields NULL
    return left / right


_BINARY = {
    "=": _comparison(operator.eq),
    "<>": _comparison(operator.ne),
    "<": _comparison(operator.lt),
    ">": _comparison(operator.gt),
    "<=": _comparison(operator.le),
    ">=": _comparison(operator.ge),
    "+": _arithmetic(operator.add),
    "-": _arithmetic(operator.sub),
    "*": _arithmetic(operator.mul),
    "/": _divide,
}


def _average(values):
    return sum(values) / len(values)


_AGGREGATES = {"COUNT": len, "SUM": sum, "AVG": _average,
               "MIN": min, "MAX": max}


def _rank(value: Any) -> Tuple:
    """Sort rank: NULLs first, then numbers, then everything as text."""
    if value is None:
        return (0, 0)
    if isinstance(value, (int, float)):
        return (1, value)
    return (2, str(value))


_NUMERIC_TYPES = ("INT", "INTEGER", "BIGINT", "FLOAT", "DOUBLE", "DECIMAL",
                  "NUMERIC")


def _coerce_for_column(base_type: str, value: Any) -> Any:
    """Coerce a literal toward a column's type for exact index lookup.

    MySQL compares a numeric string against an integer column
    numerically; hash indexes need the coercion applied before probing
    (``WHERE i_id = '3'`` must hit the row whose i_id is 3).
    """
    if isinstance(value, str) and base_type in _NUMERIC_TYPES:
        try:
            numeric = float(value)
        except ValueError:
            return value
        if base_type in ("INT", "INTEGER", "BIGINT") and numeric.is_integer():
            return int(numeric)
        return numeric
    if isinstance(value, (int, float)) and base_type in ("VARCHAR", "CHAR", "TEXT"):
        return str(value)
    return value


# ----------------------------------------------------------------------
# The compiler
# ----------------------------------------------------------------------

class _Compiler:
    """Compiles one statement; discarded once the plan is built."""

    def __init__(self, tables: Dict[str, Table]):
        self._tables = tables
        #: id(InSubquery node) -> its slot, so a node compiled twice
        #: (row and empty-group forms) still materialises once.
        self._slots: Dict[int, int] = {}

    def statement(self, statement: Statement) -> Plan:
        if isinstance(statement, Select):
            return self.select(statement)
        if isinstance(statement, Insert):
            return self.insert(statement)
        if isinstance(statement, (Update, Delete)):
            return self.write(statement)
        return _fail(ProgrammingError,
                     f"cannot execute {type(statement).__name__}")

    # -- expressions ----------------------------------------------------
    def expr(self, expr: Expression, scope: Scope,
             grouped: bool = False) -> Callable[..., Any]:
        """``fn(env, ctx)`` evaluating ``expr`` over one row of ``scope``.

        ``grouped`` compiles ``fn(group, ctx)`` over a list of envs
        instead: aggregates reduce over the group and any other operand
        of the arithmetic/logic reads the group's first row (MySQL's
        permissive ONLY_FULL_GROUP_BY-off behaviour)."""
        if grouped and not isinstance(expr, (BinaryOp, UnaryOp)):
            if isinstance(expr, FuncCall):
                return self.aggregate(expr, scope)
            return self.first_row(expr, scope)
        if isinstance(expr, Literal):
            value = expr.value
            return lambda env, ctx: value
        if isinstance(expr, Placeholder):
            index = expr.index

            def placeholder(env, ctx):
                try:
                    return ctx.params[index]
                except IndexError:
                    raise ProgrammingError(
                        f"statement requires at least {index + 1} "
                        f"parameters, got {len(ctx.params)}"
                    ) from None
            return placeholder
        if isinstance(expr, ColumnRef):
            return self.column(expr, scope)
        if isinstance(expr, BinaryOp):
            left = self.expr(expr.left, scope, grouped)
            right = self.expr(expr.right, scope, grouped)
            if expr.op == "AND":
                return lambda env, ctx: bool(left(env, ctx) and right(env, ctx))
            if expr.op == "OR":
                return lambda env, ctx: bool(left(env, ctx) or right(env, ctx))
            apply = _BINARY[expr.op]
            return lambda env, ctx: apply(left(env, ctx), right(env, ctx))
        if isinstance(expr, UnaryOp):
            operand = self.expr(expr.operand, scope, grouped)
            if expr.op == "NOT":
                return lambda env, ctx: not operand(env, ctx)

            def negate(env, ctx):
                value = operand(env, ctx)
                return None if value is None else -value
            return negate
        if isinstance(expr, InSubquery):
            return self.in_subquery(expr, scope)
        if isinstance(expr, InList):
            operand = self.expr(expr.operand, scope)
            options = tuple(self.expr(option, scope) for option in expr.options)
            negated = expr.negated

            def in_list(env, ctx):
                value = operand(env, ctx)
                if value is None:
                    return False
                return (value in [option(env, ctx) for option in options]) != negated
            return in_list
        if isinstance(expr, Like):
            operand = self.expr(expr.operand, scope)
            pattern = self.expr(expr.pattern, scope)
            negated = expr.negated

            def like(env, ctx):
                value = operand(env, ctx)
                text = pattern(env, ctx)
                if value is None or text is None:
                    return False
                matched = _like_regex(str(text)).match(str(value)) is not None
                return matched != negated
            return like
        if isinstance(expr, Between):
            operand = self.expr(expr.operand, scope)
            low = self.expr(expr.low, scope)
            high = self.expr(expr.high, scope)
            negated = expr.negated

            def between(env, ctx):
                value, lo, hi = operand(env, ctx), low(env, ctx), high(env, ctx)
                if value is None or lo is None or hi is None:
                    return False
                return (lo <= value <= hi) != negated
            return between
        if isinstance(expr, IsNull):
            operand = self.expr(expr.operand, scope)
            negated = expr.negated
            return lambda env, ctx: (operand(env, ctx) is None) != negated
        if isinstance(expr, FuncCall):
            return _fail(ProgrammingError,
                         f"aggregate {expr.name} used outside SELECT projections")
        return _fail(ProgrammingError, f"cannot evaluate {type(expr).__name__}")

    def column(self, ref: ColumnRef, scope: Scope):
        """Reads a fixed ``(alias position, column)`` of the env, or
        raises, when called, the ColumnError an unresolvable reference
        gets."""
        name = ref.name
        if ref.table is not None:
            positions = [i for i, (alias, _) in enumerate(scope)
                         if alias == ref.table]
            if not positions:
                return _fail(ColumnError,
                             f"unknown table alias {ref.table!r} in {ref}")
            if not scope[positions[0]][1].has_column(name):
                return _fail(ColumnError,
                             f"no column {name!r} in alias {ref.table!r}")
            position = positions[0]
        else:
            matches = [(i, alias) for i, (alias, table) in enumerate(scope)
                       if table.has_column(name)]
            if not matches:
                return _fail(ColumnError, f"unknown column {name!r}")
            if len(matches) > 1:
                aliases = sorted(alias for _, alias in matches)
                return _fail(ColumnError,
                             f"ambiguous column {name!r} (in {aliases})")
            position = matches[0][0]
        return lambda env, ctx: env[position][name]

    def in_subquery(self, expr: InSubquery, scope: Scope):
        operand = self.expr(expr.operand, scope)
        negated = expr.negated
        slot = self._slots.setdefault(id(expr), len(self._slots))
        subquery = self.select(expr.subquery)

        def materialise(ctx: ExecutionContext) -> frozenset:
            result = subquery(ctx)
            if result.rows and len(result.rows[0]) != 1:
                raise ProgrammingError(
                    "IN (SELECT ...) subquery must project exactly one column"
                )
            members = ctx.subqueries[slot] = frozenset(
                row[0] for row in result.rows
            )
            return members

        def in_subquery(env, ctx):
            value = operand(env, ctx)
            if value is None:
                return False
            members = ctx.subqueries.get(slot)
            if members is None:
                members = materialise(ctx)
            return (value in members) != negated
        return in_subquery

    def first_row(self, expr: Expression, scope: Scope):
        on_row = self.expr(expr, scope)
        # An empty group (aggregates over no rows) has no first row:
        # its bare columns resolve against no tables at all.
        on_nothing = self.expr(expr, ())

        def first_row(group, ctx):
            if group:
                return on_row(group[0], ctx)
            return on_nothing((), ctx)
        return first_row

    def aggregate(self, call: FuncCall, scope: Scope):
        if call.star:
            return lambda group, ctx: len(group)
        argument = self.expr(call.argument, scope)
        reduce = _AGGREGATES[call.name]
        distinct = call.distinct
        empty = 0 if call.name == "COUNT" else None

        def aggregate(group, ctx):
            values = [value for value in [argument(env, ctx) for env in group]
                      if value is not None]
            if distinct:
                values = list(dict.fromkeys(values))
            if not values:
                return empty
            return reduce(values)
        return aggregate

    # -- SELECT -------------------------------------------------------------
    def select(self, select: Select) -> Plan:
        source, scope = self.source(select)
        if scope is None:
            return source  # raises at the step that names a missing table
        where = self.expr(select.where, scope) if select.where is not None else None
        grouped = bool(select.group_by) or any(
            _contains_aggregate(item.expression)
            for item in select.items if not item.star
        )
        columns, project = self.projection(select, scope, grouped)
        distinct = select.distinct
        order = self.ordering(select, scope, columns, grouped)
        offset = self.expr(select.offset, ()) if select.offset is not None else None
        limit = self.expr(select.limit, ()) if select.limit is not None else None

        def run(ctx: ExecutionContext) -> ResultSet:
            envs = source(ctx)
            if where is not None:
                envs = [env for env in envs if where(env, ctx)]
            rows, envs = project(envs, ctx)
            if distinct:
                seen = set()
                keep = []
                for i, row in enumerate(rows):
                    if row not in seen:
                        seen.add(row)
                        keep.append(i)
                rows = [rows[i] for i in keep]
                if envs is not None:
                    envs = [envs[i] for i in keep]
            if order is not None:
                ctx.charge("row_sort", len(rows))
                rows = order(rows, envs, ctx)
            skip = offset((), ctx) if offset is not None else 0
            count = limit((), ctx) if limit is not None else None
            if skip:
                rows = rows[int(skip):]
            if count is not None:
                rows = rows[:int(count)]
            ctx.charge("row_emit", len(rows))
            return ResultSet(columns=list(columns), rows=rows,
                             rowcount=len(rows))
        return run

    def source(self, select: Select):
        """``(fn(ctx) -> envs, scope)``; scope is None when the source
        can only raise."""
        if select.table is None:
            return (lambda ctx: [()]), ()
        base = self._tables.get(select.table)
        if base is None:
            return _fail(TableError, f"no such table: {select.table!r}"), None
        aliases = [select.alias or select.table]
        for join in select.joins:
            if join.alias in aliases:
                return _fail(SQLSyntaxError,
                             f"duplicate table alias {join.alias!r}"), None
            aliases.append(join.alias)
        scope: Scope = ((aliases[0], base),)
        steps = [self.base_rows(base, aliases[0], select.where)]
        for join in select.joins:
            step, table = self.join(join, scope)
            steps.append(step)
            if table is None:
                scope = None  # the step raises, so nothing after it runs
                break
            scope += ((join.alias, table),)
        first, joins = steps[0], tuple(steps[1:])

        def source(ctx):
            envs = first(ctx)
            for join_step in joins:
                envs = join_step(envs, ctx)
            return envs
        return source, scope

    def index_probe(self, table: Table, alias: str,
                    where: Optional[Expression]):
        """``col = constant`` among top-level AND conjuncts where ``col``
        is an indexed column of this table, as ``fn(ctx) -> row ids``."""
        for conjunct in _conjuncts(where):
            if not isinstance(conjunct, BinaryOp) or conjunct.op != "=":
                continue
            for ref_side, value_side in (
                (conjunct.left, conjunct.right),
                (conjunct.right, conjunct.left),
            ):
                if not isinstance(ref_side, ColumnRef):
                    continue
                if ref_side.table is not None and ref_side.table != alias:
                    continue
                if not table.has_column(ref_side.name):
                    continue
                if not isinstance(value_side, (Literal, Placeholder)):
                    continue
                index = table.index_on(ref_side.name)
                if index is None:
                    continue
                value = self.expr(value_side, ())
                base_type = table.column(ref_side.name).base_type

                def probe(ctx):
                    key = _coerce_for_column(base_type, value((), ctx))
                    ctx.charge("index_probe")
                    row_ids = index.lookup(key)
                    ctx.charge("index_row", len(row_ids))
                    return row_ids
                return probe
        return None

    def base_rows(self, table: Table, alias: str, where: Optional[Expression]):
        """Rows of the driving table, via index when the WHERE clause has
        a usable top-level equality conjunct, else a charged full scan."""
        probe = self.index_probe(table, alias, where)
        if probe is not None:
            def probed(ctx):
                rows = table.rows
                return [(rows[row_id],) for row_id in probe(ctx)
                        if row_id in rows]
            return probed

        def scan(ctx):
            rows = list(table.rows.values())
            ctx.charge("row_scan", len(rows))
            return [(row,) for row in rows]
        return scan

    def join(self, join, scope: Scope):
        """``(fn(envs, ctx) -> envs, joined table)``; the table is None
        when the step can only raise."""
        table = self._tables.get(join.table)
        if table is None:
            return _fail(TableError, f"no such table: {join.table!r}"), None
        # Determine which side of ON belongs to the joined table.
        if join.left.table == join.alias:
            inner_col, outer_ref = join.left.name, join.right
        elif join.right.table == join.alias:
            inner_col, outer_ref = join.right.name, join.left
        elif table.has_column(join.left.name) and join.left.table is None:
            inner_col, outer_ref = join.left.name, join.right
        elif table.has_column(join.right.name) and join.right.table is None:
            inner_col, outer_ref = join.right.name, join.left
        else:
            return _fail(SQLSyntaxError, "cannot attribute ON columns of "
                         f"join to {join.alias!r}"), None
        if not table.has_column(inner_col):
            return _fail(ColumnError, f"join table {join.table!r} has no "
                         f"column {inner_col!r}"), None
        null_row = {name: None for name in table.column_names}
        outer_join = join.outer
        index = table.index_on(inner_col)
        outer = self.column(outer_ref, scope)

        def join_step(envs, ctx):
            rows = table.rows
            if index is None:
                # One scan of the joined table builds a transient hash
                # table.  Snapshot first: concurrent inserts (MyISAM-style
                # shared lock) may grow the dict while we iterate.
                snapshot = list(rows.values())
                ctx.charge("row_scan", len(snapshot))
                buckets: Dict[Any, List[Dict[str, Any]]] = {}
                for row in snapshot:
                    buckets.setdefault(row[inner_col], []).append(row)
            else:
                lookup = index.lookup
            joined = []
            append = joined.append
            matched = 0
            for env in envs:
                value = outer(env, ctx)
                if value is None:
                    matches = ()
                elif index is None:
                    matches = buckets.get(value, ())
                else:
                    matches = [rows[row_id] for row_id in lookup(value)
                               if row_id in rows]
                if matches:
                    matched += len(matches)
                    for match in matches:
                        append(env + (match,))
                elif outer_join:
                    append(env + (null_row,))
            if index is None:
                ctx.charge("join_probe", len(envs))
                ctx.charge("row_emit", matched)
            else:
                ctx.charge("index_probe", len(envs))
                ctx.charge("index_row", matched)
            return joined
        return join_step, table

    # -- projection -----------------------------------------------------
    def projection(self, select: Select, scope: Scope, grouped: bool):
        """``(output columns, fn(envs, ctx) -> (rows, envs or None))``."""
        columns: List[str] = []
        getters = []
        for item in select.items:
            if not item.star:
                columns.append(item.alias or _expression_label(item.expression))
                if not grouped:
                    getters.append(self.expr(item.expression, scope))
                continue
            positions = [i for i, (alias, _) in enumerate(scope)
                         if item.star_table in (None, alias)]
            if item.star_table is not None and not positions:
                message = f"unknown alias {item.star_table!r} in star projection"
                return columns, _fail(ColumnError, message)
            for position in positions:
                for name in scope[position][1].column_names:
                    columns.append(name)
                    getters.append(
                        lambda env, ctx, p=position, n=name: env[p][n]
                    )
        if grouped:
            return columns, self.grouping(select, scope)
        getters = tuple(getters)

        def project(envs, ctx):
            rows = [tuple([get(env, ctx) for get in getters]) for env in envs]
            return rows, envs
        return columns, project

    def grouping(self, select: Select, scope: Scope):
        keys = tuple(self.expr(expr, scope) for expr in select.group_by)
        having = (self.expr(select.having, scope, grouped=True)
                  if select.having is not None else None)
        items = tuple(
            _fail(SQLSyntaxError,
                  "SELECT * cannot be combined with GROUP BY/aggregates")
            if item.star else self.expr(item.expression, scope, grouped=True)
            for item in select.items
        )

        def project(envs, ctx):
            if keys:
                groups: Dict[Tuple, List[Env]] = {}
                for env in envs:
                    key = tuple([get(env, ctx) for get in keys])
                    group = groups.get(key)
                    if group is None:
                        groups[key] = [env]
                    else:
                        group.append(env)
                ctx.charge("row_group", len(envs))
                all_groups = list(groups.values())
            else:
                # Aggregates without GROUP BY: one group of everything
                # (COUNT(*) over an empty table still yields a row).
                ctx.charge("row_group", len(envs))
                all_groups = [envs]
            rows = []
            for group in all_groups:
                if having is not None and not having(group, ctx):
                    continue
                rows.append(tuple([item(group, ctx) for item in items]))
            return rows, None
        return project

    # -- ordering ---------------------------------------------------------
    def ordering(self, select: Select, scope: Scope, columns: List[str],
                 grouped: bool):
        """``fn(rows, envs, ctx) -> rows``: a stable sort, one pass per
        ORDER BY key from last to first, on precomputed ranks."""
        if not select.order_by:
            return None
        column_positions = {name: i for i, name in enumerate(columns)}
        keys = []
        for item in select.order_by:
            expr = item.expression
            if (isinstance(expr, ColumnRef) and expr.table is None
                    and expr.name in column_positions):
                position = column_positions[expr.name]
                key = lambda row, env, ctx, p=position: row[p]
            elif isinstance(expr, Literal) and isinstance(expr.value, int):
                # ORDER BY 2 → second output column (1-based)
                position = expr.value - 1
                if 0 <= position < len(columns):
                    key = lambda row, env, ctx, p=position: row[p]
                else:
                    key = lambda row, env, ctx: None
            elif not grouped:
                value = self.expr(expr, scope)
                key = lambda row, env, ctx, value=value: value(env, ctx)
            else:
                key = _fail(ColumnError,
                            f"ORDER BY expression {expr!r} does not name an "
                            f"output column of a grouped query")
            keys.append((key, not item.ascending))
        passes = tuple(reversed(keys))

        def order(rows, envs, ctx):
            if envs is None:
                envs = rows  # grouped keys never read their env
            positions = list(range(len(rows)))
            for key, descending in passes:
                values = [key(row, env, ctx) for row, env in zip(rows, envs)]
                values = [_rank(value) for value in values]
                positions.sort(key=values.__getitem__, reverse=descending)
            return [rows[i] for i in positions]
        return order

    # -- INSERT / UPDATE / DELETE -------------------------------------------
    def insert(self, insert: Insert) -> Plan:
        table = self._tables.get(insert.table)
        if table is None:
            return _fail(TableError, f"no such table: {insert.table!r}")
        columns = list(insert.columns) if insert.columns else table.column_names
        value_rows = tuple(
            tuple(self.expr(expr, ()) for expr in row) for row in insert.rows
        )
        rowcount = len(insert.rows)

        def run(ctx: ExecutionContext) -> ResultSet:
            lastrowid = None
            written = 0
            try:
                for values in value_rows:
                    if len(values) != len(columns):
                        raise ProgrammingError(
                            f"INSERT row has {len(values)} values for "
                            f"{len(columns)} columns"
                        )
                    lastrowid = table.insert({
                        column: value((), ctx)
                        for column, value in zip(columns, values)
                    })
                    if ctx.undo is not None:
                        ctx.undo.record_insert(table, table.last_internal_row_id)
                    written += 1
            finally:
                ctx.charge("row_write", written)
            return ResultSet(rowcount=rowcount, lastrowid=lastrowid)
        return run

    def write(self, statement) -> Plan:
        """UPDATE or DELETE: match row ids, then change them one by one."""
        table = self._tables.get(statement.table)
        if table is None:
            return _fail(TableError, f"no such table: {statement.table!r}")
        scope: Scope = ((statement.table, table),)
        probe = self.index_probe(table, statement.table, statement.where)
        where = (self.expr(statement.where, scope)
                 if statement.where is not None else None)
        if isinstance(statement, Delete):
            def change(row_id, ctx):
                if ctx.undo is not None:
                    ctx.undo.record_delete(table, table.rows[row_id])
                table.delete_row(row_id)
        else:
            assignments = tuple((column, self.expr(expr, scope))
                                for column, expr in statement.assignments)

            def change(row_id, ctx):
                row = table.rows[row_id]
                env = (row,)
                changes = {column: value(env, ctx)
                           for column, value in assignments}
                if ctx.undo is not None:
                    before = {column: row[column] for column in changes}
                    ctx.undo.record_update(table, row_id, before)
                table.update_row(row_id, changes)

        def run(ctx: ExecutionContext) -> ResultSet:
            rows = table.rows
            if probe is not None:
                candidates = probe(ctx)
            else:
                ctx.charge("row_scan", len(rows))
                candidates = list(rows.keys())
            if where is None:
                row_ids = list(candidates)
            else:
                row_ids = [row_id for row_id in candidates
                           if row_id in rows and where((rows[row_id],), ctx)]
            written = 0
            try:
                for row_id in row_ids:
                    change(row_id, ctx)
                    written += 1
            finally:
                ctx.charge("row_write", written)
            return ResultSet(rowcount=len(row_ids))
        return run


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------

def _conjuncts(where: Optional[Expression]) -> Iterable[Expression]:
    """Flatten top-level ANDs into a list of conjuncts."""
    if where is None:
        return
    stack = [where]
    while stack:
        node = stack.pop()
        if isinstance(node, BinaryOp) and node.op == "AND":
            stack.append(node.left)
            stack.append(node.right)
        else:
            yield node


def _contains_aggregate(expr: Expression) -> bool:
    if isinstance(expr, FuncCall):
        return True
    if isinstance(expr, BinaryOp):
        return _contains_aggregate(expr.left) or _contains_aggregate(expr.right)
    if isinstance(expr, UnaryOp):
        return _contains_aggregate(expr.operand)
    return False


def _expression_label(expr: Expression) -> str:
    if isinstance(expr, ColumnRef):
        return expr.name
    if isinstance(expr, FuncCall):
        if expr.star:
            return f"{expr.name}(*)"
        return f"{expr.name}({_expression_label(expr.argument)})"
    if isinstance(expr, Literal):
        return repr(expr.value)
    return "expr"
