"""SQL subset: lexer, AST, recursive-descent parser, plan compiler."""

from repro.db.sql.ast import (
    BinaryOp,
    Between,
    ColumnRef,
    CreateIndex,
    CreateTable,
    Delete,
    FuncCall,
    InList,
    Insert,
    IsNull,
    Like,
    Literal,
    Placeholder,
    Select,
    SelectItem,
    Statement,
    UnaryOp,
    Update,
)
from repro.db.sql.lexer import Token, tokenize_sql
from repro.db.sql.parser import parse_sql
from repro.db.sql.executor import ExecutionContext, ResultSet, compile_statement

__all__ = [
    "BinaryOp",
    "Between",
    "ColumnRef",
    "CreateIndex",
    "CreateTable",
    "Delete",
    "FuncCall",
    "InList",
    "Insert",
    "IsNull",
    "Like",
    "Literal",
    "Placeholder",
    "Select",
    "SelectItem",
    "Statement",
    "UnaryOp",
    "Update",
    "Token",
    "tokenize_sql",
    "parse_sql",
    "ExecutionContext",
    "compile_statement",
    "ResultSet",
]
