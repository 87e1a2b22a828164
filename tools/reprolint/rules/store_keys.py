"""R1 ``store-key``: store-key completeness for ``TransientOptions``.

The contract: every ``TransientOptions`` field must enter the
result-store key.  The runtime mirror lives in
``repro.exec.store._options_items``; this rule proves the same facts
statically by cross-checking the two declaration sites:

* ``circuit/transient.py`` — the dataclass fields of
  ``TransientOptions`` (the ground truth of what exists);
* ``exec/store.py`` — the ``KEYED_FIELDS`` literal (the declaration of
  what is keyed), ``_options_items`` (which must filter through
  ``KEYED_FIELDS``), and the ``job_key`` hash builder (which must route
  options through ``_options_items``).

A field missing from ``KEYED_FIELDS`` means adding an option silently
aliases cached waveforms; that fails CI here.
"""

from __future__ import annotations

import ast

from ..core import Rule, register

TRANSIENT_SUFFIX = "circuit/transient.py"
STORE_SUFFIX = "exec/store.py"
OPTIONS_CLASS = "TransientOptions"


def _dataclass_fields(tree: ast.Module, class_name: str):
    """``{field name: lineno}`` of a module-level (data)class, or None."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            fields = {}
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and \
                        isinstance(stmt.target, ast.Name):
                    ann = ast.dump(stmt.annotation)
                    if "ClassVar" in ann:
                        continue
                    fields[stmt.target.id] = stmt.lineno
            return fields
    return None


def _set_literal(tree: ast.Module, name: str):
    """``(names, lineno)`` of a module-level set/frozenset of string
    literals, or ``None`` when absent, or ``("non-literal", lineno)``
    when present but not statically readable."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                isinstance(node.targets[0], ast.Name) and \
                node.targets[0].id == name:
            value = node.value
            if isinstance(value, ast.Call) and \
                    isinstance(value.func, ast.Name) and \
                    value.func.id in ("frozenset", "set") and \
                    not value.keywords and len(value.args) <= 1:
                if not value.args:  # frozenset() — the empty set
                    return (set(), node.lineno)
                value = value.args[0]
            if isinstance(value, (ast.Set, ast.List, ast.Tuple)):
                names = set()
                for elt in value.elts:
                    if isinstance(elt, ast.Constant) and \
                            isinstance(elt.value, str):
                        names.add(elt.value)
                    else:
                        return ("non-literal", node.lineno)
                return (names, node.lineno)
            return ("non-literal", node.lineno)
    return None


def _function(tree: ast.Module, name: str):
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def _mentions(node: ast.AST, word: str) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id == word:
            return True
        if isinstance(sub, ast.Attribute) and sub.attr == word:
            return True
        if isinstance(sub, ast.Constant) and sub.value == word:
            return True
    return False


def _calls(node: ast.AST, name: str) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and \
                isinstance(sub.func, ast.Name) and sub.func.id == name:
            return True
    return False


@register
class StoreKeyCompleteness(Rule):
    id = "store-key"
    description = (
        "every TransientOptions field is declared in KEYED_FIELDS, "
        "KEYED_FIELDS names only real fields, and job_key hashes options "
        "through _options_items")

    def check_project(self, project):
        t_ctx = project.find(TRANSIENT_SUFFIX)
        s_ctx = project.find(STORE_SUFFIX)
        if t_ctx is None or s_ctx is None:
            return []  # the contract's files are not part of this scan
        findings = []

        fields = _dataclass_fields(t_ctx.tree, OPTIONS_CLASS)
        if fields is None:
            findings.append(self.finding(
                t_ctx, 1, f"{OPTIONS_CLASS} class not found; the "
                f"store-key contract has nothing to check against"))
            return findings

        keyed = _set_literal(s_ctx.tree, "KEYED_FIELDS")
        if keyed is None:
            return [self.finding(
                s_ctx, 1, "store module must declare KEYED_FIELDS as a "
                "module-level frozenset of field-name literals")]
        if keyed[0] == "non-literal":
            return [self.finding(
                s_ctx, keyed[1], "KEYED_FIELDS must contain only string "
                "literals so the declaration is statically checkable")]
        keyed_names, keyed_line = keyed

        for name in sorted(set(fields) - keyed_names):
            findings.append(self.finding(
                t_ctx, fields[name],
                f"{OPTIONS_CLASS}.{name} is not declared in KEYED_FIELDS — "
                f"an unkeyed option aliases cached waveforms; register it "
                f"in exec/store.py and bump STORE_VERSION"))
        for name in sorted(keyed_names - set(fields)):
            findings.append(self.finding(
                s_ctx, keyed_line,
                f"KEYED_FIELDS names {name!r}, which is not a "
                f"{OPTIONS_CLASS} field; remove the stale declaration"))

        items_fn = _function(s_ctx.tree, "_options_items")
        if items_fn is None:
            findings.append(self.finding(
                s_ctx, 1, "_options_items not found; options cannot be "
                "proven to key through KEYED_FIELDS"))
        elif not _mentions(items_fn, "KEYED_FIELDS"):
            findings.append(self.finding(
                s_ctx, items_fn.lineno,
                "_options_items does not filter through KEYED_FIELDS; "
                "the declaration and the key can drift apart"))

        job_fn = _function(s_ctx.tree, "job_key")
        if job_fn is None:
            findings.append(self.finding(
                s_ctx, 1, "job_key not found; transient store keys "
                "cannot be checked"))
        elif not _calls(job_fn, "_options_items"):
            findings.append(self.finding(
                s_ctx, job_fn.lineno,
                "job_key must hash options through _options_items so "
                "the KEYED_FIELDS declaration governs the key"))
        return findings
