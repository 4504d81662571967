"""CAP001 — executor capability claims must be backed by real overrides.

``ExecutorCapabilities`` is advertised, not inferred: an executor class
*declares* ``remote=True`` and its users believe it.  Nothing at runtime
checks the claim against the class's methods.  CAP001 does, statically: it
resolves every class-level ``capabilities = ExecutorCapabilities(...)``
literal, walks the in-file class hierarchy, and checks that a class making
a claim listed in ``LintConfig.capability_requirements`` has a real
override of every method the claim needs — a class claiming ``remote`` has
real ``_transport_send``/``_transport_recv`` (the base class's raising
stubs do not count).

A *stub* is a method whose body is an optional docstring plus a single
``raise NotImplementedError`` — the repo's convention for
protocol-documenting placeholders.  Flag values must be literal
``True``/``False``; a computed flag is skipped.
"""

import ast

from tools.reprolint.core import Rule

__all__ = ["CapabilityHonestyRule"]

#: Positional parameter order of the ExecutorCapabilities dataclass.
_FIELD_ORDER = (
    "releases_gil",
    "remote",
    "requires_picklable",
)


def _is_stub(func):
    """True for a docstring + ``raise NotImplementedError`` placeholder."""
    body = list(func.body)
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def _capability_literal(class_node):
    """The class's ``capabilities = ExecutorCapabilities(...)`` call node."""
    for stmt in class_node.body:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        for target in targets:
            name = (
                target.id if isinstance(target, ast.Name)
                else getattr(target, "attr", None)
            )
            if name != "capabilities":
                continue
            if isinstance(value, ast.Call) and (
                (
                    isinstance(value.func, ast.Name)
                    and value.func.id == "ExecutorCapabilities"
                )
                or (
                    isinstance(value.func, ast.Attribute)
                    and value.func.attr == "ExecutorCapabilities"
                )
            ):
                return value
    return None


def _literal_flags(call):
    """Flag name -> bool for the literal arguments of the call."""
    flags = {}
    for pos, arg in enumerate(call.args):
        if pos < len(_FIELD_ORDER) and isinstance(arg, ast.Constant):
            flags[_FIELD_ORDER[pos]] = bool(arg.value)
    for kw in call.keywords:
        if kw.arg is not None and isinstance(kw.value, ast.Constant):
            flags[kw.arg] = bool(kw.value)
    return flags


class CapabilityHonestyRule(Rule):
    """Flag capability claims without the overrides that back them."""

    code = "CAP001"
    title = "ExecutorCapabilities claim without a matching method override"

    def check_module(self, module, ctx):
        """Check every capability-declaring class hierarchy in the file."""
        config = ctx.config
        classes = {
            node.name: node
            for node in module.tree.body
            if isinstance(node, ast.ClassDef)
        }

        def ancestry(node):
            """The class and its in-file ancestors, nearest first."""
            chain, queue, seen = [], [node], set()
            while queue:
                current = queue.pop(0)
                if current.name in seen:
                    continue
                seen.add(current.name)
                chain.append(current)
                for base in current.bases:
                    if isinstance(base, ast.Name) and base.id in classes:
                        queue.append(classes[base.id])
            return chain

        def resolve_method(chain, name):
            """Nearest definition of ``name`` along the chain (or None)."""
            for cls in chain:
                for stmt in cls.body:
                    if (
                        isinstance(
                            stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
                        )
                        and stmt.name == name
                    ):
                        return stmt
            return None

        for node in classes.values():
            chain = ancestry(node)
            cap_call = None
            for cls in chain:
                cap_call = _capability_literal(cls)
                if cap_call is not None:
                    break
            if cap_call is None:
                continue  # not part of a capability-declaring hierarchy
            flags = _literal_flags(cap_call)
            own_call = _capability_literal(node)

            # Every claimed flag needs real backing methods.
            for flag, methods in config.capability_requirements.items():
                if not flags.get(flag, False):
                    continue
                for method_name in methods:
                    method = resolve_method(chain, method_name)
                    if method is None or _is_stub(method):
                        state = (
                            "only the raising stub" if method is not None
                            else "no implementation"
                        )
                        anchor = own_call or node
                        yield self.finding(
                            module, anchor.lineno, anchor.col_offset,
                            f"{node.name} claims {flag}=True but has "
                            f"{state} for {method_name}(); implement it or "
                            "drop the claim",
                        )
