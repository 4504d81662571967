"""WIRE001 — the shard-struct / wire-codec contract.

``cluster/shard.py`` defines the records that cross the wire;
``cluster/wire.py`` encodes them with a tagged binary codec.  Two kinds:

* the dataclass **structs** (``ShardTask`` / ``ShardDelta``, and
  ``DecisionContext`` from ``core/heuristic.py``) cross as ``[tag][every
  field, in declaration order]``: the codec walks ``dataclasses.fields``
  on encode and rebuilds positionally on decode, so "a field is dropped
  on encode / not passed on decode" cannot happen *by construction* —
  provided the struct is registered;
* the **column records** (``MessageColumns`` in ``pregel/messages.py``,
  ``PatchColumns`` in ``cluster/shard.py``, ``ProposalColumns`` in
  ``pregel/migration.py``) keep hand-written column codecs, which agree
  with the class only by discipline.

WIRE001 makes both a check, cross-module and purely static:

* every wire struct must be a key of the codec's struct table
  (``_STRUCTS``) — unregistered, its instances would silently take the
  pickle fallback on every send;
* every key of the per-field override table (``_FIELD_ENCODERS``) must
  name a real field of a wire struct — a misspelt or stale override
  never applies, and the field quietly loses its packed shape;
* every non-builtin type named in a struct field annotation must either
  have its own codec tag or be pickle-fallback-safe, i.e. a *top-level*
  class in the module it is imported from;
* every column record must have an entry in the dispatch table
  (``_ENCODERS``), an encoder that reads **every** declared field, and a
  ``_decode`` that passes every field (by keyword) to a reconstructing
  constructor call.

The whole rule runs in :meth:`WireContractRule.finalize` because it needs
both files parsed; fixture trees exercise it with miniature shard/wire
pairs in the same layout.
"""

import ast

from tools.reprolint.core import Rule

__all__ = ["WireContractRule"]

#: The codec's struct table (struct class -> tag) and its per-field
#: override table (field name -> encoder), by name.
_STRUCT_TABLE = "_STRUCTS"
_OVERRIDE_TABLE = "_FIELD_ENCODERS"

#: Annotation names that never need a codec tag.
_BUILTIN_TYPES = frozenset(
    {
        "int", "float", "str", "bytes", "bool", "None", "object",
        "tuple", "list", "dict", "set", "frozenset",
        "Tuple", "List", "Dict", "Set", "FrozenSet", "Optional", "Union",
        "Any", "Mapping", "Sequence", "Iterable", "Callable",
    }
)


def _annotation_names(node):
    """Every bare name referenced inside a field annotation."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id


def _class_fields(class_node):
    """Declared dataclass fields: annotated names in the class body."""
    fields = {}
    for stmt in class_node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            fields[stmt.target.id] = stmt.annotation
    return fields


def _top_level_classes(tree):
    """Names of classes defined at module top level (pickle-safe)."""
    return {
        node.name
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }


def _import_origins(tree):
    """Local name -> dotted source module, from ``from X import Y`` forms."""
    origins = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                origins[alias.asname or alias.name] = node.module
    return origins


def _assign_targets(node):
    """Name targets of a plain or annotated assignment (else empty)."""
    if isinstance(node, ast.Assign):
        return [t for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target]
    return []


def _find_table(tree, table_name):
    """The dict literal assigned to ``table_name``: ``(node, {key: value
    node})`` over its bare-name and string-constant keys (``**`` spreads
    and computed keys are skipped); ``(None, {})`` when there is none."""
    for node in ast.walk(tree):
        if node.__class__ not in (ast.Assign, ast.AnnAssign):
            continue
        if not any(t.id == table_name for t in _assign_targets(node)):
            continue
        if node.value is None:
            continue  # a bare annotation declares nothing
        table = {}
        if not isinstance(node.value, ast.Dict):
            return node, table
        for key, value in zip(node.value.keys, node.value.values):
            if isinstance(key, ast.Name):
                table[key.id] = value
            elif isinstance(key, ast.Constant) and isinstance(key.value, str):
                table[key.value] = value
        return node, table
    return None, {}


class WireContractRule(Rule):
    """Cross-check the wire structs against their codec."""

    code = "WIRE001"
    title = (
        "wire struct field or type not covered by the cluster/wire.py codec"
    )

    def finalize(self, ctx):
        """Pair each shard module with its codec sibling and cross-check."""
        config = ctx.config
        for shard in ctx.modules:
            if not shard.module_suffix_matches(config.wire_shard_suffix):
                continue
            codec = self._codec_sibling(shard, ctx)
            if codec is None:
                yield self.finding(
                    shard, 1, 0,
                    f"wire structs defined here but no codec module "
                    f"({config.wire_codec_name}) found next to it",
                )
                continue
            yield from self._check_codec(codec, ctx)

    def _codec_sibling(self, shard, ctx):
        """The wire codec module living in the same directory as ``shard``."""
        expected = shard.path.resolve().with_name(ctx.config.wire_codec_name)
        for module in ctx.modules:
            if module.path.resolve() == expected:
                return module
        return None

    def _check_codec(self, codec, ctx):
        config = ctx.config
        dispatch_node, dispatch = _find_table(codec.tree, config.wire_dispatch)
        if dispatch_node is None:
            yield self.finding(
                codec, 1, 0,
                f"codec has no {config.wire_dispatch} dispatch table; "
                "WIRE001 cannot verify struct coverage",
            )
            return
        yield from self._check_structs(codec, dispatch, ctx)
        funcs = {
            node.name: node
            for node in ast.walk(codec.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        decode_kwargs = self._decode_constructions(codec.tree)
        records, missing = self._declared(config.wire_records, "record", ctx)
        yield from missing
        for module, record_name, record in records:
            encoder_node = dispatch.get(record_name)
            if encoder_node is None:
                yield self.finding(
                    codec, dispatch_node.lineno, dispatch_node.col_offset,
                    f"{record_name} has no entry in {config.wire_dispatch}; "
                    "instances would take the pickle fallback on every send",
                )
                continue
            encoder_name = getattr(encoder_node, "id", None)
            encoder = funcs.get(encoder_name)
            read = self._attrs_read(encoder) if encoder is not None else set()
            passed = decode_kwargs.get(record_name, set())
            for field_name in _class_fields(record):
                if field_name not in read:
                    yield self.finding(
                        module, record.lineno, record.col_offset,
                        f"{record_name}.{field_name} is never read by "
                        f"{encoder_name}(); the field would be dropped on "
                        "encode",
                    )
                if field_name not in passed:
                    yield self.finding(
                        module, record.lineno, record.col_offset,
                        f"{record_name}.{field_name} is not passed to the "
                        f"{record_name}(...) reconstruction in the codec's "
                        "decode path",
                    )

    def _declared(self, pairs, what, ctx):
        """Resolve ``(module suffix, class name)`` pairs to ``(found,
        findings)``: ``(module, name, class node)`` for each class at its
        module's top level, a finding for each missing there (a module
        outside the scanned tree is skipped)."""
        found, findings = [], []
        for suffix, name in pairs:
            module = ctx.find_module(suffix)
            if module is None:
                continue  # outside the scanned tree; cannot verify
            node = next(
                (
                    node for node in module.tree.body
                    if isinstance(node, ast.ClassDef) and node.name == name
                ),
                None,
            )
            if node is None:
                findings.append(self.finding(
                    module, 1, 0,
                    f"declared wire {what} {name} not defined in "
                    f"{module.display}",
                ))
            else:
                found.append((module, name, node))
        return found, findings

    def _check_structs(self, codec, dispatch, ctx):
        """Registration, override keys and field types of the structs."""
        config = ctx.config
        table_node, registered = _find_table(codec.tree, _STRUCT_TABLE)
        anchor = (1, 0) if table_node is None else (
            table_node.lineno, table_node.col_offset
        )
        tagged = set(dispatch) | set(registered)
        struct_fields = set()
        structs, missing = self._declared(config.wire_structs, "struct", ctx)
        yield from missing
        for module, struct_name, struct in structs:
            fields = _class_fields(struct)
            struct_fields.update(fields)
            if struct_name not in registered:
                yield self.finding(
                    codec, *anchor,
                    f"{struct_name} has no entry in {_STRUCT_TABLE}; "
                    "instances would take the pickle fallback on every send",
                )
            yield from self._check_field_types(
                module, struct, fields, tagged, ctx
            )
        _, overrides = _find_table(codec.tree, _OVERRIDE_TABLE)
        names = " / ".join(name for _, name in config.wire_structs)
        for key, node in overrides.items():
            if key not in struct_fields:
                yield self.finding(
                    codec, node.lineno, node.col_offset,
                    f"{_OVERRIDE_TABLE} key {key!r} names no field of "
                    f"{names}; the override would never apply",
                )

    @staticmethod
    def _attrs_read(func):
        """Every ``<x>.attr`` attribute name read inside ``func``."""
        return {
            node.attr
            for node in ast.walk(func)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
        }

    @staticmethod
    def _decode_constructions(tree):
        """Struct name -> keyword names of ``Struct(field=...)`` calls."""
        constructions = {}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if not isinstance(node.func, ast.Name):
                continue
            kwargs = {
                kw.arg for kw in node.keywords if kw.arg is not None
            }
            if kwargs:
                constructions.setdefault(node.func.id, set()).update(kwargs)
        return constructions

    def _check_field_types(self, shard, struct, fields, tagged, ctx):
        """Non-builtin annotation types need a tag or pickle-fallback safety."""
        origins = _import_origins(shard.tree)
        local_classes = _top_level_classes(shard.tree)
        seen = set()
        for field_name, annotation in fields.items():
            for name in _annotation_names(annotation):
                if name in _BUILTIN_TYPES or name in seen:
                    continue
                seen.add(name)
                if name in tagged or name in local_classes:
                    continue
                origin = origins.get(name)
                if origin is None:
                    continue  # builtin-namespace or locally aliased: no call
                defining = ctx.find_module(
                    origin.replace(".", "/") + ".py"
                )
                if defining is None:
                    continue  # outside the scanned tree; cannot verify
                if name not in _top_level_classes(defining.tree):
                    yield self.finding(
                        shard, struct.lineno, struct.col_offset,
                        f"{struct.name}.{field_name} references {name} "
                        f"(from {origin}), which has no codec tag and is "
                        "not a top-level class there — the pickle fallback "
                        "would fail on it",
                    )
