"""Declarative protocol descriptions.

A description is YAML: a version tag, a top-level structure name and a
map of structures, each an ordered field list. Field kinds:

  - ``uint``: fixed-width unsigned integer, ``bits`` in {8, 16, 24, 32, 64}
  - ``varint``: variable-length integer (2-bit length prefix)
  - ``bytes``: ``length`` is a constant, ``rest`` (to the end of the
    enclosing scope) or a reference ``{field, mask, plus}`` meaning
    ``(value_of(field) & mask) + plus``
  - ``conditional``: dispatch on a previously parsed integer field
    named by ``discriminator`` (optionally ``mask``-ed) through
    ``cases: {value: structure}`` with an optional ``default`` structure
  - ``repeat``: a sub-``structure`` repeated ``count`` times (a field
    reference) or, without ``count``, until the scope is exhausted

References resolve backward only: to an earlier sibling, or to an
earlier field of an enclosing structure. Forward sibling references and
names that appear nowhere are load errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import yaml


class DescriptionError(Exception):
    """A description failed validation; message carries the location."""


VALID_KINDS = {"uint", "varint", "bytes", "conditional", "repeat"}
VALID_UINT_BITS = {8, 16, 24, 32, 64}


@dataclass
class FieldRef:
    field: str
    mask: int | None = None
    plus: int = 0

    def apply(self, value: int) -> int:
        if self.mask is not None:
            value &= self.mask
        return value + self.plus


@dataclass
class FieldSpec:
    name: str
    kind: str
    bits: int = 0
    length: int | str | FieldRef | None = None  # bytes: int, "rest" or ref
    on: str | None = None  # conditional discriminator field
    mask: int | None = None
    cases: dict[int, str] = field(default_factory=dict)
    default: str | None = None
    structure: str | None = None  # repeat target
    count: FieldRef | None = None  # repeat count; None means until end


@dataclass
class ProtocolDescription:
    version: int
    name: str
    top: str
    structures: dict[str, list[FieldSpec]]


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise DescriptionError(f"{where}: expected an integer, got {value!r}")
    if isinstance(value, str):
        try:
            return int(value, 0)
        except ValueError:
            raise DescriptionError(f"{where}: cannot parse integer {value!r}")
    return value


def _as_ref(value, where: str) -> FieldRef:
    if isinstance(value, str):
        return FieldRef(field=value)
    if isinstance(value, dict) and "field" in value:
        return FieldRef(
            field=value["field"],
            mask=_as_int(value["mask"], where) if "mask" in value else None,
            plus=_as_int(value.get("plus", 0), where),
        )
    raise DescriptionError(f"{where}: expected a field reference, got {value!r}")


def _parse_field(raw: dict, where: str) -> FieldSpec:
    if not isinstance(raw, dict):
        raise DescriptionError(f"{where}: field must be a mapping, got {raw!r}")
    kind = raw.get("kind")
    if kind not in VALID_KINDS:
        raise DescriptionError(f"{where}: unknown field kind {kind!r}")
    name = raw.get("name", kind)
    spec = FieldSpec(name=name, kind=kind)
    if kind == "uint":
        spec.bits = _as_int(raw.get("bits", 8), where)
        if spec.bits not in VALID_UINT_BITS:
            raise DescriptionError(f"{where}: uint bits must be one of {sorted(VALID_UINT_BITS)}")
    elif kind == "bytes":
        length = raw.get("length")
        if length is None:
            raise DescriptionError(f"{where}: bytes needs a length")
        if length == "rest":
            spec.length = "rest"
        elif isinstance(length, (int, str)) and not isinstance(length, bool):
            try:
                spec.length = _as_int(length, where)
            except DescriptionError:
                spec.length = FieldRef(field=length)
        else:
            spec.length = _as_ref(length, where)
    elif kind == "conditional":
        if "discriminator" not in raw or "cases" not in raw:
            raise DescriptionError(f"{where}: conditional needs 'discriminator' and 'cases'")
        spec.on = raw["discriminator"]
        spec.mask = _as_int(raw["mask"], where) if "mask" in raw else None
        if not isinstance(raw["cases"], dict):
            raise DescriptionError(f"{where}: cases must be a mapping")
        spec.cases = {
            _as_int(key, where): value for key, value in raw["cases"].items()
        }
        spec.default = raw.get("default")
    elif kind == "repeat":
        if "structure" not in raw:
            raise DescriptionError(f"{where}: repeat needs a structure")
        spec.structure = raw["structure"]
        if "count" in raw:
            spec.count = _as_ref(raw["count"], where)
    return spec


def load_description(text: str) -> ProtocolDescription:
    """Parse and validate one protocol description."""
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise DescriptionError(f"not valid YAML: {exc}")
    if not isinstance(doc, dict):
        raise DescriptionError("description must be a mapping")
    for required in ("version", "top", "structures"):
        if required not in doc:
            raise DescriptionError(f"missing required key {required!r}")
    structures: dict[str, list[FieldSpec]] = {}
    for struct_name, fields in doc["structures"].items():
        if fields is None:
            fields = []
        if not isinstance(fields, list):
            raise DescriptionError(f"structures.{struct_name}: must be a list of fields")
        structures[struct_name] = [
            _parse_field(raw, f"structures.{struct_name}[{i}]") for i, raw in enumerate(fields)
        ]
    desc = ProtocolDescription(
        version=_as_int(doc["version"], "version"),
        name=str(doc.get("name", f"protocol-{doc['version']}")),
        top=doc["top"],
        structures=structures,
    )
    _validate(desc)
    return desc


def _iter_referenced_structures(spec: FieldSpec):
    if spec.kind == "conditional":
        yield from spec.cases.values()
        if spec.default:
            yield spec.default
    elif spec.kind == "repeat":
        yield spec.structure


def _validate(desc: ProtocolDescription) -> None:
    if desc.top not in desc.structures:
        raise DescriptionError(f"top structure {desc.top!r} is not defined")

    all_field_names = {
        f.name for fields in desc.structures.values() for f in fields if f.kind in ("uint", "varint")
    }

    for struct_name, fields in desc.structures.items():
        seen: set[str] = set()
        names = [f.name for f in fields]
        for i, spec in enumerate(fields):
            where = f"structures.{struct_name}[{i}] ({spec.name})"
            refs = []
            if isinstance(spec.length, FieldRef):
                refs.append(spec.length.field)
            if spec.count is not None:
                refs.append(spec.count.field)
            if spec.on is not None:
                refs.append(spec.on)
            for ref in refs:
                if ref in seen:
                    continue
                if ref in names:
                    raise DescriptionError(f"{where}: reference to later sibling {ref!r}")
                if ref not in all_field_names:
                    raise DescriptionError(f"{where}: dangling reference {ref!r}")
                # else: resolves in an enclosing scope at dissection time
            for target in _iter_referenced_structures(spec):
                if target not in desc.structures:
                    raise DescriptionError(f"{where}: unknown structure {target!r}")
            seen.add(spec.name)

    reachable: set[str] = set()
    frontier = [desc.top]
    while frontier:
        current = frontier.pop()
        if current in reachable:
            continue
        reachable.add(current)
        for spec in desc.structures[current]:
            frontier.extend(_iter_referenced_structures(spec))
    unreachable = set(desc.structures) - reachable
    if unreachable:
        raise DescriptionError(f"unreachable structures: {sorted(unreachable)}")
