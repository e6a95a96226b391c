"""The wire codec: a typed encode/decode registry for every wire record.

Every payload handed to :meth:`repro.net.network.Network.send` is encoded to
``bytes`` at the sender and decoded to a *fresh* object at the receiver. The
encoded length — not an estimate — is what the link model and the shared-
medium contention model charge for, and the decode step guarantees that no
Python object identity ever crosses a node boundary (one node can no longer
mutate state another node still holds).

Format
------
A self-describing tag-byte format, deterministic by construction (no
timestamps, no hashes, no interpreter-dependent state):

=====  ======================================================================
tag    encoding
=====  ======================================================================
0x00   ``None``
0x01   ``False``
0x02   ``True``
0x03   ``int`` — zig-zag LEB128 varint (arbitrary precision)
0x04   ``float`` — 8-byte big-endian IEEE-754 (exact round trip)
0x05   ``str`` — varint byte length + UTF-8
0x06   ``bytes`` — varint length + raw
0x07   ``tuple`` — varint count + encoded items
0x08   ``list`` — varint count + encoded items
0x09   ``dict`` — varint count + encoded key/value pairs, insertion order
0x0A+  registered record or enum number *n* — the one byte ``0x0A + n``, then
       the encoded fields in declaration order (an enum: its member value)
=====  ======================================================================

A record's identity is its **number**, assigned in registration order, and
its head is that one byte (so at most 246 records and enums, ``0x0A`` to
``0xFF``). A number means something only to a codec with the same
registry, and that is what a group guarantees: the numbering is part of
:meth:`Codec.schema`, so of the digest every joiner presents (one schema
per group, below). The registry rejects a second class under a taken name.
Sets and unregistered classes are *encode errors*: sets would smuggle hash
order onto the wire, and an unregistered dataclass is a wire type the
protocol layer forgot to declare. Both also fail at import (the
registration contract below).

One schema per group
--------------------
A frame carries no version information: a record's fields are decoded in
the receiver's declaration order, and a frame with fewer fields is a
truncation error naming the record and field, one with more leaves
trailing bytes. Every member of a group runs the same wire schema — the
join request carries :meth:`Codec.schema_digest` and a member refuses a
joiner whose digest differs (PROTOCOLS.md §11), so the check is made once
per join instead of on every frame.

Same bytes, less work
---------------------
Many encoded bytes are values sent before: every qstat reply ships the
rows of the jobs it names, and a job's row changes only on a state
transition. Two host-time devices exploit that and the fixed shape of
every record; neither moves a byte of any frame.

* **Encode** — :class:`Fragment` holds the bytes of a value, encoded once
  under :data:`WIRE` by its owner; the encoder splices them verbatim.
* **Records** — each registered record carries its tag byte and one
  getter returning all its field values at once; the encoder appends the
  tag and iterates the values. The decoder finds the record by its number
  in a table, decodes the fields in one loop and makes the record through
  its ``build``, chosen once at registration: ``tuple.__new__`` for a
  NamedTuple, a function compiled there that fills a fresh instance's
  ``__dict__`` for a dataclass whose generated ``__init__`` only stores
  its arguments, and ``cls(*values)`` for anything else (``JobSpec``
  validates in ``__post_init__``, and what it refuses stays a decode
  error; an enum is ``cls(value)``).

Decoding keeps no state between frames: what a frame decodes to is a
function of its bytes and the registry alone.

Registry
--------
Registration is decentralised to respect the layering contract: each wire
module calls :func:`register_wire_types` on its own dataclasses and enums
at import time (``gcs/messages.py`` registers the GCS messages,
``pbs/wire.py`` the PBS requests, ...), and the package's ``__init__``
imports every wire module in one fixed order, so the registry and its
numbering are the same in every process. The module-level ``WIRE``
singleton is append-only and written only at import time, so it stays safe
for two simulations sharing one interpreter.

The registry is also the wire schema: :meth:`Codec.schema` renders it as
the committed ``WIRE_SCHEMA.lock``, one entry of the golden harness
(``python tools/golden.py check WIRE_SCHEMA``), and
:meth:`Codec.schema_digest` condenses it for the join check.

Registration contract
---------------------
Enforced when a wire module is imported, so a violation never reaches a
frame:

* a record is a dataclass, a NamedTuple or an ``Enum``, and no field is
  ``set``/``frozenset``-typed;
* a wire name belongs to one class, and a number fits the one head byte;
* every dataclass, NamedTuple or Enum a registering module exports in
  ``__all__`` is registered (:meth:`Codec.self_check`), unless the class
  says why it never crosses the wire in a ``__wire_local__`` string.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import inspect
import json
import operator
import re
import struct
import sys
from functools import partial
from typing import Any

from repro.util.errors import NetworkError

__all__ = [
    "Codec",
    "CodecError",
    "Fragment",
    "SCHEMA_VERSION",
    "WIRE",
    "register_wire_types",
    "encoded_size",
]


class CodecError(NetworkError):
    """A value could not be encoded to, or decoded from, wire bytes.

    Decode-side errors carry ``offset`` (byte position in the frame) and,
    when the failure happened inside a record's field list,
    ``record_context`` / ``field`` naming the innermost in-progress record.
    """

    offset: int | None = None
    record_context: str | None = None
    field: str | None = None


def _codec_error(message: str, offset: int) -> CodecError:
    """A decode error annotated with the byte offset it occurred at."""
    exc = CodecError(f"{message} at byte {offset}")
    exc.offset = offset
    return exc


def _annotate(exc: CodecError, record: str, field: str) -> None:
    """Attach the *innermost* in-progress record/field to a decode error
    (outer records re-raise without overwriting, so nested failures name
    the record actually being decoded when the bytes ran out)."""
    if exc.record_context is None:
        exc.record_context = record
        exc.field = field
        exc.args = (
            f"{exc.args[0]} (while decoding field {field!r} of {record})",
        )


_T_NONE = 0x00
_T_FALSE = 0x01
_T_TRUE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_TUPLE = 0x07
_T_LIST = 0x08
_T_DICT = 0x09
#: Tag of record number 0; every byte from here to 0xFF is a record number.
_FIRST_RECORD_TAG = 0x0A

_FLOAT = struct.Struct(">d")


def _encode_varint(value: int, out: bytearray) -> None:
    """Unsigned LEB128."""
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _decode_varint(data: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise _codec_error("truncated varint", pos)
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def _zigzag(value: int) -> int:
    return (value << 1) ^ (value >> (value.bit_length() + 1)) if value < 0 else value << 1


def _unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


class Fragment:
    """The wire bytes of a value, encoded once under :data:`WIRE`.

    A sender that ships the same value many times (a job's qstat/poll row,
    unchanged between scheduler polls) builds the fragment once and puts
    *it* in its payloads; the encoder splices the bytes verbatim, so the
    frame is byte-identical to one built from the value itself.

    The bytes may hold record numbers. That is sound because a group runs
    one wire schema (PROTOCOLS.md §11): a number means the same to the
    fragment's owner and to every receiver. Decoding never produces a
    fragment — the receiver gets the value. Immutable; equal and hashed by
    its bytes; ``repr`` is the value's own (payload printers such as
    ``wiretrace`` cannot tell it from the value it stands for).
    """

    __slots__ = ("_wire",)

    def __init__(self, value: Any) -> None:
        object.__setattr__(self, "_wire", WIRE.encode(value))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Fragment is immutable")

    def __eq__(self, other: object) -> bool:
        return type(other) is Fragment and other._wire == self._wire

    def __hash__(self) -> int:
        return hash(self._wire)

    def __repr__(self) -> str:
        return repr(WIRE.decode(self._wire))


@dataclasses.dataclass(frozen=True, eq=False)
class _Record:
    """One registered record class (or enum): wire name, field order, the
    tag byte every frame of it starts with, one getter for all field values
    and one builder of a fresh instance from them."""

    name: str
    cls: type
    fields: tuple[str, ...]
    tag: int                      # _FIRST_RECORD_TAG + the record's number
    getter: Any                   # value -> tuple of every field value
    build: Any                    # list of every field value -> instance


def _record_fields(cls: type) -> tuple[str, ...]:
    if dataclasses.is_dataclass(cls):
        return tuple(f.name for f in dataclasses.fields(cls))
    if isinstance(cls, enum.EnumMeta):
        return ("value",)
    if issubclass(cls, tuple) and hasattr(cls, "_fields"):
        return tuple(cls._fields)
    raise CodecError(
        f"{cls.__name__} is neither a dataclass, a NamedTuple nor an Enum; "
        "only declared record shapes can cross the wire"
    )


#: Version of the format :meth:`Codec.schema` renders (``WIRE_SCHEMA.lock``).
SCHEMA_VERSION = 3

_SET_ANNOTATION = re.compile(r"\b(set|Set|frozenset|FrozenSet)\b")


def _annotation_text(annotation: Any) -> str:
    """An annotation as its source text: with ``from __future__ import
    annotations`` a dataclass keeps the string and a NamedTuple wraps it in
    a ``ForwardRef``."""
    text = getattr(annotation, "__forward_arg__", annotation)
    return text if isinstance(text, str) else inspect.formatannotation(text)


def _record_annotations(cls: type) -> dict[str, str]:
    """Field name -> annotation source text, inherited fields included (an
    enum's value has none)."""
    if dataclasses.is_dataclass(cls):
        return {f.name: _annotation_text(f.type) for f in dataclasses.fields(cls)}
    if isinstance(cls, enum.EnumMeta):
        return {}
    return {name: _annotation_text(cls.__annotations__[name]) for name in cls._fields}


def _value_text(value: Any) -> str:
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    return repr(value)


def _default_texts(cls: type) -> dict[str, str]:
    """Field name -> its declared default as the lockfile records it: the
    value's ``repr``, ``Type.MEMBER`` for an enum member, and
    ``field(default_factory=<qualname>)`` for a factory."""
    if not dataclasses.is_dataclass(cls):
        return {name: _value_text(v) for name, v in sorted(cls._field_defaults.items())}
    texts: dict[str, str] = {}
    for f in dataclasses.fields(cls):
        if f.default is not dataclasses.MISSING:
            texts[f.name] = _value_text(f.default)
        elif f.default_factory is not dataclasses.MISSING:
            texts[f.name] = (
                f"field(default_factory={f.default_factory.__qualname__})"
            )
    return texts


def _module_path(cls: type) -> str:
    """The defining module as a path below its top-level package
    (``repro.gcs.messages`` -> ``gcs/messages.py``)."""
    return cls.__module__.split(".", 1)[-1].replace(".", "/") + ".py"


def _record_getter(cls: type, fields: tuple[str, ...]) -> Any:
    """A one-call getter of every field value, as a tuple in declaration
    order (a NamedTuple already is one)."""
    if issubclass(cls, tuple):
        return tuple
    if len(fields) > 1:
        return operator.attrgetter(*fields)
    if fields:
        only = operator.attrgetter(fields[0])
        return lambda value: (only(value),)
    return lambda value: ()


def _construct(cls: type, values: list) -> Any:
    """The builder of a record whose own ``__init__`` must run."""
    return cls(*values)


def _record_builder(cls: type, fields: tuple[str, ...]) -> Any:
    """``build(values)``: what ``cls(*values)`` returns for the *values* of
    every field in declaration order, built with less work where that
    provably changes nothing.

    * A NamedTuple is the tuple of its values: ``tuple.__new__``.
    * A dataclass whose ``__init__`` is the generated one (compiled from a
      string, taking exactly the fields, positionally) with no
      ``__post_init__``, no slots and no custom ``__setattr__`` or
      ``__new__`` only stores each value under its field name: a function
      compiled here writes them into a fresh instance's ``__dict__``, in
      the same order (for a frozen record that skips one
      ``object.__setattr__`` call per field).
    * Anything else — a record that validates in ``__post_init__``, like
      ``JobSpec``, or an enum — keeps ``cls(*values)``, so what it refuses
      still surfaces as a decode error.
    """
    if issubclass(cls, tuple):
        return partial(tuple.__new__, cls)
    code = getattr(cls.__init__, "__code__", None)
    if not (
        dataclasses.is_dataclass(cls)
        and code is not None
        and code.co_filename == "<string>"
        and code.co_varnames[1:code.co_argcount] == fields
        and code.co_kwonlyargcount == 0
        and not hasattr(cls, "__post_init__")
        and not hasattr(cls, "__slots__")
        and cls.__new__ is object.__new__
        and (cls.__dataclass_params__.frozen
             or cls.__setattr__ is object.__setattr__)
    ):
        return partial(_construct, cls)
    slots = [f"_{i}" for i in range(len(fields))]
    lines = ["def build(values):"]
    if fields:
        lines.append(f"    {', '.join(slots)}, = values")
    lines += ["    self = new(cls)", "    d = self.__dict__"]
    lines += [f"    d[{field!r}] = {slot}" for field, slot in zip(fields, slots)]
    lines.append("    return self")
    namespace = {"new": object.__new__, "cls": cls}
    exec("\n".join(lines), namespace)
    return namespace["build"]


def _make_record(wire_name: str, cls: type, tag: int) -> _Record:
    fields = _record_fields(cls)
    return _Record(
        wire_name, cls, fields, tag,
        _record_getter(cls, fields), _record_builder(cls, fields),
    )


class Codec:
    """Encode/decode registry mapping record classes to byte frames.

    The registry is append-only: :meth:`register` at import time, then only
    :meth:`encode` / :meth:`decode` at run time. Decoding always constructs
    fresh objects — two calls never return the same container identity.
    """

    def __init__(self) -> None:
        # Both tables hold the records and enums in registration order.
        self._records_by_name: dict[str, _Record] = {}
        self._records_by_type: dict[type, _Record] = {}
        # The decoder's table: number -> record.
        self._numbered: list[_Record] = []
        # schema_digest(), memoised until the next registration.
        self._digest: str | None = None

    # -- registration -----------------------------------------------------------

    def register(self, cls: type) -> type:
        """Register a dataclass, NamedTuple or Enum as a wire record, under
        the next number.

        A ``set``/``frozenset``-annotated field is an error (its iteration
        order would leak host randomisation onto the wire), and so is a
        number past the one head byte. Idempotent for the same class; a
        *different* class under an already-taken name is an error."""
        wire_name = cls.__name__
        existing = self._records_by_name.get(wire_name)
        if existing is not None:
            if existing.cls is cls:
                return cls
            raise CodecError(
                f"wire name {wire_name!r} already registered for "
                f"{existing.cls.__module__}.{existing.cls.__qualname__}"
            )
        tag = _FIRST_RECORD_TAG + len(self._numbered)
        if tag > 0xFF:
            raise CodecError(
                f"{wire_name}: record number {len(self._numbered)} does not "
                "fit the one head byte"
            )
        record = _make_record(wire_name, cls, tag)
        annotations = _record_annotations(cls)
        set_typed = [
            f for f in record.fields
            if _SET_ANNOTATION.search(annotations.get(f, ""))
        ]
        if set_typed:
            raise CodecError(
                f"{wire_name}: set-typed field(s) {set_typed} — the codec "
                "rejects unordered containers; use a sorted tuple"
            )
        self._records_by_name[wire_name] = record
        self._records_by_type[cls] = record
        self._numbered.append(record)
        self._digest = None
        return cls

    def schema(self) -> dict[str, Any]:
        """The registry as ``WIRE_SCHEMA.lock`` records it: per record its
        number, module (:func:`_module_path`), kind and fields (name,
        annotation text, default text or ``None``), per enum its number,
        module and member values (``repr``). Line numbers stay out, so an
        unrelated edit to a wire module never churns the lockfile."""
        records, enums = {}, {}
        for wire_name, record in sorted(self._records_by_name.items()):
            cls = record.cls
            entry = {
                "number": record.tag - _FIRST_RECORD_TAG,
                "module": _module_path(cls),
            }
            if isinstance(cls, enum.EnumMeta):
                entry["members"] = {
                    name: repr(member.value)
                    for name, member in sorted(cls.__members__.items())
                }
                enums[wire_name] = entry
                continue
            types, defaults = _record_annotations(cls), _default_texts(cls)
            entry["kind"] = "namedtuple" if issubclass(cls, tuple) else "dataclass"
            entry["fields"] = [
                {"name": f, "type": types[f], "default": defaults.get(f)}
                for f in record.fields
            ]
            records[wire_name] = entry
        return {"version": SCHEMA_VERSION, "records": records, "enums": enums}

    def schema_digest(self) -> str:
        """A short digest of :meth:`schema` — what a joiner presents and a
        member compares (one schema per group, PROTOCOLS.md §11).
        Computed once and kept until the next registration."""
        if self._digest is None:
            text = json.dumps(self.schema(), sort_keys=True)
            self._digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
        return self._digest

    # -- encoding ---------------------------------------------------------------

    def encode(self, value: Any) -> bytes:
        """Serialise *value* to a byte frame."""
        out = bytearray()
        self._encode_value(value, out)
        return bytes(out)

    def _encode_value(self, value: Any, out: bytearray) -> None:
        # Exact-type dispatch, builtins first and in the order the measured
        # traffic has them: ``str`` is most of every qstat/poll row, and no
        # builtin can be a registered record or enum, so testing them ahead
        # of the registry lookup changes no frame (``dict``, which only the
        # PVFS directory record carries, comes after it). ``type() is`` keeps
        # bool apart from int and NamedTuple records apart from tuple.
        cls = type(value)
        if cls is str:
            raw = value.encode("utf-8")
            size = len(raw)
            out.append(_T_STR)
            if size < 0x80:
                out.append(size)  # the whole varint
            else:
                _encode_varint(size, out)
            out += raw
        elif cls is int:
            out.append(_T_INT)
            if -0x40 <= value < 0x40:
                # Zig-zag of a small int is one varint byte.
                out.append(value << 1 if value >= 0 else ~(value << 1))
            else:
                _encode_varint(_zigzag(value), out)
        elif value is None:
            out.append(_T_NONE)
        elif cls is Fragment:
            out += value._wire
        elif cls is float:
            out.append(_T_FLOAT)
            out += _FLOAT.pack(value)
        elif cls is list or cls is tuple:
            out.append(_T_LIST if cls is list else _T_TUPLE)
            _encode_varint(len(value), out)
            encode = self._encode_value
            for item in value:
                encode(item, out)
        elif cls is bool:
            out.append(_T_TRUE if value else _T_FALSE)
        elif (record := self._records_by_type.get(cls)) is not None:
            out.append(record.tag)
            encode = self._encode_value
            for item in record.getter(value):
                encode(item, out)
        elif cls is dict:
            out.append(_T_DICT)
            _encode_varint(len(value), out)
            encode = self._encode_value
            # repro-lint: ignore[R3] insertion order IS the wire contract here: the sender's dict order is encoded verbatim and reproduced by decode, so it is deterministic iff the sender built the dict deterministically (which R3 checks at the send sites)
            for key, item in value.items():
                encode(key, out)
                encode(item, out)
        elif cls is bytes:
            out.append(_T_BYTES)
            _encode_varint(len(value), out)
            out += value
        elif isinstance(value, (set, frozenset)):
            raise CodecError(
                "sets cannot cross the wire: their iteration order is hash-"
                "dependent; send a sorted tuple instead"
            )
        else:
            raise CodecError(
                f"unregistered wire type {cls.__module__}.{cls.__qualname__}; "
                "declare it with register_wire_types()"
            )

    # -- decoding ---------------------------------------------------------------

    def decode(self, frame: bytes) -> Any:
        """Reconstruct a fresh value from a byte frame.

        Malformed input raises :class:`CodecError` and nothing else: what
        corrupt bytes provoke further down — a string that is not UTF-8 or
        an unhashable dict key — is converted here, at the one public
        entry. An enum value or record arguments the class itself refuses
        are converted where the record is built, naming it and its first
        byte."""
        try:
            value, pos = self._decode_value(frame, 0)
        except CodecError:
            raise
        except Exception as exc:
            raise CodecError(
                f"malformed frame: {type(exc).__name__}: {exc}"
            ) from exc
        if pos != len(frame):
            raise _codec_error(
                f"{len(frame) - pos} trailing bytes after decoded value", pos
            )
        return value

    def _decode_value(self, data: bytes, pos: int) -> tuple[Any, int]:
        # Tags tested in the order the measured traffic has them (see
        # ``_encode_value``); a length or small int that fits one varint
        # byte is read in place, anything else (including "no byte there")
        # goes through ``_decode_varint`` and its errors.
        size = len(data)
        if pos >= size:
            raise _codec_error("truncated frame", pos)
        tag = data[pos]
        pos += 1
        if tag == _T_STR:
            if pos < size and (length := data[pos]) < 0x80:
                pos += 1
            else:
                length, pos = _decode_varint(data, pos)
            end = pos + length
            if end > size:
                raise _codec_error("truncated string", pos)
            return data[pos:end].decode("utf-8"), end
        if tag == _T_INT:
            if pos < size and (raw := data[pos]) < 0x80:
                return (raw >> 1) ^ -(raw & 1), pos + 1
            raw, pos = _decode_varint(data, pos)
            return _unzigzag(raw), pos
        if tag == _T_NONE:
            return None, pos
        if tag == _T_FLOAT:
            end = pos + 8
            if end > size:
                raise _codec_error("truncated float", pos)
            return _FLOAT.unpack_from(data, pos)[0], end
        if tag == _T_LIST or tag == _T_TUPLE:
            count, pos = _decode_varint(data, pos)
            decode = self._decode_value
            items = []
            for _ in range(count):
                item, pos = decode(data, pos)
                items.append(item)
            return (tuple(items) if tag == _T_TUPLE else items), pos
        if tag >= _FIRST_RECORD_TAG:
            return self._decode_record(data, pos)
        if tag == _T_DICT:
            count, pos = _decode_varint(data, pos)
            decode = self._decode_value
            mapping = {}
            for _ in range(count):
                key, pos = decode(data, pos)
                item, pos = decode(data, pos)
                mapping[key] = item
            return mapping, pos
        if tag == _T_TRUE:
            return True, pos
        if tag == _T_FALSE:
            return False, pos
        # _T_BYTES, the one tag left.
        length, pos = _decode_varint(data, pos)
        end = pos + length
        if end > size:
            raise _codec_error("truncated bytes", pos)
        return data[pos:end], end

    def _decode_record(self, data: bytes, pos: int) -> tuple[Any, int]:
        """The record whose tag byte is at ``pos - 1``."""
        start = pos - 1
        number = data[start] - _FIRST_RECORD_TAG
        if number >= len(self._numbered):
            raise _codec_error(f"unknown wire record number {number}", start)
        record = self._numbered[number]
        decode = self._decode_value
        values = []
        for field in record.fields:
            try:
                value, pos = decode(data, pos)
            except CodecError as exc:
                _annotate(exc, record.name, field)
                raise
            values.append(value)
        try:
            return record.build(values), pos
        except Exception as exc:
            # The class itself refused the fields (an enum value that does
            # not exist, a record's own validation): name it where it began.
            error = _codec_error(
                f"{record.name} refused its fields: {type(exc).__name__}: {exc}",
                start,
            )
            error.record_context = record.name
            raise error from exc

    # -- diagnostics ------------------------------------------------------------

    def self_check(self) -> None:
        """Cheap structural audit of the registry (run by the CI smoke and
        by the golden harness before it renders the schema): every
        registered record must still construct from positional fields, the
        numbers must run from 0 without a gap and agree with every table,
        and every dataclass, NamedTuple or Enum a registering module exports
        in ``__all__`` must be registered — or say in a ``__wire_local__``
        string why it never crosses the wire."""
        if len(self._numbered) != len(self._records_by_name):
            raise CodecError("number table out of sync")
        registered = set(self._records_by_type)
        for module_name in sorted({cls.__module__ for cls in registered}):
            module = sys.modules.get(module_name)
            for name in getattr(module, "__all__", ()):
                cls = getattr(module, name, None)
                if (
                    isinstance(cls, type)
                    and cls.__module__ == module_name
                    and cls not in registered
                    and "__wire_local__" not in vars(cls)
                    # a dataclass, NamedTuple or Enum declares a shape a
                    # frame could carry; exceptions and services do not
                    and (dataclasses.is_dataclass(cls)
                         or issubclass(cls, (enum.Enum, tuple)))
                ):
                    raise CodecError(
                        f"{module_name}.{name} is exported by a wire module "
                        "but has no codec entry — register it there (or say "
                        "why it never crosses the wire in __wire_local__)"
                    )
        for number, record in enumerate(self._numbered):
            if _record_fields(record.cls) != record.fields:
                raise CodecError(
                    f"{record.name}: field list changed after registration"
                )
            if self._records_by_type.get(record.cls) is not record:
                raise CodecError(f"{record.name}: type table out of sync")
            if self._records_by_name.get(record.name) is not record:
                raise CodecError(f"{record.name}: name table out of sync")
            if record.tag != _FIRST_RECORD_TAG + number:
                raise CodecError(f"{record.name}: record number out of sync")


#: The process-wide registry. Append-only, written only at import time by the
#: wire modules themselves; :class:`~repro.net.network.Network` reads it on
#: every send/deliver.
WIRE = Codec()


def register_wire_types(*classes: type) -> None:
    """Register *classes* (dataclasses, NamedTuples, Enums) on the shared
    codec, numbered in the order given.

    Called at the bottom of each wire module for its own types — the only
    sanctioned write to :data:`WIRE`."""
    for cls in classes:
        WIRE.register(cls)


def encoded_size(value: Any) -> int:
    """Exact on-wire byte count of *value* (excluding datagram header)."""
    return len(WIRE.encode(value))
