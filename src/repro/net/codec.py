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
0x0A   registered record — varint name length + UTF-8 name + encoded
       fields in declaration order
0x0B   registered enum — name + encoded member value
=====  ======================================================================

Records are tagged by **class name** (stable across processes and import
orders, unlike a numeric id assigned at registration time); the registry
rejects duplicate names. Sets and unregistered classes are *encode errors*:
sets would smuggle hash order onto the wire, and an unregistered dataclass
is a wire type the protocol layer forgot to declare. Both also fail at
import (the registration contract below).

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
transition. Three host-time devices exploit that and the fixed shape of
every record; none moves a byte of any frame.

* **Encode** — :class:`PlainFragment` holds the bytes of a builtins-only
  value, encoded once by its owner; the encoder splices them verbatim.
* **Records** — each registered record carries its complete head bytes
  (tag, name length, name) and one getter returning all its field values
  at once; the encoder appends the head and iterates the values. The
  decoder finds the record by the raw bytes of its name, decodes the
  fields in one loop and makes the record through its ``build``, chosen
  once at registration: ``tuple.__new__`` for a
  NamedTuple, a function compiled there that fills a fresh instance's
  ``__dict__`` for a dataclass whose generated ``__init__`` only stores
  its arguments, and ``cls(*values)`` for anything else (``JobSpec``
  validates in ``__post_init__``, and what it refuses stays a decode
  error).
* **Decode** — each :class:`Codec` keeps a bounded memo of the plain dicts
  it has decoded: complete encoding -> ``marshal`` snapshot of the value,
  indexed by the encoding's first ``_MEMO_KEY`` bytes -> the lengths
  remembered under that prefix. At a dict tag the decoder looks the next
  ``_MEMO_KEY`` bytes up and probes each remembered length that still fits
  in the frame; a hit returns a freshly deserialised copy and skips the
  bytes. This is sound because the format is prefix-free — a complete
  encoding found at ``pos`` is exactly what the decoder would consume
  there, and a plain dict's value depends on nothing else (no registry)
  — and fresh because a hit shares no mutable object with
  the memo or with any other result. The memo is a pure function of the
  frame bytes this codec has decoded: nothing passes from encoder to
  decoder, so truncated and corrupted frames miss, take the ordinary path
  and raise the ordinary errors. Reaching ``_MEMO_CAP``
  entries empties it.

Registry
--------
Registration is decentralised to respect the layering contract: each wire
module calls :func:`register_wire_types` / :func:`register_wire_enum` on its
own dataclasses at import time (``gcs/messages.py`` registers the GCS
messages, ``pbs/wire.py`` the PBS requests, ...), and the package's
``__init__`` imports every wire module, so the registry is the same in
every process. The module-level ``WIRE`` singleton is append-only and
written only at import time, so it stays safe for two simulations sharing
one interpreter.

The registry is also the wire schema: :meth:`Codec.schema` renders it as
the committed ``WIRE_SCHEMA.lock``, one entry of the golden harness
(``python tools/golden.py check WIRE_SCHEMA``), and
:meth:`Codec.schema_digest` condenses it for the join check.

Registration contract
---------------------
Enforced when a wire module is imported, so a violation never reaches a
frame:

* a record is a dataclass or a NamedTuple (an ``Enum`` goes through
  :func:`register_wire_enum`), and no field is ``set``/``frozenset``-typed;
* a wire name belongs to one class;
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
import marshal
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
    "PlainFragment",
    "SCHEMA_VERSION",
    "WIRE",
    "register_wire_types",
    "register_wire_enum",
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
_T_RECORD = 0x0A
_T_ENUM = 0x0B

_FLOAT = struct.Struct(">d")

#: Decode memo (see the module docstring): how many leading bytes of a
#: dict's encoding index the lengths remembered for it, the longest encoding
#: worth a snapshot (a qstat row is 150-250 bytes), and the entry count at
#: which the memo is emptied. Together they bound its memory.
_MEMO_KEY = 20
_MEMO_MAX = 1024
_MEMO_CAP = 4096


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


class PlainFragment:
    """The wire bytes of a value made only of builtins, encoded once.

    A sender that ships the same plain value many times (a job's qstat/poll
    row, unchanged between scheduler polls) builds the fragment once and
    puts *it* in its payloads; the encoder splices the bytes verbatim, so
    the frame is byte-identical to one built from the value itself.

    The value is encoded by a codec with an empty registry: a record or an
    enum inside it is a :class:`CodecError` (as is a set), so the bytes hold
    no wire name and are the same under every registry. Decoding never
    produces a fragment — the receiver gets the plain value. Immutable; equal and
    hashed by its bytes; ``repr`` is the value's own (payload printers such
    as ``wiretrace`` cannot tell it from the value it stands for).
    """

    __slots__ = ("_wire",)

    def __init__(self, value: Any) -> None:
        out = bytearray()
        Codec()._encode_value(value, out)
        object.__setattr__(self, "_wire", bytes(out))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("PlainFragment is immutable")

    def __eq__(self, other: object) -> bool:
        return type(other) is PlainFragment and other._wire == self._wire

    def __hash__(self) -> int:
        return hash(self._wire)

    def __repr__(self) -> str:
        return repr(Codec()._decode_value(self._wire, 0)[0])


@dataclasses.dataclass(frozen=True, eq=False)
class _Record:
    """One registered record class: wire name, field order, the head every
    frame of it starts with, one getter for all field values and one
    builder of a fresh instance from them."""

    name: str
    cls: type
    fields: tuple[str, ...]
    head: bytes                   # tag + varint name length + UTF-8 name
    getter: Any                   # value -> tuple of every field value
    build: Any                    # list of every field value -> instance


def _record_fields(cls: type) -> tuple[str, ...]:
    if dataclasses.is_dataclass(cls):
        return tuple(f.name for f in dataclasses.fields(cls))
    if issubclass(cls, tuple) and hasattr(cls, "_fields"):
        return tuple(cls._fields)
    raise CodecError(
        f"{cls.__name__} is neither a dataclass nor a NamedTuple; "
        "only declared record shapes can cross the wire"
    )


#: Version of the format :meth:`Codec.schema` renders (``WIRE_SCHEMA.lock``).
SCHEMA_VERSION = 2

_SET_ANNOTATION = re.compile(r"\b(set|Set|frozenset|FrozenSet)\b")


def _annotation_text(annotation: Any) -> str:
    """An annotation as its source text: with ``from __future__ import
    annotations`` a dataclass keeps the string and a NamedTuple wraps it in
    a ``ForwardRef``."""
    text = getattr(annotation, "__forward_arg__", annotation)
    return text if isinstance(text, str) else inspect.formatannotation(text)


def _record_annotations(cls: type) -> dict[str, str]:
    """Field name -> annotation source text, inherited fields included."""
    if dataclasses.is_dataclass(cls):
        return {f.name: _annotation_text(f.type) for f in dataclasses.fields(cls)}
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


def _record_head(wire_name: str) -> bytes:
    """Everything a record frame holds before its first field."""
    raw = wire_name.encode("utf-8")
    head = bytearray((_T_RECORD,))
    _encode_varint(len(raw), head)
    return bytes(head + raw)


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
      ``JobSpec`` — keeps ``cls(*values)``, so what it refuses still
      surfaces as a decode error.
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


def _make_record(wire_name: str, cls: type) -> _Record:
    fields = _record_fields(cls)
    return _Record(
        wire_name, cls, fields, _record_head(wire_name),
        _record_getter(cls, fields), _record_builder(cls, fields),
    )


class Codec:
    """Encode/decode registry mapping record classes to byte frames.

    The registry is append-only: :meth:`register` at import time, then only
    :meth:`encode` / :meth:`decode` at run time. Decoding always constructs
    fresh objects — two calls never return the same container identity.
    """

    def __init__(self) -> None:
        self._records_by_name: dict[str, _Record] = {}
        self._records_by_type: dict[type, _Record] = {}
        # The decoder's view of _records_by_name: UTF-8 name -> record.
        self._records_by_raw: dict[bytes, _Record] = {}
        self._enums_by_name: dict[str, type] = {}
        self._enum_types: dict[type, str] = {}
        # schema_digest(), memoised until the next registration.
        self._digest: str | None = None
        # Decode memo: complete encoding of a plain dict -> marshal snapshot
        # of its value, and first _MEMO_KEY bytes -> the lengths remembered.
        self._memo: dict[bytes, bytes] = {}
        self._memo_lengths: dict[bytes, list[int]] = {}

    # -- registration -----------------------------------------------------------

    def register(self, cls: type) -> type:
        """Register a dataclass or NamedTuple as a wire record.

        A ``set``/``frozenset``-annotated field is an error (its iteration
        order would leak host randomisation onto the wire). Idempotent for
        the same class; a *different* class under an already-taken name is
        an error (names are the wire tag and must be unique)."""
        wire_name = cls.__name__
        existing = self._records_by_name.get(wire_name)
        if existing is not None:
            if existing.cls is cls:
                return cls
            raise CodecError(
                f"wire name {wire_name!r} already registered for "
                f"{existing.cls.__module__}.{existing.cls.__qualname__}"
            )
        record = _make_record(wire_name, cls)
        annotations = _record_annotations(cls)
        set_typed = [
            f for f in record.fields if _SET_ANNOTATION.search(annotations[f])
        ]
        if set_typed:
            raise CodecError(
                f"{wire_name}: set-typed field(s) {set_typed} — the codec "
                "rejects unordered containers; use a sorted tuple"
            )
        self._records_by_name[wire_name] = record
        self._records_by_raw[wire_name.encode("utf-8")] = record
        self._records_by_type[cls] = record
        self._digest = None
        return cls

    def register_enum(self, cls: type) -> type:
        """Register an :class:`enum.Enum` whose members may ride in fields."""
        if not (isinstance(cls, type) and issubclass(cls, enum.Enum)):
            raise CodecError(f"{cls!r} is not an Enum")
        wire_name = cls.__name__
        existing = self._enums_by_name.get(wire_name)
        if existing is not None:
            if existing is cls:
                return cls
            raise CodecError(f"enum wire name {wire_name!r} already registered")
        self._enums_by_name[wire_name] = cls
        self._enum_types[cls] = wire_name
        self._digest = None
        return cls

    def registered_records(self) -> list[type]:
        """Registered record classes, sorted by wire name (for tests/CI)."""
        return [r.cls for _, r in sorted(self._records_by_name.items())]

    def schema(self) -> dict[str, Any]:
        """The registry as ``WIRE_SCHEMA.lock`` records it: per record its
        module (:func:`_module_path`), kind and fields (name,
        annotation text, default text or ``None``), per enum its module and
        member values (``repr``). Line numbers stay out, so an unrelated
        edit to a wire module never churns the lockfile."""
        records = {}
        for wire_name, record in sorted(self._records_by_name.items()):
            cls = record.cls
            types, defaults = _record_annotations(cls), _default_texts(cls)
            records[wire_name] = {
                "module": _module_path(cls),
                "kind": "namedtuple" if issubclass(cls, tuple) else "dataclass",
                "fields": [
                    {"name": f, "type": types[f], "default": defaults.get(f)}
                    for f in record.fields
                ],
            }
        enums = {
            wire_name: {
                "module": _module_path(cls),
                "members": {
                    name: repr(member.value)
                    for name, member in sorted(cls.__members__.items())
                },
            }
            for wire_name, cls in sorted(self._enums_by_name.items())
        }
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

    def _encode_str(self, value: str, out: bytearray) -> None:
        raw = value.encode("utf-8")
        _encode_varint(len(raw), out)
        out += raw

    def _encode_value(self, value: Any, out: bytearray) -> None:
        # Exact-type dispatch, builtins first and in the order the measured
        # traffic has them: ``str`` is most of every qstat/poll row, and no
        # builtin can be a registered record or enum, so testing them ahead
        # of the two registry lookups changes no frame. ``type() is`` keeps
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
        elif cls is dict:
            out.append(_T_DICT)
            _encode_varint(len(value), out)
            encode = self._encode_value
            # repro-lint: ignore[R3] insertion order IS the wire contract here: the sender's dict order is encoded verbatim and reproduced by decode, so it is deterministic iff the sender built the dict deterministically (which R3 checks at the send sites)
            for key, item in value.items():
                encode(key, out)
                encode(item, out)
        elif cls is PlainFragment:
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
            out += record.head
            encode = self._encode_value
            for item in record.getter(value):
                encode(item, out)
        elif (enum_name := self._enum_types.get(cls)) is not None:
            out.append(_T_ENUM)
            self._encode_str(enum_name, out)
            self._encode_value(value.value, out)
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
                "declare it with register_wire_types()/register_wire_enum()"
            )

    # -- decoding ---------------------------------------------------------------

    def decode(self, frame: bytes) -> Any:
        """Reconstruct a fresh value from a byte frame.

        Malformed input raises :class:`CodecError` and nothing else: what
        corrupt bytes provoke further down — a string that is not UTF-8, an
        unhashable dict key, an enum value or record arguments the class
        itself refuses — is converted here, at the one public entry."""
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

    def _decode_str(self, data: bytes, pos: int) -> tuple[str, int]:
        length, pos = _decode_varint(data, pos)
        end = pos + length
        if end > len(data):
            raise _codec_error("truncated string", pos)
        return data[pos:end].decode("utf-8"), end

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
        if tag == _T_DICT:
            start = pos - 1
            for length in self._memo_lengths.get(
                    data[start:start + _MEMO_KEY], ()):
                # Fit first: a slice past the frame's end comes back short
                # and can equal a shorter remembered encoding.
                end = start + length
                if end <= size and (
                        snapshot := self._memo.get(data[start:end])) is not None:
                    return marshal.loads(snapshot), end
            count, pos = _decode_varint(data, pos)
            decode = self._decode_value
            mapping = {}
            for _ in range(count):
                key, pos = decode(data, pos)
                item, pos = decode(data, pos)
                mapping[key] = item
            if _MEMO_KEY <= pos - start <= _MEMO_MAX:
                self._remember(data[start:pos], mapping)
            return mapping, pos
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
        if tag == _T_TRUE:
            return True, pos
        if tag == _T_FALSE:
            return False, pos
        if tag == _T_RECORD:
            return self._decode_record(data, pos, pos - 1)
        if tag == _T_ENUM:
            start = pos - 1
            name, pos = self._decode_str(data, pos)
            cls = self._enums_by_name.get(name)
            if cls is None:
                raise _codec_error(f"unknown wire enum {name!r}", start)
            value, pos = self._decode_value(data, pos)
            return cls(value), pos
        if tag == _T_BYTES:
            length, pos = _decode_varint(data, pos)
            end = pos + length
            if end > size:
                raise _codec_error("truncated bytes", pos)
            return data[pos:end], end
        raise _codec_error(f"unknown wire tag 0x{tag:02X}", pos - 1)

    def _remember(self, encoded: bytes, mapping: dict) -> None:
        """Memoise a freshly decoded dict under its complete encoding, if it
        is made only of builtins (``marshal`` refuses a record or an enum:
        those decode through the registry, so their value is not a function
        of the bytes alone)."""
        try:
            snapshot = marshal.dumps(mapping)
        except ValueError:
            return
        if len(self._memo) >= _MEMO_CAP:
            self._memo.clear()
            self._memo_lengths.clear()
        self._memo[encoded] = snapshot
        lengths = self._memo_lengths.setdefault(encoded[:_MEMO_KEY], [])
        if len(encoded) not in lengths:
            lengths.append(len(encoded))

    def _decode_record(
        self, data: bytes, pos: int, start: int
    ) -> tuple[Any, int]:
        size = len(data)
        if pos < size and (length := data[pos]) < 0x80:
            pos += 1
        else:
            length, pos = _decode_varint(data, pos)
        end = pos + length
        if end > size:
            raise _codec_error("truncated string", pos)
        record = self._records_by_raw.get(data[pos:end])
        if record is None:
            # Not a registered name's UTF-8: a bad encoding raises here,
            # anything else is an unknown record.
            name = data[pos:end].decode("utf-8")
            raise _codec_error(f"unknown wire record {name!r}", start)
        pos = end
        decode = self._decode_value
        values = []
        for field in record.fields:
            try:
                value, pos = decode(data, pos)
            except CodecError as exc:
                _annotate(exc, record.name, field)
                raise
            values.append(value)
        return record.build(values), pos

    # -- diagnostics ------------------------------------------------------------

    def self_check(self) -> None:
        """Cheap structural audit of the registry (run by the CI smoke and
        by the golden harness before it renders the schema): every
        registered record must still construct from positional fields,
        names must round-trip through the name tables, and every dataclass,
        NamedTuple or Enum a registering module exports in ``__all__`` must
        be registered — or say in a ``__wire_local__`` string why it never
        crosses the wire."""
        if len(self._records_by_raw) != len(self._records_by_name):
            raise CodecError("raw-name table out of sync")
        registered = set(self._records_by_type) | set(self._enum_types)
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
        # repro-lint: ignore[R3] pure audit — raises on the first inconsistency regardless of visit order, no wire or protocol effect
        for record in self._records_by_name.values():
            if _record_fields(record.cls) != record.fields:
                raise CodecError(
                    f"{record.name}: field list changed after registration"
                )
            if self._records_by_type.get(record.cls) is not record:
                raise CodecError(f"{record.name}: type table out of sync")
            if self._records_by_raw.get(record.name.encode("utf-8")) is not record:
                raise CodecError(f"{record.name}: raw-name table out of sync")
            if record.head != _record_head(record.name):
                raise CodecError(f"{record.name}: record head out of sync")


#: The process-wide registry. Append-only, written only at import time by the
#: wire modules themselves; :class:`~repro.net.network.Network` reads it on
#: every send/deliver.
WIRE = Codec()


def register_wire_types(*classes: type) -> None:
    """Register *classes* (dataclasses / NamedTuples) on the shared codec.

    Called at the bottom of each wire module for its own types — the only
    sanctioned write to :data:`WIRE`."""
    for cls in classes:
        WIRE.register(cls)


def register_wire_enum(cls: type) -> type:
    """Register an enum whose members appear inside wire records."""
    return WIRE.register_enum(cls)


def encoded_size(value: Any) -> int:
    """Exact on-wire byte count of *value* (excluding datagram header)."""
    return len(WIRE.encode(value))
