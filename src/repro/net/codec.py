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
0x0A   registered record — name + 16-bit schema fingerprint + varint field
       count + encoded fields in declaration order
0x0B   registered enum — name + encoded member value
=====  ======================================================================

Records are tagged by **class name** (stable across processes and import
orders, unlike a numeric id assigned at registration time); the registry
rejects duplicate names. Sets and unregistered classes are *encode errors*:
sets would smuggle hash order onto the wire, and an unregistered dataclass
is a wire type the protocol layer forgot to declare (lint rule R6 enforces
the declaration statically).

Schema evolution
----------------
Each record frame carries a 2-byte :func:`schema_fingerprint` (a CRC of the
record name and its field names, folded to 16 bits) plus the encoded field
count — 3 bytes that let a receiver running a *different version* of a wire
module detect the skew. Decode tolerates it: a frame with *more* fields
than the local declaration decodes positionally and skips the unknown
trailing fields; a frame with *fewer* fields fills the absent trailing
fields from the local declaration's defaults. Either way the sender's field
prefix is trusted positionally — which is exactly the evolution contract
lint rule R7 enforces statically against ``WIRE_SCHEMA.lock`` (appends at
the tail only, never renames/reorders). A fingerprint mismatch at *equal*
field count (a rename or reorder — unalignable positionally) is an error,
and so is a shorter frame whose absent field declares no default.

:meth:`Codec.clone` derives a per-node codec with individual records
swapped for evolved versions — the rolling-upgrade harness used by the
mixed-version integration tests (the superseded class stays encodable, so
shared protocol code that still constructs it keeps working).

Wire-optional trailing fields
-----------------------------
:func:`mark_wire_optional` declares a contiguous *defaulted tail* of a
record's fields as elidable: when every field of a trailing run still holds
its declared default, the encoder omits that run and emits the fingerprint
and count of the remaining *prefix* declaration instead. A record that has
never set its new fields therefore produces **byte-identical frames to the
pre-extension declaration** — which is how a wire record can grow without
perturbing pinned wire-digest baselines. The rule lives in one function,
which the encoder and :func:`elided_repr` share; the decoder recognises
each prefix by its shape (below) and fills the elided tail from the
defaults.

Same bytes, less work
---------------------
Many encoded bytes are values sent before: every qstat reply ships the
rows of the jobs it names, and a job's row changes only on a state
transition. Three host-time devices exploit that and the fixed shape of
every record; none moves a byte of any frame.

* **Encode** — :class:`PlainFragment` holds the bytes of a builtins-only
  value, encoded once by its owner; the encoder splices them verbatim.
* **Records** — each registered record carries, for every field count it
  can send, its complete head bytes (tag, name, fingerprint, count), and
  one getter returning all its field values at once; the encoder appends
  the head and iterates the values. It also keeps one table of those
  *shapes* — the full declaration first, then each wire-optional prefix:
  the header bytes (fingerprint, count), the fields sent and the default
  factories of the elided tail. The decoder finds the record by the raw
  bytes of its name, matches the frame's header against the shapes and
  decodes the fields in one loop; any other header — another version's
  shape, or a count spelled in a longer varint — takes the one tolerant
  path of "Schema evolution" above. Both paths make the record through
  its ``build``, chosen once at registration: ``tuple.__new__`` for a
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
  decoder, so truncated, corrupted and mixed-version frames miss, take the
  ordinary path and raise the ordinary errors. Reaching ``_MEMO_CAP``
  entries empties it.

Registry
--------
Registration is decentralised to respect the layering contract: each wire
module calls :func:`register_wire_types` / :func:`register_wire_enum` on its
own dataclasses at import time (``gcs/messages.py`` registers the GCS
messages, ``pbs/wire.py`` the PBS requests, ...). The module-level ``WIRE``
singleton is append-only and written only at import time, so it stays safe
for two simulations sharing one interpreter.
"""

from __future__ import annotations

import dataclasses
import enum
import marshal
import operator
import struct
import zlib
from functools import partial
from typing import Any

from repro.util.errors import NetworkError

__all__ = [
    "Codec",
    "CodecError",
    "PlainFragment",
    "WIRE",
    "register_wire_types",
    "register_wire_enum",
    "mark_wire_optional",
    "elided_repr",
    "encoded_size",
    "schema_fingerprint",
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


def schema_fingerprint(name: str, fields: tuple[str, ...]) -> int:
    """16-bit schema fingerprint of a record: CRC-32 of the wire name and
    field names (declaration order), folded to 16 bits. Carried in every
    record frame (2 bytes) so a receiver can detect version skew; the
    static extractor (``repro.analysis.schema``) computes the identical
    value from the AST, which is what the lockfile completeness test pins.

    Field *names* only — a type-annotation change is invisible at runtime
    (the codec is self-describing per value) and is gated statically by
    lint rule R7 instead."""
    crc = zlib.crc32(",".join((name, *fields)).encode("utf-8"))
    return (crc ^ (crc >> 16)) & 0xFFFF


class PlainFragment:
    """The wire bytes of a value made only of builtins, encoded once.

    A sender that ships the same plain value many times (a job's qstat/poll
    row, unchanged between scheduler polls) builds the fragment once and
    puts *it* in its payloads; the encoder splices the bytes verbatim, so
    the frame is byte-identical to one built from the value itself.

    The value is encoded by a codec with an empty registry: a record or an
    enum inside it is a :class:`CodecError` (as is a set), so the bytes hold
    no wire name, fingerprint or field count and are the same under every
    :meth:`Codec.clone` of a mixed-version group. Decoding never produces a
    fragment — the receiver gets the plain value. Immutable; equal and
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
    """One registered record class: wire name, field order, and the
    schema-evolution metadata (fingerprint, zero-arg default factories for
    tolerant decode), plus, for every field count it can send (one per
    :func:`mark_wire_optional` prefix), the complete head the encoder
    appends and the shape the decoder matches; and one getter for all
    field values, and one builder of a fresh instance from them."""

    name: str
    cls: type
    fields: tuple[str, ...]
    fingerprint: int
    defaults: dict[str, Any]      # field name -> zero-arg factory
    min_fields: int               # shortest sendable prefix length
    optional_defaults: tuple[Any, ...]   # default values, fields[min_fields:]
    heads: tuple[bytes, ...]      # tag + name + header, per count k - min_fields
    getter: Any                   # value -> tuple of every field value
    build: Any                    # list of every field value -> instance
    # (header: fingerprint (>H) + varint count, fields sent, default
    # factories of the elided tail), full declaration first, then shorter
    shapes: tuple[tuple[bytes, tuple[str, ...], tuple[Any, ...]], ...]


def _record_fields(cls: type) -> tuple[str, ...]:
    if dataclasses.is_dataclass(cls):
        return tuple(f.name for f in dataclasses.fields(cls))
    if issubclass(cls, tuple) and hasattr(cls, "_fields"):
        return tuple(cls._fields)
    raise CodecError(
        f"{cls.__name__} is neither a dataclass nor a NamedTuple; "
        "only declared record shapes can cross the wire"
    )


def _record_defaults(cls: type) -> dict[str, Any]:
    """Field name -> zero-arg factory for every field with a declared
    default (what tolerant decode fills absent trailing fields from)."""
    factories: dict[str, Any] = {}
    if dataclasses.is_dataclass(cls):
        for f in dataclasses.fields(cls):
            if f.default is not dataclasses.MISSING:
                default = f.default
                factories[f.name] = lambda default=default: default
            elif f.default_factory is not dataclasses.MISSING:
                factories[f.name] = f.default_factory
    elif hasattr(cls, "_field_defaults"):
        for field_name, default in sorted(cls._field_defaults.items()):
            factories[field_name] = lambda default=default: default
    return factories


def _record_header(fingerprint: int, count: int) -> bytes:
    header = bytearray(struct.pack(">H", fingerprint))
    _encode_varint(count, header)
    return bytes(header)


def _record_head(wire_name: str, fingerprint: int, count: int) -> bytes:
    """Everything a record frame holds before its first field."""
    raw = wire_name.encode("utf-8")
    head = bytearray((_T_RECORD,))
    _encode_varint(len(raw), head)
    return bytes(head + raw) + _record_header(fingerprint, count)


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
    fingerprint = schema_fingerprint(wire_name, fields)
    defaults = _record_defaults(cls)
    optional = tuple(getattr(cls, "__wire_optional__", ()))
    if optional:
        if optional != fields[len(fields) - len(optional):]:
            raise CodecError(
                f"{wire_name}: __wire_optional__ {optional!r} is not the "
                f"trailing run of the declared fields {fields!r}"
            )
        missing = [f for f in optional if f not in defaults]
        if missing:
            raise CodecError(
                f"{wire_name}: wire-optional fields {missing!r} declare no "
                "default — elision needs a value to fill back in"
            )
    min_fields = len(fields) - len(optional)
    optional_defaults = tuple(defaults[f]() for f in optional)
    heads = tuple(
        _record_head(wire_name, schema_fingerprint(wire_name, fields[:k]), k)
        for k in range(min_fields, len(fields) + 1)
    )
    shapes = tuple(
        (_record_header(schema_fingerprint(wire_name, fields[:k]), k),
         fields[:k], tuple(defaults[f] for f in fields[k:]))
        for k in range(len(fields), min_fields - 1, -1)
    )
    return _Record(
        wire_name, cls, fields, fingerprint, defaults, min_fields,
        optional_defaults, heads, _record_getter(cls, fields),
        _record_builder(cls, fields), shapes,
    )


def _sent_count(record: _Record, values: tuple) -> int:
    """How many leading *values* a frame of *record* carries: all but the
    longest trailing run of wire-optional fields still holding their
    declared defaults (type-exact compare: ``False == 0`` must not elide an
    int against a bool)."""
    send = len(values)
    floor = record.min_fields
    while send > floor:
        default = record.optional_defaults[send - 1 - floor]
        held = values[send - 1]
        if type(held) is type(default) and held == default:
            send -= 1
        else:
            break
    return send


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
        # Decode memo: complete encoding of a plain dict -> marshal snapshot
        # of its value, and first _MEMO_KEY bytes -> the lengths remembered.
        self._memo: dict[bytes, bytes] = {}
        self._memo_lengths: dict[bytes, list[int]] = {}

    # -- registration -----------------------------------------------------------

    def register(
        self, cls: type, *, name: str | None = None, replace: bool = False
    ) -> type:
        """Register a dataclass or NamedTuple as a wire record.

        Idempotent for the same class; a *different* class under an already-
        taken name is an error (names are the wire tag and must be unique)
        unless *replace* is set — then the new class takes over the name for
        decode and the superseded class stays registered for encode only
        (under its own, older shape), which is how :meth:`clone` models a
        node whose wire module evolved while shared protocol code still
        constructs the old class."""
        wire_name = name or cls.__name__
        existing = self._records_by_name.get(wire_name)
        if existing is not None:
            if existing.cls is cls:
                return cls
            if not replace:
                raise CodecError(
                    f"wire name {wire_name!r} already registered for "
                    f"{existing.cls.__module__}.{existing.cls.__qualname__}"
                )
        record = _make_record(wire_name, cls)
        self._records_by_name[wire_name] = record
        self._records_by_raw[wire_name.encode("utf-8")] = record
        self._records_by_type[cls] = record
        return cls

    def register_enum(
        self, cls: type, *, name: str | None = None, replace: bool = False
    ) -> type:
        """Register an :class:`enum.Enum` whose members may ride in fields."""
        if not (isinstance(cls, type) and issubclass(cls, enum.Enum)):
            raise CodecError(f"{cls!r} is not an Enum")
        wire_name = name or cls.__name__
        existing = self._enums_by_name.get(wire_name)
        if existing is not None:
            if existing is cls:
                return cls
            if not replace:
                raise CodecError(
                    f"enum wire name {wire_name!r} already registered"
                )
        self._enums_by_name[wire_name] = cls
        self._enum_types[cls] = wire_name
        return cls

    def clone(self, overrides: dict[str, type] | None = None) -> Codec:
        """A new codec with this one's registry, optionally with individual
        wire names rebound to evolved classes (*overrides* maps wire name ->
        class). The superseded class remains encodable under its old shape,
        so shared code constructing it still works — the rolling-upgrade
        harness for mixed-version groups (``Network.set_node_codec``)."""
        other = Codec()
        for wire_name, record in sorted(self._records_by_name.items()):
            other.register(record.cls, name=wire_name)
        for wire_name, cls in sorted(self._enums_by_name.items()):
            other.register_enum(cls, name=wire_name)
        for wire_name, cls in sorted((overrides or {}).items()):
            if isinstance(cls, type) and issubclass(cls, enum.Enum):
                other.register_enum(cls, name=wire_name, replace=True)
            else:
                other.register(cls, name=wire_name, replace=True)
        return other

    def registered_records(self) -> list[type]:
        """Registered record classes, sorted by wire name (for tests/CI)."""
        return [r.cls for _, r in sorted(self._records_by_name.items())]

    def record_shapes(self) -> dict[str, dict[str, Any]]:
        """Wire name -> ``{"module", "fields", "defaults", "fingerprint"}``
        for every registered record — the runtime half of what the static
        schema extractor derives from the AST (the lockfile completeness
        test asserts the two agree)."""
        return {
            wire_name: {
                "module": record.cls.__module__,
                "fields": list(record.fields),
                "defaults": sorted(record.defaults),
                "fingerprint": record.fingerprint,
            }
            for wire_name, record in sorted(self._records_by_name.items())
        }

    def enum_shapes(self) -> dict[str, dict[str, Any]]:
        """Wire name -> ``{"module", "members"}`` for registered enums."""
        return {
            wire_name: {
                "module": cls.__module__,
                "members": {member.name: member.value for member in cls},
            }
            for wire_name, cls in sorted(self._enums_by_name.items())
        }

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
            values = record.getter(value)
            if record.optional_defaults:
                send = _sent_count(record, values)
                values = values[:send]
                out += record.heads[send - record.min_fields]
            else:
                out += record.heads[0]
            encode = self._encode_value
            for item in values:
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

    def _decode_fields(
        self,
        data: bytes,
        pos: int,
        fields: tuple[str, ...],
        name: str,
    ) -> tuple[list[Any], int]:
        """Decode *fields* in order, annotating any failure with the
        innermost record/field it happened inside (satisfies "say where,
        not just what" for truncated frames)."""
        values = []
        for field in fields:
            try:
                value, pos = self._decode_value(data, pos)
            except CodecError as exc:
                _annotate(exc, name, field)
                raise
            values.append(value)
        return values, pos

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
        name = record.name
        decode = self._decode_value
        for header, fields, tail in record.shapes:
            if data.startswith(header, pos):
                # One of the local declaration's own shapes.
                pos += len(header)
                values = []
                for field in fields:
                    try:
                        value, pos = decode(data, pos)
                    except CodecError as exc:
                        _annotate(exc, name, field)
                        raise
                    values.append(value)
                if tail:
                    values.extend(factory() for factory in tail)
                return record.build(values), pos
        return self._decode_tolerant(data, pos, record, start)

    def _decode_tolerant(
        self, data: bytes, pos: int, record: _Record, start: int
    ) -> tuple[Any, int]:
        """A record frame matching none of the local declaration's shapes:
        the sender runs another version of the wire module, or spelled the
        count in a longer varint. Applies the R7 evolution contract
        (trailing appends only); an unalignable skew raises."""
        name = record.name
        if pos + 2 > len(data):
            raise _codec_error(
                f"truncated schema fingerprint of record {name}", pos
            )
        sent_fp = (data[pos] << 8) | data[pos + 1]
        sent_count, pos = _decode_varint(data, pos + 2)
        local = len(record.fields)
        if sent_count == local and sent_fp != record.fingerprint:
            raise _codec_error(
                f"schema mismatch for record {name} (sender 0x{sent_fp:04X} "
                f"with {sent_count} fields, local 0x{record.fingerprint:04X} "
                f"with {local} fields): same field count but different "
                "fingerprint — a renamed or reordered field cannot be "
                "aligned positionally", start
            )
        if sent_count >= local:
            # The local declaration, or a newer sender: take the local
            # fields positionally and skip the unknown trailing ones.
            values, pos = self._decode_fields(data, pos, record.fields, name)
            for _ in range(sent_count - local):
                try:
                    _, pos = self._decode_value(data, pos)
                except CodecError as exc:
                    _annotate(exc, name, "<unknown trailing field>")
                    raise
            return record.build(values), pos
        # The sender is older: decode the common prefix, fill the absent
        # trailing fields from the local declaration's defaults.
        values, pos = self._decode_fields(
            data, pos, record.fields[:sent_count], name
        )
        for field in record.fields[sent_count:]:
            factory = record.defaults.get(field)
            if factory is None:
                raise _codec_error(
                    f"cannot fill field {field!r} of {name}: the sender "
                    f"sent {sent_count} fields and {field!r} declares no "
                    "default (breaking delta — see WIRE_SCHEMA.lock)", start
                )
            values.append(factory())
        return record.build(values), pos

    # -- diagnostics ------------------------------------------------------------

    def self_check(self) -> None:
        """Cheap structural audit of the registry (run by the CI smoke):
        every registered record must still construct from positional fields,
        and names must round-trip through the name tables."""
        if len(self._records_by_raw) != len(self._records_by_name):
            raise CodecError("raw-name table out of sync")
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
            if record.heads[-1] != _record_head(
                    record.name, record.fingerprint, len(record.fields)):
                raise CodecError(f"{record.name}: record head out of sync")
            if schema_fingerprint(record.name, record.fields) != record.fingerprint:
                raise CodecError(
                    f"{record.name}: schema fingerprint out of sync"
                )
            optional = tuple(getattr(record.cls, "__wire_optional__", ()))
            if len(record.fields) - len(optional) != record.min_fields:
                raise CodecError(
                    f"{record.name}: wire-optional tail changed after "
                    "registration"
                )
            # One shape per sendable count, full declaration first: its
            # header ends the head sent at that count, its tail is filled.
            expected = [
                (_record_header(schema_fingerprint(record.name, record.fields[:k]), k),
                 record.fields[:k], len(record.fields) - k)
                for k in range(len(record.fields), record.min_fields - 1, -1)
            ]
            if [(h, sent, len(t)) for h, sent, t in record.shapes] != expected or not all(
                    head.endswith(h) for head, (h, _, _) in zip(record.heads[::-1], record.shapes)):
                raise CodecError(f"{record.name}: shape table out of sync")


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


def mark_wire_optional(cls: type, *fields: str) -> type:
    """Declare *fields* — a contiguous defaulted tail of *cls*'s wire fields
    — as elidable on the wire (see the module docstring). Call **before**
    :func:`register_wire_types`, in the wire module that declares the
    record; the marker lives on the class so :meth:`Codec.clone` re-derives
    the elision tables when it re-registers the class."""
    declared = _record_fields(cls)
    if tuple(fields) != declared[len(declared) - len(fields):]:
        raise CodecError(
            f"{cls.__name__}: wire-optional fields {fields!r} must be the "
            f"trailing run of the declared fields {declared!r}"
        )
    cls.__wire_optional__ = tuple(fields)
    # Validate eagerly (defaults present, etc.) via a throwaway build.
    _make_record(cls.__name__, cls)
    return cls


def elided_repr(value: Any) -> str:
    """A ``repr`` that mirrors the wire frame: trailing wire-optional
    fields still holding their declared defaults are omitted, so a record
    that never set its new fields reprs exactly like the pre-extension
    declaration did. Wire modules adopt it per record::

        @dataclasses.dataclass(frozen=True, repr=False)
        class JStatReq:
            ...
            __repr__ = elided_repr
    """
    cls = type(value)
    record = WIRE._records_by_type.get(cls) or _make_record(cls.__name__, cls)
    values = record.getter(value)
    body = ", ".join(
        f"{field}={held!r}"
        for field, held in zip(record.fields, values[:_sent_count(record, values)])
    )
    return f"{cls.__qualname__}({body})"


def encoded_size(value: Any, codec: Codec | None = None) -> int:
    """Exact on-wire byte count of *value* (excluding datagram header)."""
    return len((codec or WIRE).encode(value))
