"""Generic JSON (de)serialization of record dataclasses, and the empty-mean rule."""

from __future__ import annotations

import contextlib
import functools
import json
import typing
from dataclasses import MISSING, fields, is_dataclass

_ACCEPTS = {str: (str,), int: (int,), float: (int, float), dict: (dict,),
            tuple: (list, tuple), type(None): (type(None),)}


def _accepts(hint) -> tuple:
    """The types json.loads (or to_dict) gives a field of type `hint`."""
    if is_dataclass(hint):
        return (dict,)
    return sum(map(_accepts, typing.get_args(hint)), ()) or _ACCEPTS[hint]


@functools.cache
def _schema(cls) -> tuple:
    """Type hints of a dataclass, resolved once: (fields, nested).

    fields holds (name, required, convert, accepts) per init field, where
    convert is the field's dataclass type, tuple, or None; nested names the
    fields whose type is a dataclass.
    """
    hints = typing.get_type_hints(cls)
    plan = []
    for f in fields(cls):
        if f.init:
            hint = hints[f.name]
            convert = hint if is_dataclass(hint) or hint is tuple else None
            plan.append((f.name, f.default is MISSING and f.default_factory is MISSING,
                         convert, _accepts(hint)))
    return tuple(plan), tuple(name for name, _, c, _ in plan if c not in (None, tuple))


def to_dict(obj) -> dict:
    """A dataclass's fields as a dict, nested dataclass fields as nested dicts.

    Unlike dataclasses.asdict, leaves every other value as it is (no copy);
    json.dumps writes tuples as lists.
    """
    d = dict(vars(obj))
    for name in _schema(type(obj))[1]:
        d[name] = to_dict(d[name])
    return d


def from_dict(cls, d: dict):
    """Rebuild a dataclass from to_dict's output.

    Keys the class does not declare are ignored and missing optional keys
    take the field's default; a missing required key raises KeyError, and a
    non-dict `d` or a value its field's hint does not take raises TypeError.
    """
    return _decoder(cls)(d)


def _checked_from_dict(cls, d):
    """from_dict one field at a time, raising the first error in field order."""
    if type(d) is not dict:
        raise TypeError(f"{type(d).__name__} is not a JSON object")
    kwargs = {}
    for name, required, convert, accepts in _schema(cls)[0]:
        if not required and name not in d:
            continue
        value = d[name]
        # exact types, so a JSON true or false is not taken for a number
        if type(value) not in accepts:
            raise TypeError(f"{name} is {type(value).__name__}, not "
                            + " or ".join(t.__name__ for t in accepts))
        if convert is tuple:
            value = tuple(value)
        elif convert is not None:
            value = from_dict(convert, value)
        kwargs[name] = value
    return cls(**kwargs)


# what a missing key reads as: no field's hint takes type object
_ABSENT = object()


@functools.cache
def _decoder(cls):
    """from_dict for `cls`, compiled from its fields as dataclasses compiles __init__.

    The generated function reads every field with one dict lookup, checks
    every type in one condition and calls cls with the init fields as
    positional arguments (no record class has keyword-only fields). It
    falls back to _checked_from_dict, which raises the error, when a
    required key is missing or a type is wrong; also when a key whose field
    has a default factory is missing, which that call fills in.
    """
    by_name = {f.name: f for f in fields(cls)}
    env = {"cls": cls, "checked": functools.partial(_checked_from_dict, cls)}
    reads, checks, args = [], [], []
    for i, (name, _, convert, accepts) in enumerate(_schema(cls)[0]):
        default = by_name[name].default
        env[f"default{i}"] = _ABSENT if default is MISSING else default
        env[f"accepts{i}"] = accepts
        reads.append(f"    v{i} = d.get({name!r}, default{i})\n")
        checks.append(f"type(v{i}) not in accepts{i}")
        if convert is tuple:
            args.append(f"tuple(v{i})")
        elif convert is not None:
            env[f"convert{i}"] = _decoder(convert)
            args.append(f"convert{i}(v{i})")
        else:
            args.append(f"v{i}")
    source = ("def from_dict(d):\n"
              "    if type(d) is not dict:\n"
              "        return checked(d)\n"
              + "".join(reads)
              + f"    if {' or '.join(checks) or 'False'}:\n"
              "        return checked(d)\n"
              f"    return cls({', '.join(args)})\n")
    exec(source, env)
    return env["from_dict"]


def _row_encoder():
    """json.dumps(row, sort_keys=True), with one encoder built for every row.

    JSONEncoder.encode builds a new C encoder on every call; this builds one
    here and calls it directly. It checks no circular references: a row is
    a tree of to_dict's output, and a cycle would raise RecursionError, not
    ValueError. Without the C encoder it is JSONEncoder.encode.
    """
    c_make_encoder = json.encoder.c_make_encoder
    if c_make_encoder is None:
        return json.JSONEncoder(sort_keys=True).encode
    # the arguments JSONEncoder.iterencode passes for sort_keys=True
    encoder = c_make_encoder(None, json.JSONEncoder().default,
                             json.encoder.encode_basestring_ascii, None, ": ", ", ",
                             True, False, True)
    return lambda row: "".join(encoder(row, 0))


_encode = _row_encoder()


def write_json(path, doc):
    """json.dump(doc, fh, indent=2, sort_keys=True) and a newline, in one write."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_jsonl(path, rows):
    """One sort_keys JSON object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(_encode(row))
            fh.write("\n")


_raw_decode = json.JSONDecoder().raw_decode


def loads_line(line: str):
    """json.loads(line), for a line read from a text file.

    A line that is one JSON value and at most its newline, as every writer
    here writes one, takes a single raw_decode call, without json.loads's
    type and whitespace checks around the same scan. Any other line goes to
    json.loads, which decodes it or raises its error.
    """
    try:
        value, end = _raw_decode(line)
    except ValueError:
        return json.loads(line)
    if line[end:] in ("", "\n"):
        return value
    return json.loads(line)


def named_error(where: str, exc: Exception) -> ValueError:
    """`exc`, raised by the data read at `where`, as a ValueError naming `where`."""
    return ValueError(f"{where}: {type(exc).__name__}: {exc}")


@contextlib.contextmanager
def naming(where: str):
    """Re-raise an error from the data read inside as a ValueError naming `where`."""
    try:
        yield
    except (TypeError, KeyError, ValueError) as exc:
        raise named_error(where, exc) from exc


def read_jsonl(path, cls) -> list:
    """Every non-blank line of a JSONL file as a `cls` record.

    An error from a line's data is a ValueError naming the path and line.
    """
    decode = _decoder(cls)
    records = []
    with open(path, encoding="utf-8") as fh:
        # a line from a file is never "", so isspace() is `not line.strip()`
        for n, line in enumerate(fh, 1):
            if not line.isspace():
                try:
                    records.append(decode(loads_line(line)))
                except (TypeError, KeyError, ValueError) as exc:
                    raise named_error(f"{path}: line {n}", exc) from exc
    return records


def mean(total, count: int) -> typing.Optional[float]:
    """total / count, the mean of `count` values summing to `total`.

    None when count is 0, never a measured 0: JSON writes null, `show` "-".
    """
    return total / count if count else None


def show(value: typing.Optional[float], spec: str = ".2f") -> str:
    """A mean formatted by `spec`, or "-" for a mean over nothing."""
    return "-" if value is None else format(value, spec)
