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
    """Type hints of a dataclass, resolved once: (fields, nested, constants).

    fields holds (name, required, convert, accepts) per field, in field
    order, where convert is the field's dataclass type, tuple, or None;
    nested names the fields whose type is a dataclass, and constants holds
    (name, value) per ClassVar. _decoder and _encoder are compiled from it.
    """
    hints = typing.get_type_hints(cls)
    plan = []
    for f in fields(cls):
        hint = hints[f.name]
        convert = hint if is_dataclass(hint) or hint is tuple else None
        plan.append((f.name, f.default is MISSING and f.default_factory is MISSING,
                     convert, _accepts(hint)))
    constants = tuple((name, getattr(cls, name)) for name, hint in hints.items()
                      if typing.get_origin(hint) is typing.ClassVar)
    return (tuple(plan), tuple(name for name, _, c, _ in plan if c not in (None, tuple)),
            constants)


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


@functools.cache
def _decoder(cls):
    """from_dict for `cls`, compiled from its fields as dataclasses compiles __init__.

    The generated function checks the fields in order and raises the first
    error itself: a KeyError for a missing required key, a TypeError for a
    value whose exact type its field's hint does not take (so a JSON true
    or false is not taken for a number), and a nested record's own error
    from its decoder. A missing optional key takes the field's default, or
    its default factory's value, made only then. It calls cls with the
    fields as positional arguments (no record class has a keyword-only or
    non-init field).
    """
    env = {"cls": cls}
    lines, args = [], []
    for i, ((name, required, convert, accepts), f) in enumerate(zip(_schema(cls)[0],
                                                                    fields(cls))):
        v = f"v{i}"
        env[f"accepts{i}"] = accepts
        read = [f"{v} = d[{name!r}]",
                f"if type({v}) not in accepts{i}:",
                f'    raise TypeError(f"{name} is {{type({v}).__name__}}, not '
                + " or ".join(t.__name__ for t in accepts) + '")']
        if convert is tuple:
            read.append(f"{v} = tuple({v})")
        elif convert is not None:
            env[f"convert{i}"] = _decoder(convert)
            read.append(f"{v} = convert{i}({v})")
        if required:
            lines += read
        else:
            factory = f.default_factory is not MISSING
            env[f"default{i}"] = f.default_factory if factory else f.default
            lines += [f"if {name!r} in d:", *(f"    {line}" for line in read),
                      "else:", f"    {v} = default{i}{'()' if factory else ''}"]
        args.append(v)
    source = ("def from_dict(d):\n"
              "    if type(d) is not dict:\n"
              '        raise TypeError(f"{type(d).__name__} is not a JSON object")\n'
              + "".join(f"    {line}\n" for line in lines)
              + f"    return cls({', '.join(args)})\n")
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


# field metadata: the field's key is left out of a row while its value is None
OMITTED_WHILE_NONE = {"omitted_while_none": True}


@functools.cache
def _encoder(cls):
    """_encode(to_dict(row)) for a `cls` row, compiled as _decoder is; None
    when `cls` is no dataclass.

    The generated function reads each field once and returns the row from
    one f-string, keys in sorted order. A value is written by its runtime
    type, among those its field's hint takes: a str by
    encode_basestring_ascii, an int by str(), None as null, and anything
    else by _encode (so a bool, NaN or a value of a type the hint does not
    name still writes what json.dumps writes); a dataclass field by its
    class's encoder. A field with OMITTED_WHILE_NONE metadata has no key
    while its value is None, and each ClassVar of `cls` is a key with its
    value, written once by json.dumps, as a constant.
    """
    if not is_dataclass(cls):
        return None
    plan, _, constants = _schema(cls)
    env = {"enc": _encode, "esc": json.encoder.encode_basestring_ascii, "NULL": "null"}
    reads, items = [], []  # items: (key, value expression, its variable if omitted)
    for i, ((name, _, convert, accepts), f) in enumerate(zip(plan, fields(cls))):
        v = f"v{i}"
        reads.append(f"    {v} = row.{name}\n")
        if convert not in (None, tuple):
            env[f"encode{i}"] = _encoder(convert)
            value = f"encode{i}({v})"
        else:
            value = "".join(fast for t, fast in (
                (str, f"esc({v}) if type({v}) is str else "),
                (int, f"{v} if type({v}) is int else "),
                (type(None), f"NULL if {v} is None else ")) if t in accepts) + f"enc({v})"
        items.append((name, value, v if f.metadata.get("omitted_while_none") else None))
    for name, value in constants:
        env[f"const_{name}"] = json.dumps(value, sort_keys=True)
        items.append((name, f"const_{name}", None))
    items.sort()
    # each key's piece holds the separator before it, so an omitted key's
    # separator goes with it; the first key is always written, and [2:] below
    # cuts its separator off
    assert items[0][2] is None, f"a {cls.__name__} row's first key is omitted while None"
    template, optional = [], []
    for key, value, omitted in items:
        item = f", {json.encoder.encode_basestring_ascii(key)}: {{{value}}}"
        if omitted is None:
            template.append(item)
        else:
            optional.append(f"    p{omitted} = '' if {omitted} is None else f{item!r}\n")
            template.append(f"{{p{omitted}}}")
    # repr quotes the text between the braces; the replacement fields hold no
    # quote or backslash, which an f-string could not hold there before 3.12
    source = ("def encode(row):\n" + "".join(reads) + "".join(optional)
              + f"    return f{'{{' + ''.join(template)[2:] + '}}'!r}\n")
    exec(source, env)
    return env["encode"]


def write_json(path, doc):
    """json.dump(doc, fh, indent=2, sort_keys=True) and a newline, in one write."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_jsonl(path, rows):
    """One sort_keys JSON object per line, in one write: a record by its
    class's compiled encoder, a dict by _encode."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(f"{(_encoder(type(row)) or _encode)(row)}\n")


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


def numbered_records(path, cls):
    """(line number, `cls` record) for each non-blank line of a JSONL file.

    An error from a line's data is a ValueError naming the path and line,
    raised when the line is reached.
    """
    decode = _decoder(cls)
    with open(path, encoding="utf-8") as fh:
        # a line from a file is never "", so isspace() is `not line.strip()`
        for n, line in enumerate(fh, 1):
            if not line.isspace():
                try:
                    record = decode(json.loads(line))
                except (TypeError, KeyError, ValueError) as exc:
                    raise named_error(f"{path}: line {n}", exc) from exc
                yield n, record


def read_jsonl(path, cls) -> list:
    """Every non-blank line of a JSONL file as a `cls` record (numbered_records)."""
    return [record for _, record in numbered_records(path, cls)]


def mean(total, count: int) -> typing.Optional[float]:
    """total / count, the mean of `count` values summing to `total`.

    None when count is 0, never a measured 0: JSON writes null, `show` "-".
    """
    return total / count if count else None


def show(value: typing.Optional[float], spec: str = ".2f") -> str:
    """A mean formatted by `spec`, or "-" for a mean over nothing."""
    return "-" if value is None else format(value, spec)
