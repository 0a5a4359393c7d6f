"""Generic JSON (de)serialization of the pipeline's record dataclasses."""

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
    take the field's default; a missing required key raises KeyError and a
    value of a type the field's hint does not take raises TypeError.
    """
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


# json.dumps(row, sort_keys=True) without building an encoder per row
_encode = json.JSONEncoder(sort_keys=True).encode


def write_jsonl(path, rows):
    """One sort_keys JSON object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(_encode(row))
            fh.write("\n")


def load(cls, d, where: str):
    """from_dict(cls, d), with any error from the data a ValueError naming `where`.

    A str `d` is first decoded as JSON.
    """
    # not `with naming(where)`, which costs twice as much once per record line
    try:
        return from_dict(cls, json.loads(d) if isinstance(d, str) else d)
    except (TypeError, KeyError, ValueError) as exc:
        raise ValueError(f"{where}: {type(exc).__name__}: {exc}") from exc


@contextlib.contextmanager
def naming(where: str):
    """Re-raise an error from the data read inside as `load` does, naming `where`."""
    try:
        yield
    except (TypeError, KeyError, ValueError) as exc:
        raise ValueError(f"{where}: {type(exc).__name__}: {exc}") from exc


def read_jsonl(path, cls) -> list:
    """Every non-blank line of a JSONL file as a `cls` record."""
    with open(path, encoding="utf-8") as fh:
        return [load(cls, line, f"{path}: line {n}")
                for n, line in enumerate(fh, 1) if line.strip()]
