"""Reading and writing matroid spec files and point batch files.

A matroid spec is a JSON object with a "kind" field; subsets are sorted
0-indexed element lists.  Kinds and their fields:

    {"kind": "bases", "n": 4, "bases": [[0,1], [2,3], ...]}
    {"kind": "uniform", "n": 6, "r": 2}
    {"kind": "schubert_lower", "n": 10,
     "chain": [[0,1], [0,...,6], [0,...,9]], "profile": [0,1,3,4]}
    {"kind": "schubert_upper",  ... same fields ...}
    {"kind": "schubert_order", "n": 10, "order": [0,...,9], "set": [0,2,3,7]}
    {"kind": "dual", "of": {...}}
    {"kind": "delete", "set": [...], "of": {...}}
    {"kind": "contract", "set": [...], "of": {...}}
    {"kind": "direct_sum", "parts": [{...}, {...}, ...]}

The chain lists the nonempty members ending with the full ground set; the
profile starts at 0 and has one more entry than the chain.  Kinds nest
arbitrarily through "of"/"parts".  An optional "id" names the matroid.

A corpus file is JSON lines: one spec object per line.  A point batch
file is a JSON list of coordinate arrays, each coordinate a
[numerator, denominator] pair; load_points_file returns each point as
the integer row (D, W) of `polytopes.scaled_point`, the form in which
sampled points reach the identity checker too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .bitops import mask_of
from .errors import OmegacalcError, SpecFileError
from .matroid import (
    Matroid,
    check_ground_size,
    from_bases,
    order_as_lower,
    schubert_from_order,
    schubert_lower,
    schubert_upper,
    uniform,
    upper_as_lower,
)
from .polytopes import ScaledPoint, scaled_point

SchubertData = tuple[int, tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class LoadedMatroid:
    matroid_id: str
    matroid: Matroid
    schubert: SchubertData | None = None


def _is_int(value) -> bool:
    """JSON integers only: bool is an int subclass, but true is not 1 here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _as_mask(obj, n: int, what: str) -> int:
    if not isinstance(obj, list) or not all(_is_int(e) and 0 <= e < n for e in obj):
        raise SpecFileError(f"{what} must be a list of elements in [0, {n})")
    if len(set(obj)) != len(obj):
        raise SpecFileError(f"{what} has repeated elements")
    return mask_of(obj)


_INT = (_is_int, "an integer")
_LIST = (lambda v: isinstance(v, list), "a list")
_INTS = (lambda v: isinstance(v, list) and all(map(_is_int, v)), "a list of integers")
# the JSON type of every field that _require hands out ("set" and "of" are
# checked where they are read)
_FIELD_TYPES = {"n": _INT, "r": _INT, "bases": _LIST, "chain": _LIST,
                "profile": _INTS, "order": _INTS, "parts": _LIST}


def _require(obj: dict, key: str, kind: str):
    if key not in obj:
        raise SpecFileError(f"kind {kind!r} requires field {key!r}")
    check, what = _FIELD_TYPES.get(key, (lambda v: True, ""))
    if not check(obj[key]):
        raise SpecFileError(f"{kind}: field {key!r} must be {what}")
    if key == "n":
        check_ground_size(obj[key])  # before any mask or list is built over it
    return obj[key]


def matroid_from_spec(obj: dict) -> LoadedMatroid:
    if not isinstance(obj, dict):
        raise SpecFileError("matroid spec must be a JSON object")
    kind = obj.get("kind")
    try:
        matroid_id = str(obj.get("id", ""))
        matroid, schubert = _build(obj, kind)
    except SpecFileError:
        raise
    except RecursionError as exc:
        # kinds nest through "of"/"parts" with no depth limit but the stack's
        raise SpecFileError("matroid spec nested too deeply") from exc
    except OmegacalcError as exc:
        raise SpecFileError(f"invalid matroid spec ({kind}): {exc}") from exc
    return LoadedMatroid(matroid_id, matroid, schubert)


def _build(obj: dict, kind) -> tuple[Matroid, SchubertData | None]:
    if kind == "bases":
        n = _require(obj, "n", kind)
        bases = _require(obj, "bases", kind)
        return from_bases(n, [_as_mask(b, n, "basis") for b in bases]), None
    if kind == "uniform":
        n = _require(obj, "n", kind)
        return uniform(_require(obj, "r", kind), n), None
    if kind in ("schubert_lower", "schubert_upper"):
        n = _require(obj, "n", kind)
        chain = tuple(_as_mask(s, n, "chain member") for s in _require(obj, "chain", kind))
        profile = tuple(_require(obj, "profile", kind))
        if kind == "schubert_lower":
            return schubert_lower(n, chain, profile), (n, chain, profile)
        matroid = schubert_upper(n, chain, profile)
        return matroid, (n, *upper_as_lower(n, chain, profile))
    if kind == "schubert_order":
        n = _require(obj, "n", kind)
        order = _require(obj, "order", kind)
        if sorted(order) != list(range(n)):
            raise SpecFileError("order must be a permutation of range(n)")
        subset = _as_mask(_require(obj, "set", kind), n, "set")
        return schubert_from_order(order, subset), (n, *order_as_lower(order, subset))
    if kind in ("dual", "delete", "contract"):
        inner = _build_spec(_require(obj, "of", kind), f"{kind}: field 'of'")
        if kind == "dual":
            return inner.dual(), None
        mask = _as_mask(_require(obj, "set", kind), inner.n, "set")
        return (inner.delete(mask) if kind == "delete" else inner.contract(mask)), None
    if kind == "direct_sum":
        parts = _require(obj, "parts", kind)
        if len(parts) < 2:
            raise SpecFileError("direct_sum needs at least two parts")
        built = [_build_spec(p, "direct_sum part") for p in parts]
        out = built[0]
        for nxt in built[1:]:
            out = out.direct_sum(nxt)
        return out, None
    raise SpecFileError(f"unknown matroid kind {kind!r}")


def _build_spec(inner, what: str) -> Matroid:
    if not isinstance(inner, dict):
        raise SpecFileError(f"{what} must be a matroid spec object")
    return _build(inner, inner.get("kind"))[0]


def spec_to_json(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def load_matroid_file(path: str | Path) -> list[LoadedMatroid]:
    """Load a single-spec JSON file or a JSON-lines corpus."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecFileError(f"cannot read {path}: {exc}") from exc
    stripped = text.strip()
    if not stripped:
        return []
    # json.loads raises a plain ValueError, not a JSONDecodeError, on an
    # integer of more than sys.get_int_max_str_digits() digits, and a
    # RecursionError on nesting deeper than the stack
    try:
        parsed = json.loads(stripped)
        objs = parsed if isinstance(parsed, list) else [parsed]
    except json.JSONDecodeError:
        objs = []
        for i, line in enumerate(stripped.splitlines(), 1):
            line = line.strip()
            if not line:
                continue
            try:
                objs.append(json.loads(line))
            except (ValueError, RecursionError) as exc:
                raise SpecFileError(f"{path}:{i}: invalid JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise SpecFileError(f"{path}: invalid JSON: {exc}") from exc
    out = []
    for i, obj in enumerate(objs):
        loaded = matroid_from_spec(obj)
        if not loaded.matroid_id:
            suffix = f"#{i}" if len(objs) > 1 else ""
            loaded = LoadedMatroid(
                f"{path.stem}{suffix}", loaded.matroid, loaded.schubert
            )
        out.append(loaded)
    return out


def load_points_file(path: str | Path) -> list[ScaledPoint]:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise SpecFileError(f"cannot read point batch {path}: {exc}") from exc
    if not isinstance(data, list):
        raise SpecFileError("point batch must be a JSON list of points")
    points = []
    for row in data:
        if not isinstance(row, list):
            raise SpecFileError("each point must be a list of [num, den] pairs")
        coords = []
        for pair in row:
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(_is_int(v) for v in pair)
                or pair[1] == 0
            ):
                raise SpecFileError("each coordinate must be [numerator, denominator]")
            coords.append(Fraction(pair[0], pair[1]))
        points.append(scaled_point(tuple(coords)))
    return points
