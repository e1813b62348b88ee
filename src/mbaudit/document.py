"""Parsing and serialization of audit documents (JSON, format 1).

The grammar is frozen in docs/format.md.  Parsing is strict: unknown
keys are rejected at every level, matrix entries must be JSON integers,
and the resulting values are the ordinary module-level types, each
validated once, by its own constructor.  ``parse -> serialize -> parse``
is the identity on the data model.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

from ._value import Value
from .bundles import BundleDescriptor
from .homology import (
    Explicit,
    IntegerChainComplex,
    IntegerMatrix,
    OrientationCharacter,
    Point,
    RealProjective,
    Space,
    Sphere,
    Torus2,
    space_tag,
)
from .morse import MorseData, SignTwist
from .morsebott import CriticalSubmanifold, MorseBottData

FORMAT_VERSION = 1
# the largest dimension, index or rank a document or a command line may
# ask for; a degree sizes the lists built for it
MAX_DEGREE = 10_000


class DocumentError(ValueError):
    """Malformed audit document."""


class AuditDocument(Value):
    """The parsed sections of a document; not hashable, as ``twists`` is
    a dict.  The :class:`MorseBottData` built (and validated) from
    ``criticals`` is kept in an attribute that is not a field."""

    ambient: Space
    criticals: tuple[CriticalSubmanifold, ...] | None
    morse: MorseData | None
    twists: dict[str, SignTwist]
    bundle: BundleDescriptor | None

    __hash__ = None

    def __init__(
        self, ambient: Space, criticals: tuple[CriticalSubmanifold, ...] | None = None,
        morse: MorseData | None = None, twists: dict[str, SignTwist] | None = None,
        bundle: BundleDescriptor | None = None,
    ) -> None:
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "criticals", criticals)
        object.__setattr__(self, "morse", morse)
        object.__setattr__(self, "twists", {} if twists is None else twists)
        object.__setattr__(self, "bundle", bundle)
        data = None if criticals is None else MorseBottData(ambient, criticals)
        object.__setattr__(self, "_morse_bott", data)

    def morse_bott(self) -> MorseBottData:
        if self._morse_bott is None:
            raise DocumentError("document has no criticals section")
        return self._morse_bott


def _require_mapping(obj: Any, what: str) -> Mapping[str, Any]:
    if not isinstance(obj, dict):
        raise DocumentError(f"{what} must be an object")
    return obj


def _check_keys(obj: Any, what: str, required: set[str], optional: set[str] = frozenset()) -> Mapping[str, Any]:
    """An object with every required key and no key beyond the optional ones."""
    keys = set(_require_mapping(obj, what))
    unknown = keys - required - optional
    if unknown:
        raise DocumentError(f"unknown {what} field(s): {', '.join(sorted(unknown))}")
    missing = required - keys
    if missing:
        raise DocumentError(f"missing {what} field(s): {', '.join(sorted(missing))}")
    return obj


def _int(obj: Any, what: str) -> int:
    if not isinstance(obj, int) or isinstance(obj, bool):
        raise DocumentError(f"{what} must be an integer")
    return obj


def parse_degree(obj: Any, what: str) -> int:
    n = _int(obj, what)
    if n > MAX_DEGREE:
        raise DocumentError(f"{what} must be at most {MAX_DEGREE}, got {n}")
    return n


def parse_degree_text(text: str, what: str) -> int:
    """A degree written as text: ASCII decimal with no sign and no leading
    zero, so each degree has one spelling, and no more digits than MAX_DEGREE."""
    digits = text.isascii() and text.isdigit()
    if digits and len(text) > len(str(MAX_DEGREE)):  # before int() reads it
        raise DocumentError(f"{what} must be at most {MAX_DEGREE}, got {len(text)} digits")
    if not digits or (text[0] == "0" and text != "0"):
        raise DocumentError(f"{what} must be an integer, got {text!r}")
    return parse_degree(int(text), what)


def parse_matrix(obj: Any, what: str = "matrix") -> IntegerMatrix:
    m = _check_keys(obj, what, {"rows", "cols", "entries"})
    rows = _int(m["rows"], f"{what}.rows")
    cols = _int(m["cols"], f"{what}.cols")
    entries = m["entries"]
    if not isinstance(entries, list):
        raise DocumentError(f"{what}.entries must be a list")
    try:
        return IntegerMatrix(rows, cols, entries)
    except TypeError:
        raise DocumentError(f"{what} entry must be an integer") from None
    except ValueError as exc:
        raise DocumentError(f"{what}: {exc}") from exc


def parse_space(obj: Any, what: str = "space") -> Space:
    if isinstance(obj, str):
        if obj == "point":
            return Point()
        if obj == "torus2":
            return Torus2()
        kind, sep, arg = obj.partition(":")
        if sep and kind in ("sphere", "rp"):
            try:
                n = parse_degree_text(arg, "dimension")
                return Sphere(n) if kind == "sphere" else RealProjective(n)
            except ValueError as exc:
                raise DocumentError(f"{what}: {exc}") from exc
        raise DocumentError(f"{what}: unknown space tag {obj!r}")
    m = _check_keys(obj, what, {"ranks", "boundaries"})
    if not isinstance(m["ranks"], list) or not isinstance(m["boundaries"], list):
        raise DocumentError(f"{what}: ranks and boundaries must be lists")
    ranks = [_int(r, f"{what} rank") for r in m["ranks"]]
    bounds = [parse_matrix(b, f"{what} boundary") for b in m["boundaries"]]
    return Explicit(IntegerChainComplex(ranks, bounds))


def parse_character(obj: Any, what: str) -> OrientationCharacter:
    if not isinstance(obj, str):
        raise DocumentError(f"{what} must be a string")
    try:
        return OrientationCharacter(obj)
    except ValueError:
        raise DocumentError(
            f"{what} must be 'orientable' or 'twisted', got {obj!r}"
        ) from None


def _parse_indexed_matrices(obj: Any, what: str) -> dict[int, IntegerMatrix]:
    m = _require_mapping(obj, what)
    out: dict[int, IntegerMatrix] = {}
    for key, value in m.items():
        out[parse_degree_text(key, f"{what} key")] = parse_matrix(value, f"{what}[{key}]")
    return out


def _parse_morse(obj: Any) -> tuple[MorseData, dict[str, SignTwist]]:
    m = _check_keys(obj, "morse", {"generators"}, {"differentials", "twists"})
    if not isinstance(m["generators"], list):
        raise DocumentError("morse.generators must be a list")
    generators = []
    for g in m["generators"]:
        gm = _check_keys(g, "generator", {"label", "index"})
        if not isinstance(gm["label"], str):
            raise DocumentError("generator label must be a string")
        generators.append((gm["label"], parse_degree(gm["index"], "generator index")))
    differentials = _parse_indexed_matrices(m.get("differentials", {}), "morse.differentials")
    data = MorseData(generators, differentials)
    twists: dict[str, SignTwist] = {}
    for name, block in _require_mapping(m.get("twists", {}), "morse.twists").items():
        if not isinstance(name, str) or not name:
            raise DocumentError("twist names must be nonempty strings")
        twists[name] = SignTwist(_parse_indexed_matrices(block, f"twist {name!r}"))
    return data, twists


def _refuse_duplicate_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    obj: dict[str, Any] = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def parse_document(text: str) -> AuditDocument:
    try:
        obj = json.loads(text, object_pairs_hook=_refuse_duplicate_keys)
    except ValueError as exc:  # JSONDecodeError, a duplicate key, or an integer over the digit limit
        raise DocumentError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise DocumentError("invalid JSON: nested too deeply") from None
    m = _check_keys(obj, "document", {"format", "ambient"}, {"criticals", "morse", "bundle"})
    if type(m["format"]) is not int or m["format"] != FORMAT_VERSION:  # not True, not 1.0
        raise DocumentError(f"unsupported format {m['format']!r}, expected {FORMAT_VERSION}")
    ambient = parse_space(m["ambient"], "ambient")

    criticals: tuple[CriticalSubmanifold, ...] | None = None
    if "criticals" in m:
        if not isinstance(m["criticals"], list):
            raise DocumentError("criticals must be a list")
        crits = []
        for c in m["criticals"]:
            cm = _check_keys(c, "critical", {"space", "index", "negative_character"})
            crits.append(
                CriticalSubmanifold(
                    parse_space(cm["space"], "critical space"),
                    parse_degree(cm["index"], "critical index"),
                    parse_character(cm["negative_character"], "negative_character"),
                )
            )
        criticals = tuple(crits)

    morse = None
    twists: dict[str, SignTwist] = {}
    if "morse" in m:
        morse, twists = _parse_morse(m["morse"])

    bundle = None
    if "bundle" in m:
        bm = _check_keys(m["bundle"], "bundle", {"base", "rank", "character"})
        bundle = BundleDescriptor(
            parse_space(bm["base"], "bundle base"),
            parse_degree(bm["rank"], "bundle rank"),
            parse_character(bm["character"], "bundle character"),
        )

    return AuditDocument(ambient, criticals, morse, twists, bundle)


def load_document(path: str | Path) -> AuditDocument:
    return parse_document(Path(path).read_text())


def _matrix_json(m: IntegerMatrix) -> dict[str, Any]:
    return {"rows": m.rows, "cols": m.cols, "entries": list(m.entries)}


def _space_json(s: Space) -> Any:
    if isinstance(s, Explicit):
        return {
            "ranks": list(s.complex.ranks),
            "boundaries": [_matrix_json(b) for b in s.complex.boundaries],
        }
    return space_tag(s)


def serialize_document(doc: AuditDocument) -> str:
    out: dict[str, Any] = {"format": FORMAT_VERSION, "ambient": _space_json(doc.ambient)}
    if doc.criticals is not None:
        out["criticals"] = [
            {
                "space": _space_json(c.space),
                "index": c.index,
                "negative_character": c.negative_character.value,
            }
            for c in doc.criticals
        ]
    if doc.morse is not None:
        block: dict[str, Any] = {
            "generators": [
                {"label": label, "index": index} for label, index in doc.morse.generators
            ],
            "differentials": {
                str(k): _matrix_json(d) for k, d in doc.morse.differentials
            },
        }
        if doc.twists:
            block["twists"] = {
                name: {str(k): _matrix_json(s) for k, s in twist.signs}
                for name, twist in sorted(doc.twists.items())
            }
        out["morse"] = block
    if doc.bundle is not None:
        out["bundle"] = {
            "base": _space_json(doc.bundle.base),
            "rank": doc.bundle.rank,
            "character": doc.bundle.character.value,
        }
    return json.dumps(out, indent=2) + "\n"
