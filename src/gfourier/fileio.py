"""Groupoid and arrow-function definition files (JSON documents).

A groupoid file has fields ``units`` (count), ``arrows`` (list of
{id, r, s, inv}), ``compose`` (list of [x, y, xy] triples; omitted pairs are
undefined) and ``weights`` (list of {unit, w}).  Constructors also emit
``unit_arrows`` explicitly; when absent, identities are derived from the
composition behavior.  A function file maps arrow ids to [re, im] pairs.
"""

from __future__ import annotations

import json

import numpy as np

from .groupoid import UNDEFINED, FiniteGroupoid


class FileFormatError(ValueError):
    pass


def _list_field(data: dict, name: str) -> list:
    """data[name], an empty list when absent; FileFormatError when it is not a list."""
    value = data.get(name, [])
    if not isinstance(value, list):
        raise FileFormatError(f"field {name!r} must be a list; got {value!r}")
    return value


def _ints(entry, field: str, length: int | None = None) -> list[int]:
    """The list entry of field as ints; FileFormatError naming field when it
    is not a list (of ``length`` items) of integers."""
    try:
        if not isinstance(entry, list) or length is not None and len(entry) != length:
            raise TypeError
        return [int(v) for v in entry]
    except (TypeError, ValueError) as err:
        raise FileFormatError(f"malformed {field} entry {entry!r}") from err


def groupoid_to_dict(g: FiniteGroupoid) -> dict:
    x, y = np.nonzero(g.compose_table != UNDEFINED)
    return {
        "units": g.n_units,
        "unit_arrows": [int(e) for e in g.unit_arrows],
        "arrows": [
            {"id": x, "r": int(g.range_of[x]), "s": int(g.source_of[x]),
             "inv": int(g.inverse_of[x])}
            for x in range(g.n_arrows)
        ],
        "compose": np.stack([x, y, g.compose_table[x, y]], axis=1).tolist(),
        "weights": [
            {"unit": u, "w": float(g.weights[g.unit_arrows[u]])} for u in range(g.n_units)
        ],
    }


def groupoid_from_dict(data: dict) -> FiniteGroupoid:
    try:
        n_units = int(data["units"])
        arrows = data["arrows"]
    except (KeyError, TypeError, ValueError) as err:
        raise FileFormatError(f"missing or malformed required field: {err}") from err
    if not isinstance(arrows, list):
        raise FileFormatError(f"field 'arrows' must be a list; got {arrows!r}")
    n = len(arrows)
    if n == 0 or n_units <= 0:
        raise FileFormatError("need at least one arrow and one unit")
    if n_units > n:
        raise FileFormatError(f"more units ({n_units}) than arrows ({n}): "
                              "every unit needs its own unit arrow")
    rng = np.full(n, -1, dtype=int)
    src = np.full(n, -1, dtype=int)
    inv = np.full(n, -1, dtype=int)
    seen = set()
    for entry in arrows:
        try:
            x = int(entry["id"])
            r, s, iv = int(entry["r"]), int(entry["s"]), int(entry["inv"])
        except (KeyError, TypeError, ValueError) as err:
            raise FileFormatError(f"malformed arrow entry {entry!r}") from err
        if not 0 <= x < n or x in seen:
            raise FileFormatError(f"arrow ids must be dense and unique; got {x}")
        seen.add(x)
        if not (0 <= r < n_units and 0 <= s < n_units and 0 <= iv < n):
            raise FileFormatError(f"arrow {x} references out-of-range data")
        rng[x], src[x], inv[x] = r, s, iv
    compose = np.full((n, n), UNDEFINED, dtype=int)
    for triple in _list_field(data, "compose"):
        x, y, xy = _ints(triple, "compose (entries are [x, y, xy])", 3)
        if not (0 <= x < n and 0 <= y < n and 0 <= xy < n):
            raise FileFormatError(f"composition entry {triple!r} out of range")
        if compose[x, y] != UNDEFINED and compose[x, y] != xy:
            raise FileFormatError(f"conflicting compositions declared for ({x}, {y})")
        compose[x, y] = xy
    unit_weights = np.ones(n_units)
    seen_units = set()
    for entry in _list_field(data, "weights"):
        try:
            u, w = int(entry["unit"]), float(entry["w"])
        except (KeyError, TypeError, ValueError) as err:
            raise FileFormatError(f"malformed weight entry {entry!r}") from err
        if not 0 <= u < n_units or u in seen_units:
            raise FileFormatError(f"weights must name each unit at most once; got {u}")
        seen_units.add(u)
        if not 0 < w < np.inf:
            raise FileFormatError(f"weight of unit {u} must be positive and finite")
        unit_weights[u] = w
    if "unit_arrows" in data:
        units = _ints(data["unit_arrows"], "unit_arrows")
        if len(units) != n_units or any(not 0 <= e < n for e in units):
            raise FileFormatError("unit_arrows must list one arrow id per unit")
    else:
        units = _derive_unit_arrows(n_units, rng, src, inv, compose)
    unit_arrows = np.array(units, dtype=int)
    return FiniteGroupoid(
        range_of=rng,
        source_of=src,
        inverse_of=inv,
        compose_table=compose,
        unit_arrows=unit_arrows,
        weights=unit_weights[src],
    )


def _derive_unit_arrows(n_units, rng, src, inv, compose) -> list[int]:
    ids = np.arange(rng.shape[0])
    undefined = compose == UNDEFINED
    # e fixes every arrow it composes with, on either side
    two_sided = np.all(undefined | (compose == ids[:, None]), axis=0) & np.all(
        undefined | (compose == ids[None, :]), axis=1
    )
    identity_like = two_sided & (inv == ids) & (compose[ids, ids] == ids)
    units = []
    for u in range(n_units):
        candidates = np.flatnonzero(identity_like & (rng == u) & (src == u))
        if len(candidates) != 1:
            raise FileFormatError(
                f"cannot derive the unit arrow of unit {u}: "
                f"{len(candidates)} candidates (add an explicit unit_arrows field)"
            )
        units.append(int(candidates[0]))
    return units


def write_groupoid(path: str, g: FiniteGroupoid) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(groupoid_to_dict(g), fh, indent=1)
        fh.write("\n")


def read_groupoid(path: str) -> FiniteGroupoid:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise FileFormatError(f"cannot read groupoid file {path}: {err}") from err
    return groupoid_from_dict(data)


def arrow_function_to_dict(f) -> dict:
    f = np.asarray(f, dtype=complex)
    return {
        "arrows": int(f.shape[0]),
        "values": {str(x): [float(f[x].real), float(f[x].imag)] for x in range(f.shape[0])},
    }


def arrow_function_from_dict(data: dict, g: FiniteGroupoid) -> np.ndarray:
    values = data.get("values") if isinstance(data, dict) else None
    if not isinstance(values, dict):
        raise FileFormatError("function file needs a 'values' mapping of id -> [re, im]")
    declared = data.get("arrows")
    if declared is not None and _ints([declared], "arrows")[0] != g.n_arrows:
        raise FileFormatError(
            f"function is defined on {declared} arrows, groupoid has {g.n_arrows}"
        )
    f = np.zeros(g.n_arrows, dtype=complex)
    for key, pair in values.items():
        try:
            x = int(key)
            re, im = float(pair[0]), float(pair[1])
        except (TypeError, ValueError, IndexError, KeyError) as err:
            raise FileFormatError(f"malformed value entry {key!r}: {pair!r}") from err
        if not 0 <= x < g.n_arrows:
            raise FileFormatError(f"value for unknown arrow id {x}")
        f[x] = re + 1j * im
    return f


def write_arrow_function(path: str, f) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(arrow_function_to_dict(f), fh, indent=1)
        fh.write("\n")


def read_arrow_function(path: str, g: FiniteGroupoid) -> np.ndarray:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise FileFormatError(f"cannot read function file {path}: {err}") from err
    return arrow_function_from_dict(data, g)
