#!/usr/bin/env python3
"""Compare two ``tools/rows_digest.py`` outputs of one workload and seed.

    python3 tools/rows_digest.py desk 0 > before.txt   # in the old checkout
    python3 tools/rows_digest.py desk 0 > after.txt    # in the new one
    python3 tools/rows_diff.py before.txt after.txt

Prints each family's largest relative move, |after - before| / max(|before|,
|after|), of ``rmse``, ``score`` and ``criterion`` over its result rows and
trace records; then every winner file, and every other field of a row or
trace record (the trace winner strings, ``M``, ``n_candidates``), that
changed; then every record found on one side only.
"""

import argparse
import json
from pathlib import Path

FLOATS = ("rmse", "score", "criterion")


def parse(text):
    """{record key: (family, fields)} of one digest. Rows are keyed by
    (family, size, seed), trace records by (trace, iteration) and winner
    files by cell, ``<family>_<size>_<seed>``; a winner's one field is its
    text."""
    records = {}
    for line in text.splitlines():
        kind, rest = line.split(" ", 1)
        if kind == "winner":
            cell, text = rest.split(" ", 1)
            records[("winner", cell)] = (_family(cell), {"winner": text})
            continue
        fields = json.loads(rest)
        if kind == "row":
            family = fields["family"]
            key = ("row", family, fields["size"], fields["seed"])
        else:  # trace_<family>_<size>_<seed>
            family = _family(kind[len("trace_"):])
            key = (kind, fields["iteration"])
        records[key] = (family, fields)
    return records


def _family(cell):
    """The family of a cell name ``<family>_<size>_<seed>``."""
    return cell.rsplit("_", 2)[0]


def _move(a, b):
    if a == b:  # float.hex strings, so equal means bitwise
        return 0.0
    a, b = float.fromhex(a), float.fromhex(b)
    return abs(a - b) / max(abs(a), abs(b))


def diff(before, after):
    """The report's lines for two digests' texts."""
    old, new = parse(before), parse(after)
    moves, changed = {}, []
    for key in sorted(old.keys() & new.keys(), key=str):
        family, a = old[key]
        b = new[key][1]
        worst = moves.setdefault(family, dict.fromkeys(FLOATS, 0.0))
        for field in a:
            if field in FLOATS:
                worst[field] = max(worst[field], _move(a[field], b[field]))
            elif a[field] != b.get(field):
                changed.append(f"{' '.join(map(str, key))} {field}: "
                               f"{a[field]} -> {b.get(field)}")
    lines = ["largest relative move"]
    lines += [f"  {family:<17}" + "  ".join(f"{f} {w[f]:.1e}" for f in FLOATS)
              for family, w in sorted(moves.items())]
    lines.append(f"changed fields: {len(changed)}")
    lines += [f"  {c}" for c in changed]
    for side, keys in (("before", old.keys() - new.keys()),
                       ("after", new.keys() - old.keys())):
        lines.append(f"only {side}: {len(keys)}")
        lines += [f"  {' '.join(map(str, k))}" for k in sorted(keys, key=str)]
    return lines


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("before", type=Path)
    p.add_argument("after", type=Path)
    args = p.parse_args(argv)
    print("\n".join(diff(args.before.read_text(), args.after.read_text())))


if __name__ == "__main__":
    main()
