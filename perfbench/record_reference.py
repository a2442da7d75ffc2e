"""Record the reference outputs the checks compare against.

    python3 perfbench/record_reference.py

Writes reference.json beside this file from the current sources: for each
ppart case the SHA-256 of its JSON and a short digest per term (so a
mismatch can name the first differing weight), and for each tokuyama rank
the per-term digests of the deformed denominator.  Re-record only when the
JSON changes on purpose, in a change of its own.
"""
from __future__ import annotations

import json

import workloads as wl


def record() -> dict:
    ref: dict = {"ppart": {}, "tokuyama": {}}
    for case in wl.POOLS["ppart"]:
        text = wl.ppart_op(case)
        ref["ppart"][case.id] = {"sha256": wl.sha256(text),
                                 "terms": wl.term_digests(json.loads(text)["terms"])}
    for case in wl.POOLS["tokuyama"]:
        rank = f"{case.family}{case.rank}"
        if rank not in ref["tokuyama"]:
            result = wl.tokuyama_op(case)
            if not result.ok:
                raise SystemExit(f"{case.id}: division not exact, nothing recorded")
            ref["tokuyama"][rank] = {
                "terms": wl.term_digests(wl.quotient_terms(result.quotient))}
    return ref


def main() -> None:
    ref = record()
    sections = []
    for section, entries in ref.items():
        body = ",\n".join(f"  {json.dumps(key)}: {json.dumps(value)}"
                          for key, value in entries.items())
        sections.append(f"{json.dumps(section)}: {{\n{body}\n }}")
    wl.REFERENCE_FILE.write_text("{" + ",\n".join(sections) + "}\n")
    print(f"wrote {wl.REFERENCE_FILE}")


if __name__ == "__main__":
    main()
