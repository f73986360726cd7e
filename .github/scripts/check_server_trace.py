#!/usr/bin/env python3
"""Check a saved /server-trace document (Chrome trace-event JSON).

    python3 .github/scripts/check_server_trace.py live_trace.json 256

It must parse, hold exactly RING distinct trace ids (a full ring after
a load run), give every complete ("ph":"X") event a duration >= 0, and
give every trace a parse span.
"""
import json
import sys

path, ring = sys.argv[1], int(sys.argv[2])
events = json.load(open(path))["traceEvents"]
names = {}
for e in events:
    if e["ph"] == "X":
        assert e["dur"] >= 0, e
        names.setdefault(e["args"]["trace"], set()).add(e["name"])
assert len(names) == ring, "%d distinct trace ids, want %d" % (len(names), ring)
unparsed = sorted(i for i, n in names.items() if "parse" not in n)
assert not unparsed, "traces without a parse span: %s" % unparsed[:10]
print("%s: %d traces, each with a parse span" % (path, len(names)))
