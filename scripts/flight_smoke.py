"""CI drill-down for the flight recorder's HTTP surface.

Run against a live espresso-serve -trace process that has served some
/v1/select requests. Fetches the /debug/flight listing, saves it, then
drills into one retained record as JSON and as a Chrome trace. Records
rotate through the recent ring quickly under load, so list+fetch retries
to outrun eviction.

Usage: python3 scripts/flight_smoke.py http://127.0.0.1:8080 artifacts/flight-live.json
"""

import json
import sys
import urllib.error
import urllib.request

base = sys.argv[1] if len(sys.argv) > 1 else "http://127.0.0.1:8080"
out = sys.argv[2] if len(sys.argv) > 2 else "artifacts/flight-live.json"


def get(path):
    with urllib.request.urlopen(base + path, timeout=10) as r:
        return json.load(r)


d = get("/debug/flight")
assert d["total"] > 0, "no flight records mid-run"
assert d["records"], "empty record listing"
with open(out, "w") as f:
    json.dump(d, f)
print("live flight dump ok:", d["total"], "records,", d["anomaly_total"], "anomalies")

rec = trace = None
for attempt in range(10):
    listing = get("/debug/flight")["records"]
    try:
        rid = listing[0]["id"]
        rec = get("/debug/flight/" + rid)
        trace = get("/debug/flight/" + rid + "?format=chrome")
        break
    except urllib.error.HTTPError as e:
        if e.code != 404:
            raise
        rec = trace = None  # evicted between list and fetch; retry
assert rec is not None, "record fetch lost the eviction race 10 times"
assert rec["spans"], "record has no span tree"
assert rec["phases_ns"], "record has no phase breakdown"
print("record", rec["id"], "ok:", len(rec["spans"]), "spans")
assert trace["traceEvents"], "empty chrome trace"
print("chrome trace ok:", len(trace["traceEvents"]), "events")
