#!/usr/bin/env python3
"""The simulation service end to end: serve, submit, stream, cache-hit.

Starts a ``repro.server`` on a background thread (the same service
``python -m repro serve`` runs in the foreground), then walks the whole
serving loop with the blocking client:

1. browse the scenario registry over HTTP;
2. submit a run job and fetch its structured ``RunResult``;
3. resubmit the identical job -- answered instantly from the
   content-addressed result cache, nothing recompiled, nothing re-run;
4. submit a streaming job and watch per-cycle waveform/activity deltas
   arrive over the WebSocket trace.

Run:  python examples/serve_and_stream.py
"""

from repro.api import Session, SimConfig

# Session.serve(background=True) binds the server (port 0 = any free
# port) on a daemon thread and returns once it is accepting requests.
server = Session(SimConfig()).serve(port=0, queue_depth=8, workers=2,
                                    background=True)

from repro.server import ServerClient  # noqa: E402

with server, ServerClient(port=server.port) as client:
    names = [s["name"] for s in client.scenarios(tag="rtl")]
    print(f"server on port {server.port} offers {len(names)} rtl "
          f"scenarios: {', '.join(names[:4])}, ...")

    # -- submit / poll / fetch ----------------------------------------
    record = client.submit("streams", cycles=400)
    print(f"\nsubmitted {record['id']} ({record['state']})")
    client.wait(record["id"])
    result = client.result(record["id"])
    print(f"done: {result.cycles} cycles, "
          f"{result.total_activity} toggles across "
          f"{len(result.activity)} wires "
          f"(engine={result.config.engine})")

    # -- the result cache ---------------------------------------------
    again = client.submit("streams", cycles=400)
    assert again["state"] == "done" and again["cached"] == "submit"
    cached = client.result(again["id"])
    assert cached.activity == result.activity
    stats = client.stats()["result_cache"]
    print(f"resubmission answered from cache "
          f"(hits={stats['hits']}, entries={stats['entries']}) -- "
          f"no rebuild, no re-run")

    # -- live trace streaming over WebSocket --------------------------
    record = client.submit("memory", cycles=40, stream=True)
    print(f"\nstreaming {record['id']} (memory, 40 cycles):")
    deltas = 0
    for frame in client.stream(record["id"]):
        if frame["type"] == "delta":
            deltas += 1
            if frame["cycle"] < 3 or frame["cycle"] > 37:
                moved = ", ".join(sorted(frame["changes"])[:3]) or "-"
                print(f"  cycle {frame['cycle']:3d}: "
                      f"activity={frame['activity']:5d}  "
                      f"changed: {moved}")
        else:
            print(f"  end: state={frame['state']} "
                  f"dropped={frame['dropped']}")
    assert deltas == 40

print("\nserver shut down cleanly")
