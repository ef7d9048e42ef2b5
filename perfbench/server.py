"""The served side of serve-read / serve-write, run as its own process.

``python3 -m perfbench.server --graph FILE [--trace-out FILE]`` loads the
N-Triples file, serves it through a :class:`QueryService` behind a
:class:`ServiceServer` on a free localhost port, and prints ``{"port": N}``.
It stops when its standard input closes, then prints one JSON line with its
peak resident memory and, when tracing, writes its spans to ``--trace-out``.
Running the server apart from the benchmark's clients keeps their JSON work
off the server's interpreter lock.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import threading


def peak_rss_kb() -> int:
    """This process's peak resident set (VmHWM), in KiB."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--graph", required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    recorder = None
    if args.trace_out:
        from perfbench.spans import Recorder, instrument

        recorder = Recorder()
        instrument(recorder)

    import repro.rdf.io as rdf_io
    from repro.service import QueryService, ServiceServer

    graph = rdf_io.load_graph(args.graph)
    service = QueryService(graph)
    server = ServiceServer(service)
    accept = threading.Thread(target=server.serve_forever, name="perfbench-accept")
    accept.start()
    print(json.dumps({"port": server.address[1]}), flush=True)
    try:
        sys.stdin.read()  # returns when the benchmark closes our stdin
    finally:
        server.shutdown()
        accept.join(timeout=10)
        service.close(drain=False, timeout=10)
        if recorder is not None:
            recorder.dump(args.trace_out)
        print(json.dumps({"peak_rss_kb": peak_rss_kb()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
