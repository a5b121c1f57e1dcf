"""The ``repro serve`` host of the ``serve-mixed`` workload, as a child process.

Started by :mod:`serve_mixed` with the checkout's ``src`` on the path.  It
prints ``PORT <n>`` once the server listens, then obeys one command per
stdin line and answers each with one stdout line:

``trace``            install the span recorder (``OK``)
``reset-peak``       reset the peak-RSS high-water mark (``OK``)
``peak``             ``PEAK <MiB>`` since the last reset
``dump <path>``      write the recorded spans to ``path`` (``OK``)
``stop``             close the server and exit (also on end of input)
"""

from __future__ import annotations

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main() -> int:
    from repro.service import ReproServer

    from common import peak_rss_mb, reset_peak_rss
    from spans import Recorder, install

    server = ReproServer(port=0).start()
    recorder = None
    print(f"PORT {server.port}", flush=True)
    try:
        for line in sys.stdin:
            command, _, arg = line.strip().partition(" ")
            if command == "trace":
                recorder = Recorder()
                install(recorder)
                reply = "OK"
            elif command == "reset-peak":
                reset_peak_rss()
                reply = "OK"
            elif command == "peak":
                reply = f"PEAK {peak_rss_mb()!r}"
            elif command == "dump" and recorder is not None:
                recorder.dump(arg)
                reply = "OK"
            elif command == "stop":
                break
            else:
                reply = f"ERROR unknown command {line.strip()!r}"
            print(reply, flush=True)
    finally:
        server.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
