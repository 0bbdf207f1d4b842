"""GamingAnywhere-style streaming pipeline model.

The paper hosts games under GamingAnywhere (§V-A): the server captures
rendered frames, encodes, and streams them; the client decodes, displays,
and sends input commands back.  For scheduling, the pipeline matters in
two ways, and this package models both:

* the **encoder** consumes server CPU in proportion to pixel rate — an
  overhead the co-location budget must carry per hosted session;
* the **end-to-end latency** (capture → encode → network → decode) is a
  QoS term on top of FPS; the paper cites a < 3 ms network target for
  interaction-grade play.
"""

from repro import _lazy_exports

__all__ = [
    "EncoderModel",
    "EncodeResult",
    "NetworkModel",
    "NetworkSample",
    "ClientModel",
    "StreamingPipeline",
    "LatencyBreakdown",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "EncoderModel": ".encoder",
    "EncodeResult": ".encoder",
    "NetworkModel": ".network",
    "NetworkSample": ".network",
    "ClientModel": ".client",
    "StreamingPipeline": ".pipeline",
    "LatencyBreakdown": ".pipeline",
})
