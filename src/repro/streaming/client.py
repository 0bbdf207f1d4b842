"""Client-side decode/display model.

The GA client decodes the stream and displays it; decode cost depends on
the codec and the client device class.  Thin clients (phones, TV sticks)
decode more slowly, adding to the end-to-end latency budget.
"""

from __future__ import annotations

from repro.util.validation import check_in

__all__ = ["ClientModel"]

#: Decode speed multiplier per device class (1.0 = desktop-class).
_DEVICE_FACTORS = {
    "desktop": 1.0,
    "laptop": 1.3,
    "phone": 1.8,
    "tv-stick": 2.4,
}

#: Base decode latency per frame (ms) per codec at desktop speed.
_DECODE_BASE_MS = {
    "h264": 1.2,
    "h265": 1.9,
    "av1": 2.8,
}


class ClientModel:
    """A player's terminal device.

    Parameters
    ----------
    device:
        ``"desktop"``, ``"laptop"``, ``"phone"`` or ``"tv-stick"``.
    display_latency_ms:
        Fixed present/scan-out latency of the display path.
    """

    def __init__(self, *, device: str = "desktop", display_latency_ms: float = 1.0):
        check_in("device", device, _DEVICE_FACTORS)
        if display_latency_ms < 0:
            raise ValueError(
                f"display_latency_ms must be >= 0, got {display_latency_ms}"
            )
        self.device = device
        self.display_latency_ms = float(display_latency_ms)

    def decode_latency_ms(self, codec: str) -> float:
        """Per-frame decode latency for a codec on this device."""
        check_in("codec", codec, _DECODE_BASE_MS)
        return _DECODE_BASE_MS[codec] * _DEVICE_FACTORS[self.device]
