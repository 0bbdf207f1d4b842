"""Game categories — the paper's Fig-7 quadrants.

Two axes classify a game: *stage-type complexity* (horizontal) and
*user influence* (vertical).  The quadrant determines how the stage
predictor assembles its training set (§IV-B1):

=============  ===============  ===========  ==========================
category       user influence   complexity   training-set policy
=============  ===============  ===========  ==========================
WEB            low              low          pool every player's records
MOBILE         high             low          one model per player
CONSOLE        low              high         concatenate a player's whole
                                             campaign into one sequence
MMO            high             high         group players who are logged
                                             in together into one sample
=============  ===============  ===========  ==========================
"""

from __future__ import annotations

from enum import Enum

__all__ = ["GameCategory"]


class GameCategory(Enum):
    """The four Fig-7 quadrants."""

    WEB = "web"
    MOBILE = "mobile"
    CONSOLE = "console"
    MMO = "mmo"

    @property
    def dataset_policy(self) -> str:
        """Name of the §IV-B1 training-set construction policy."""
        return {
            GameCategory.WEB: "pool-all-players",
            GameCategory.MOBILE: "per-player",
            GameCategory.CONSOLE: "concatenate-campaign",
            GameCategory.MMO: "co-login-groups",
        }[self]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GameCategory.{self.name}"
