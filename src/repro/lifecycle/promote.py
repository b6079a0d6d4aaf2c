"""Champion/challenger promotion: decision policy and durable state.

Promotion is a three-phase state machine over one served ``(model,
horizon, window)`` cell:

* ``idle`` — the champion serves alone; drift or cadence may mint a
  challenger (phase → ``shadow``);
* ``shadow`` — the challenger is scored side-by-side with the champion
  on every freshly resolved day; once enough *defined* shadow days
  accumulate, :class:`PromotionPolicy` either promotes it (mean shadow
  ∆ ≥ ``min_delta``, phase → ``confirm`` or ``idle``) or — after
  ``max_shadow_days`` resolved days without a win — retires it;
* ``confirm`` — optional post-promotion watch: the *demoted* champion
  keeps shadowing the freshly promoted one, and if it still beats the
  new champion (mean ∆ of old-over-new > ``rollback_delta``) the
  promotion is rolled back to the previous version.

:class:`LifecycleState` is the durable half: a JSON-able record of the
machine (phase, champion/challenger versions, shadow rows, the
monotonic version counter, the last processed day).  Every processed
day commits **one** atomic :func:`repro.data.store.write_json_atomic`
of two states, ``{"before": …, "after": …}``: the state the day started
from and the state it ended in, typically into the resilience
checkpoint directory as ``lifecycle.json``.  A crash at any point
during retrain/promotion leaves either the previous pair or the new
one; either way the restarted controller picks the state its recovered
ring has reached and re-runs whatever day follows it (see
:mod:`repro.lifecycle.controller`); there is no intermediate to
recover from and no stored event list to replay.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from repro.data.store import write_json_atomic

__all__ = ["PromotionConfig", "PromotionPolicy", "LifecycleState"]

#: Phases of the promotion state machine.
PHASES = ("idle", "shadow", "confirm")


@dataclass(frozen=True)
class PromotionConfig:
    """When a shadowed challenger replaces the champion.

    Attributes
    ----------
    min_delta:
        Minimum mean shadow ∆ (percent relative lift improvement over
        the champion) required to promote.
    min_shadow_days:
        Defined (∆ computable) shadow days required before any
        promote/retire decision is taken.
    max_shadow_days:
        Resolved shadow days after which a challenger that has not
        earned promotion is retired (phase back to ``idle``, the next
        trigger may mint a fresh one).
    confirm_days:
        Post-promotion watch window: the demoted champion shadows the
        new one for this many defined days before the promotion is
        confirmed.  ``0`` disables the watch (promotions are final).
    rollback_delta:
        During the confirm phase, mean ∆ of the *old* champion over the
        *new* one above this threshold rolls the promotion back.
    min_days_between_promotions:
        Hysteresis: a new promotion is suppressed until this many days
        passed since the last one (rollbacks are exempt — a bad
        champion must not be protected by its own promotion).
    """

    min_delta: float = 5.0
    min_shadow_days: int = 5
    max_shadow_days: int = 14
    confirm_days: int = 0
    rollback_delta: float = 0.0
    min_days_between_promotions: int = 7

    def __post_init__(self) -> None:
        if not np.isfinite(self.min_delta):
            raise ValueError(f"min_delta must be finite, got {self.min_delta}")
        if self.min_shadow_days < 1:
            raise ValueError(
                f"min_shadow_days must be >= 1, got {self.min_shadow_days}"
            )
        if self.max_shadow_days < self.min_shadow_days:
            raise ValueError(
                f"max_shadow_days ({self.max_shadow_days}) must be >= "
                f"min_shadow_days ({self.min_shadow_days})"
            )
        if self.confirm_days < 0:
            raise ValueError(f"confirm_days must be >= 0, got {self.confirm_days}")
        if self.min_days_between_promotions < 1:
            raise ValueError(
                f"min_days_between_promotions must be >= 1, got "
                f"{self.min_days_between_promotions}"
            )


class PromotionPolicy:
    """Pure decision logic over accumulated shadow rows.

    The policy never touches the registry or the engine; it only turns
    ``(rows, t_day, last_promotion_day)`` into a verdict.  Keeping it
    side-effect free is what makes lifecycle replay deterministic: the
    same rows always yield the same decision.
    """

    def __init__(self, config: PromotionConfig | None = None) -> None:
        self.config = config or PromotionConfig()

    @staticmethod
    def mean_delta(rows: list[dict]) -> float:
        """Mean of the defined ∆ values in *rows* (NaN when none)."""
        deltas = [row["delta"] for row in rows if np.isfinite(row["delta"])]
        return float(np.mean(deltas)) if deltas else float("nan")

    @staticmethod
    def defined_days(rows: list[dict]) -> int:
        return sum(1 for row in rows if np.isfinite(row["delta"]))

    def decide_shadow(
        self, rows: list[dict], t_day: int, last_promotion_day: int
    ) -> str | None:
        """Verdict for a challenger in shadow: promote / retire / keep.

        Returns ``"promote"``, ``"retire"``, or ``None`` (keep
        shadowing).  A challenger that exhausts ``max_shadow_days``
        without enough defined days — or with a mean ∆ below the bar —
        is retired rather than left shadowing forever.
        """
        config = self.config
        defined = self.defined_days(rows)
        exhausted = len(rows) >= config.max_shadow_days
        if defined < config.min_shadow_days:
            return "retire" if exhausted else None
        held = (
            last_promotion_day >= 0
            and t_day - last_promotion_day < config.min_days_between_promotions
        )
        if not held and self.mean_delta(rows) >= config.min_delta:
            return "promote"
        return "retire" if exhausted else None

    def decide_confirm(self, rows: list[dict]) -> str | None:
        """Verdict for a fresh promotion under watch: rollback / confirm.

        *rows* score the **demoted** champion as the challenger against
        the newly promoted model, so a positive ∆ means the old model
        still wins.  Returns ``"rollback"``, ``"confirm"``, or ``None``
        (keep watching).
        """
        config = self.config
        if config.confirm_days == 0:
            return "confirm"
        if self.defined_days(rows) < config.confirm_days:
            return None
        if self.mean_delta(rows) > config.rollback_delta:
            return "rollback"
        return "confirm"


@dataclass
class LifecycleState:
    """Durable promotion-machine state; ``lifecycle.json`` holds two.

    Attributes
    ----------
    phase:
        ``"idle"``, ``"shadow"``, or ``"confirm"``.
    champion_version:
        Registry version currently served (``None`` = the unversioned
        bootstrap entry).
    previous_version:
        Rollback target while in ``confirm`` (the demoted champion).
    challenger_version, challenger_trained_day:
        The shadowed challenger and its (deterministic-seed) trigger day.
    version_counter:
        Monotonic source of registry version numbers.  Versions are
        derived from this counter — **not** from the registry's on-disk
        maximum — so a crash that orphans a saved archive re-mints the
        *same* number on re-processing and overwrites it with identical
        content instead of leaking a stray version.
    last_retrain_day, last_promotion_day:
        Hysteresis anchors for the retrain and promotion policies.
    last_day_processed:
        The last day whose lifecycle step ran; the controller skips any
        day at or before it.  ``lifecycle.json`` pairs the state a day
        ended in (``after``) with the one it started from (``before``),
        so a restart whose ring has not completed ``after``'s day
        resumes from ``before`` and re-runs that day.
    shadow_rows, confirm_rows:
        Resolved :meth:`~repro.lifecycle.shadow.ShadowResult.as_row`
        dicts for the active shadow/confirm window (floats round-trip
        exactly through JSON, so recovered decisions are bitwise).
    """

    phase: str = "idle"
    champion_version: int | None = None
    previous_version: int | None = None
    challenger_version: int | None = None
    challenger_trained_day: int = -1
    version_counter: int = 0
    last_retrain_day: int = -1
    last_promotion_day: int = -1
    last_day_processed: int = -1
    shadow_rows: list[dict] = field(default_factory=list)
    confirm_rows: list[dict] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.phase not in PHASES:
            raise ValueError(f"phase must be one of {PHASES}, got {self.phase!r}")

    # ------------------------------------------------------------ persist
    def as_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, payload: dict) -> "LifecycleState":
        """Rebuild a state, ignoring keys that are not fields."""
        return cls(**{f.name: payload[f.name] for f in fields(cls) if f.name in payload})

    def save(self, path: str | Path, before: "LifecycleState | None" = None) -> Path:
        """Atomically commit *before* → this state (the per-day commit point)."""
        return write_json_atomic(path, {
            "before": None if before is None else before.as_json(),
            "after": self.as_json(),
        })

    @classmethod
    def load_pair(
        cls, path: str | Path
    ) -> "tuple[LifecycleState | None, LifecycleState] | None":
        """``(before, after)`` from *path*; None when it does not exist.

        A file in the older single-state format loads as ``after`` with
        no ``before``.
        """
        path = Path(path)
        if not path.exists():
            return None
        payload = json.loads(path.read_text(encoding="utf-8"))
        if "after" not in payload:
            return None, cls.from_json(payload)
        before = payload["before"]
        return (
            None if before is None else cls.from_json(before),
            cls.from_json(payload["after"]),
        )

    @classmethod
    def load(cls, path: str | Path) -> "LifecycleState | None":
        """The committed ``after`` state; None when *path* does not exist."""
        pair = cls.load_pair(path)
        return None if pair is None else pair[1]
