"""Session timers and output checks, on in every run, traced or not.

Wraps the four engine entry points that a session goes through, where the
harness and the benchmark look them up (`purekv.engine.<name>`). Each call is
timed; its outputs are checked outside the timed interval:

- every logit is finite;
- after compression and after each decode step, every layer and head holds
  ceil(budget * l) rows plus the decode steps taken (all l rows for `full`);
- prefill logits, and decode logits of `full` sessions, are kept (one copy
  per distinct value) so that `reference.py` can compare them with a
  cache-free forward after the measured passes.
"""

from __future__ import annotations

import hashlib
import math
import weakref
from fractions import Fraction

from spans import Patches


def expected_rows(policy_kind: str, budget: float, l: int) -> int:
    """ceil(budget * l) with the budget read as the decimal it was written as."""
    if policy_kind == "full":
        return l
    return max(1, min(l, math.ceil(Fraction(repr(budget)) * l)))


class Distinct:
    """Keeps one copy of each distinct array seen under a key."""

    def __init__(self):
        self.arrays = {}

    def add(self, key, array) -> int:
        import numpy as np

        seen = self.arrays.setdefault(key, [])
        for index, other in enumerate(seen):
            if other.shape == array.shape and np.array_equal(other, array):
                return index
        seen.append(array.copy())
        return len(seen) - 1


class Session:
    def __init__(self, obj, policy_kind, pattern, budget):
        self.ref = weakref.ref(obj)
        self.policy_kind = policy_kind
        self.pattern = pattern
        self.budget = budget
        self.prompt_len = 0
        self.prefill = None   # speed.Interval
        self.compress = None
        self.decode = []
        self.outputs = []     # (key, variant index) into SessionRecorder.logits
        self.problems = []

    def ttft_s(self, seconds):
        """prefill + compression + first decode step, each through seconds()."""
        if self.prefill is None or self.compress is None or not self.decode:
            return None
        return seconds(self.prefill) + seconds(self.compress) + seconds(self.decode[0])


class SessionRecorder:
    """Times calls with probe.timed, so the probe's own time is left out."""

    def __init__(self, probe):
        self.probe = probe
        self.sessions = []
        self.logits = Distinct()
        self.digest = hashlib.sha256()
        self.patches = Patches()

    def take_digest(self) -> str:
        """SHA-256 of every logit returned since the last call."""
        digest, self.digest = self.digest.hexdigest(), hashlib.sha256()
        return digest

    def install(self):
        import purekv.engine as engine

        for name in ("init_session", "prefill", "apply_compression", "decode_step"):
            self.patches.wrap(engine, name, getattr(self, "_wrap_" + name))

    def _find(self, obj) -> Session:
        for rec in reversed(self.sessions):
            if rec.ref() is obj:
                return rec
        raise LookupError("session was not opened through engine.init_session")

    def _timed(self, original, problems: list, args, kwargs):
        try:
            return self.probe.timed(original, *args, **kwargs)
        except Exception as exc:
            problems.append(f"{original.__name__} raised {type(exc).__name__}: {exc}")
            raise

    # The engine entry points take (model, session, ...); init_session takes
    # (model, layout, policy, pattern, ...).
    def _wrap_init_session(self, original):
        def init_session(*args, **kwargs):
            session = original(*args, **kwargs)
            policy, pattern = args[2], args[3]
            self.sessions.append(Session(session, policy.policy_kind, pattern.describe(),
                                         policy.budget_fraction))
            return session
        return init_session

    def _wrap_prefill(self, original):
        def prefill(*args, **kwargs):
            session = args[1]
            rec = self._find(session)
            logits, rec.prefill = self._timed(original, rec.problems, args, kwargs)
            rec.prompt_len = session.prefill_len
            self._check_logits(rec, logits, ("prefill", rec.pattern))
            return logits
        return prefill

    def _wrap_apply_compression(self, original):
        def apply_compression(*args, **kwargs):
            session = args[1]
            rec = self._find(session)
            result, rec.compress = self._timed(original, rec.problems, args, kwargs)
            self._check_rows(rec, session)
            return result
        return apply_compression

    def _wrap_decode_step(self, original):
        def decode_step(*args, **kwargs):
            session = args[1]
            rec = self._find(session)
            logits, elapsed = self._timed(original, rec.problems, args, kwargs)
            rec.decode.append(elapsed)
            key = ("decode", rec.pattern, len(rec.decode) - 1) if rec.policy_kind == "full" else None
            self._check_logits(rec, logits, key)
            self._check_rows(rec, session)
            return logits
        return decode_step

    def _check_logits(self, rec: Session, logits, key):
        import numpy as np

        self.digest.update(logits.tobytes())
        if not np.all(np.isfinite(logits)):
            rec.problems.append("non-finite logits")
        if key is not None:
            rec.outputs.append((key, self.logits.add(key, logits)))

    def _check_rows(self, rec: Session, session):
        want = expected_rows(rec.policy_kind, rec.budget, rec.prompt_len) + len(rec.decode)
        for index, layer in enumerate(session.cache):
            for g in range(layer.num_heads):
                if layer.rows(g) != want:
                    rec.problems.append(
                        f"layer {index} head {g}: {layer.rows(g)} rows, expected {want}")
                    return
