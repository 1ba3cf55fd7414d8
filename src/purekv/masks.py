"""Boolean attention-sparsity masks over a video token layout.

A layout splits the flat sequence into [text prefix | T frames x P patches |
text suffix]. Masks are (n, n) bool arrays, True = attention allowed, always
a subset of the causal lower triangle with the diagonal forced on.

Video-token sparsity rules (query q, key k, both video, intersected k <= q):

    dense            everything
    local(w)         q - k < w
    atrous(s)        (q - k) % s == 0
    spatial          key in first frame, or key in the query's frame
    temporal         key in first frame, or same patch in the previous frame,
                     or k == q
    spatial_temporal union of spatial and temporal

Text tokens attend causally to everything, and every token may attend to the
text prefix: question/instruction text keeps full context, only video-video
links are sparsified.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

PATTERN_KINDS = ("dense", "local", "atrous", "spatial", "temporal", "spatial_temporal")


@dataclass(frozen=True)
class TokenLayout:
    """Decomposition of a flat token sequence into text and frame/patch grid."""

    text_prefix_len: int
    num_frames: int
    patches_per_frame: int
    text_suffix_len: int

    def __post_init__(self):
        for name in ("text_prefix_len", "num_frames", "patches_per_frame", "text_suffix_len"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"layout.{name} must be non-negative")
        if self.num_frames > 0 and self.patches_per_frame == 0:
            raise ConfigurationError("layout with frames needs patches_per_frame >= 1")
        if self.total_len < 1:
            raise ConfigurationError("layout must describe at least one token")

    @property
    def video_len(self) -> int:
        return self.num_frames * self.patches_per_frame

    @property
    def total_len(self) -> int:
        return self.text_prefix_len + self.video_len + self.text_suffix_len


# The kinds that take a parameter: its name and its smallest value.
_PARAMS = {"local": ("window", 1), "atrous": ("stride", 2)}


@dataclass(frozen=True)
class SparsityPattern:
    """Declarative sparsity pattern; param is local's window or atrous's stride, else None."""

    kind: str
    param: int | None = None

    def __post_init__(self):
        if self.kind not in PATTERN_KINDS:
            raise ConfigurationError(
                f"unknown pattern kind {self.kind!r}, expected one of {PATTERN_KINDS}"
            )
        if self.kind in _PARAMS:
            name, low = _PARAMS[self.kind]
            if self.param is None or self.param < low:
                raise ConfigurationError(f"{self.kind} pattern needs {name} >= {low}")
        elif self.param is not None:
            raise ConfigurationError(f"{self.kind} pattern takes no parameter, got {self.param}")

    @classmethod
    def dense(cls) -> "SparsityPattern":
        return cls("dense")

    @classmethod
    def local(cls, window: int) -> "SparsityPattern":
        return cls("local", window)

    @classmethod
    def atrous(cls, stride: int) -> "SparsityPattern":
        return cls("atrous", stride)

    @classmethod
    def spatial(cls) -> "SparsityPattern":
        return cls("spatial")

    @classmethod
    def temporal(cls) -> "SparsityPattern":
        return cls("temporal")

    @classmethod
    def spatial_temporal(cls) -> "SparsityPattern":
        return cls("spatial_temporal")

    def describe(self) -> str:
        return self.kind if self.param is None else f"{self.kind}:{self.param}"


def parse_pattern(text: str, layout: TokenLayout | None = None) -> SparsityPattern:
    """Parse 'kind' or 'kind:param' CLI/config syntax.

    Defaults when the parameter is omitted: local window = one frame of
    tokens, atrous stride = 2.
    """
    name, _, param = text.partition(":")
    name = name.strip()
    if name not in PATTERN_KINDS:
        raise ConfigurationError(
            f"unknown pattern {text!r}, expected one of {PATTERN_KINDS}"
        )
    value = None
    if param:
        try:
            value = int(param)
        except ValueError:
            raise ConfigurationError(f"bad pattern parameter in {text!r}") from None
    elif name == "atrous":
        value = 2
    elif name == "local":
        if layout is None or layout.patches_per_frame < 1:
            raise ConfigurationError(f"pattern {text!r} needs an explicit window")
        value = layout.patches_per_frame
    return SparsityPattern(name, value)


def _video_rule(pattern: SparsityPattern, n: int, P: int) -> np.ndarray:
    """(n, n) bool over video indices: the keys each query may see, causality aside."""
    q, k = np.arange(n)[:, None], np.arange(n)[None, :]
    if pattern.kind == "local":
        return (q - k) < pattern.param
    if pattern.kind == "atrous":
        return ((q - k) % pattern.param) == 0
    # spatial_temporal is the union of the spatial and temporal rules.
    allowed = np.zeros((n, n), dtype=bool)
    allowed[:, :P] = True  # the first frame
    if pattern.kind in ("spatial", "spatial_temporal"):
        for start in range(0, n, P):  # the query's own frame
            allowed[start:start + P, start:start + P] = True
    if pattern.kind in ("temporal", "spatial_temporal"):
        np.fill_diagonal(allowed[P:], True)  # the same patch one frame back: k = q - P
    return allowed


def build_mask(layout: TokenLayout, pattern: SparsityPattern) -> np.ndarray:
    """Realize a pattern over a layout as an (n, n) bool matrix.

    It starts from the causal triangle, which is the whole dense mask and
    every text row, and narrows the block of video queries against video
    keys in place: video queries keep every text-prefix key and themselves,
    and the text suffix comes after them.
    """
    allowed = np.tri(layout.total_len, dtype=bool)
    if pattern.kind == "dense":
        return allowed
    start, n = layout.text_prefix_len, layout.video_len
    block = allowed[start:start + n, start:start + n]
    block &= _video_rule(pattern, n, max(layout.patches_per_frame, 1))
    np.fill_diagonal(block, True)
    return allowed


def mask_density(mask: np.ndarray) -> float:
    """Allowed-pair count over the full causal count n(n+1)/2."""
    mask = np.asarray(mask, dtype=bool)
    n = mask.shape[0]
    if n == 0:
        raise ConfigurationError("mask_density requires a non-empty mask")
    return float(int(mask.sum()) / (n * (n + 1) / 2))


def mask_to_text(mask: np.ndarray) -> str:
    """Render as rows of 0/1 for goldens and the CLI."""
    mask = np.asarray(mask, dtype=bool)
    return "\n".join("".join("1" if b else "0" for b in row) for row in mask)
