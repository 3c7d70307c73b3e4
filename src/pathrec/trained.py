"""Trained-model bundle: everything retrieval and persistence need."""

from __future__ import annotations

from dataclasses import dataclass, field

from . import retrieval
from .em import ScoreTable
from .reranker import SoftmaxModel, brute_force_retrieve, rerank
from .retrieval import ItemPathMapping
# Serving does not call these two; they stay importable here because
# perfbench/tracing.py wraps them in this module by name.
from .retrieval import adaptive_beam, retrieve_candidates  # noqa: F401
from .structure import StructureConfig, StructureParams, UserContext


@dataclass
class TrainedModel:
    cfg: StructureConfig
    params: StructureParams
    model: SoftmaxModel
    mapping: ItemPathMapping
    item_ids: list                 # index -> original item id
    table: ScoreTable | None = None   # training's path-score arrays; not saved
    stats: list = field(default_factory=list)

    @property
    def num_items(self) -> int:
        return len(self.item_ids)

    def context(self, behavior_items) -> UserContext:
        """Behavior sequence of internal item indices -> context."""
        return UserContext.from_sequence(behavior_items, self.cfg.max_seq_len)

    def retrieve(self, behavior_items, k: int, beam_size: int | None = None,
                 adaptive: bool = False) -> list:
        """Structure retrieval: beam search, inverted index, softmax rerank.

        Returns (internal item index, score) pairs. With `adaptive`, the
        beam grows until the candidate pool is 5x the requested k. The user
        is encoded once, for every beam width and the rerank, which scores
        the beam's inverted-index entries as they are: an item on two beam
        paths counts once in the top k."""
        ctx = self.context(behavior_items)
        # Looked up through `retrieval`, where perfbench/tracing.py counts
        # the encodings of a structure query.
        u = retrieval.user_embedding(ctx, self.params)
        if adaptive:
            items = retrieval._adaptive_entries(u, self.params, self.mapping, k)[2]
        else:
            paths, _ = retrieval.batched_beam_search(u[None], self.params, beam_size)
            items, _ = retrieval._entries(paths[0], self.mapping)
        if items.size == 0:
            return []
        return rerank(items, ctx, self.model, self.params, k, u=u)

    def retrieve_brute_force(self, behavior_items, k: int) -> list:
        ctx = self.context(behavior_items)
        return brute_force_retrieve(ctx, self.model, self.params, k)
