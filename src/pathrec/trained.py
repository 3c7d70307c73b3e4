"""Trained-model bundle: everything retrieval and persistence need."""

from __future__ import annotations

from dataclasses import dataclass, field

from .em import ScoreTable
from .reranker import SoftmaxModel, brute_force_retrieve, rerank
from .retrieval import ItemPathMapping, adaptive_beam, retrieve_candidates
from .structure import StructureConfig, StructureParams, UserContext


@dataclass
class TrainedModel:
    cfg: StructureConfig
    params: StructureParams
    model: SoftmaxModel
    mapping: ItemPathMapping
    table: ScoreTable
    item_ids: list                 # index -> original item id
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
        beam grows until the candidate pool is 5x the requested k."""
        ctx = self.context(behavior_items)
        if adaptive:
            candidates, _ = adaptive_beam(ctx, self.params, self.mapping, k)
        else:
            candidates = retrieve_candidates(ctx, self.params, self.mapping,
                                             beam_size=beam_size)
        if len(candidates) == 0:
            return []
        return rerank(candidates["item"], ctx, self.model, self.params, k)

    def retrieve_brute_force(self, behavior_items, k: int) -> list:
        ctx = self.context(behavior_items)
        return brute_force_retrieve(ctx, self.model, self.params, k)
