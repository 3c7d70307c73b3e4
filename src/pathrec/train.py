"""End-to-end training driver: wires the split, EM loop and reranker
together and produces a trained bundle ready for retrieval or persistence.
"""

from __future__ import annotations

import logging

from .core import OptimizerState
from .data import EvalSplit, build_item_vocab, training_samples
from .em import EmConfig, ScoreTable, em_epoch
from .reranker import SoftmaxModel
from .retrieval import ItemPathMapping
from .seeding import substream
from .structure import StructureConfig, StructureParams
from .trained import TrainedModel

log = logging.getLogger(__name__)


def train_model(records, split: EvalSplit, cfg: StructureConfig,
                em_cfg: EmConfig, seed: int) -> TrainedModel:
    """Train the structure model and softmax reranker jointly with EM."""
    item_ids, item_index = build_item_vocab(records)
    num_items = len(item_ids)
    samples = training_samples(split, item_index, cfg.max_seq_len)
    log.info("training on %d samples, %d items", len(samples), num_items)

    rng_init = substream(seed, "init")
    params = StructureParams.init_random(cfg, num_items, rng_init)
    model = SoftmaxModel.init_random(num_items, cfg.emb_dim, rng_init)
    mapping = ItemPathMapping.random_init(cfg, num_items, substream(seed, "mapping"))
    table = ScoreTable(num_items, cfg.score_capacity, cfg.num_nodes, cfg.depth)
    opt_state = OptimizerState(em_cfg.learning_rate)

    rng_negatives = substream(seed, "negatives")
    rng_shuffle = substream(seed, "shuffle")
    rng_mapping = substream(seed, "mapping-cd")
    stats_log = []
    for epoch in range(em_cfg.epochs):
        mapping, stats = em_epoch(samples, params, model, mapping, table,
                                  opt_state, em_cfg, epoch,
                                  rng_negatives, rng_shuffle, rng_mapping)
        stats_log.append(stats)
        log.info("epoch %d: loss=%.4f top_path_size=%d (%.1fs)", epoch,
                 stats["mean_loss"], stats["top_path_size"], stats["seconds"])
    return TrainedModel(cfg=cfg, params=params, model=model, mapping=mapping,
                        table=table, item_ids=item_ids, stats=stats_log)
