"""Dataset ingestion, preprocessing, evaluation protocol, and synthetic
clustered corpora for desk-scale experiments.

Input format is a headered CSV `user_id,item_id,rating,timestamp`; ratings
are filtered first, then users with too few remaining reviews are dropped.
Each kept user's reviews are split by timestamp into a behavior half and a
ground-truth half. Metrics are macro-averaged over users.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .seeding import substream

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class InteractionRecord:
    user_id: int
    item_id: int
    rating: float
    timestamp: int

    def __post_init__(self):
        if self.timestamp < 0:
            raise ValueError("timestamp must be >= 0")


@dataclass(frozen=True)
class MetricReport:
    precision: float
    recall: float
    f_measure: float
    k: int
    num_users: int
    skipped_users: int

    def as_dict(self) -> dict:
        return {"precision": self.precision, "recall": self.recall,
                "f_measure": self.f_measure, "k": self.k,
                "num_users": self.num_users, "skipped_users": self.skipped_users}


@dataclass
class EvalSplit:
    """Disjoint train/validation/test user sets with per-user halves.

    `history[user]` is (behavior_items, truth_items), both ordered by
    timestamp (ties by record order); the behavior half takes ceil(n/2)."""

    train_users: list
    val_users: list
    test_users: list
    history: dict = field(default_factory=dict)

    def users_of(self, subset: str) -> list:
        return {"train": self.train_users, "validation": self.val_users,
                "test": self.test_users}[subset]


def load_interactions_csv(path) -> tuple:
    """Parse a headered CSV; malformed rows are skipped and counted."""
    records = []
    skipped = 0
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        for row in reader:
            try:
                records.append(InteractionRecord(
                    int(row["user_id"]), int(row["item_id"]),
                    float(row["rating"]), int(row["timestamp"])))
            except (KeyError, TypeError, ValueError):
                skipped += 1
    if skipped:
        log.warning("skipped %d malformed rows in %s", skipped, path)
    return records, skipped


def write_interactions_csv(path, records) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["user_id", "item_id", "rating", "timestamp"])
        for r in records:
            w.writerow([r.user_id, r.item_id, repr(r.rating), r.timestamp])


def preprocess(records, min_rating: float = 4.0, min_reviews: int = 10):
    """Keep records rated >= min_rating, then users with >= min_reviews of
    the surviving records. Returns (records, stats)."""
    rated = [r for r in records if r.rating >= min_rating]
    per_user: dict = {}
    for r in rated:
        per_user[r.user_id] = per_user.get(r.user_id, 0) + 1
    kept = [r for r in rated if per_user[r.user_id] >= min_reviews]
    stats = {
        "num_users": len({r.user_id for r in kept}),
        "num_items": len({r.item_id for r in kept}),
        "num_interactions": len(kept),
    }
    return kept, stats


def make_split(records, n_val_users: int, n_test_users: int, seed: int) -> EvalSplit:
    """Sample disjoint validation/test user sets and split each user's
    reviews into behavior/truth halves by timestamp."""
    by_user: dict = {}
    for order, r in enumerate(records):
        by_user.setdefault(r.user_id, []).append((r.timestamp, order, r.item_id))
    users = sorted(by_user)
    if n_val_users + n_test_users >= len(users):
        raise ValueError(f"{n_val_users} validation and {n_test_users} test users "
                         f"leave no training user among {len(users)}")
    rng = substream(seed, "splits")
    picked = rng.choice(len(users), size=n_val_users + n_test_users, replace=False)
    val_users = sorted(users[i] for i in picked[:n_val_users])
    test_users = sorted(users[i] for i in picked[n_val_users:])
    held = set(val_users) | set(test_users)
    train_users = [u for u in users if u not in held]
    history = {}
    for u, rows in by_user.items():
        rows.sort()
        items = [item for _, _, item in rows]
        cut = math.ceil(len(items) / 2)
        history[u] = (items[:cut], items[cut:])
    return EvalSplit(train_users, val_users, test_users, history)


def evaluate(retrieve_fn, split: EvalSplit, k: int,
             subset: str = "test") -> MetricReport:
    """Macro-averaged precision/recall/F at k over one user subset.

    `retrieve_fn(behavior_items, k)` returns item ids. Users with an empty
    truth half are excluded and counted."""
    if k < 1:
        raise ValueError("k must be >= 1")
    precisions, recalls, fs = [], [], []
    skipped = 0
    for user in split.users_of(subset):
        behavior, truth = split.history[user]
        if not truth:
            skipped += 1
            continue
        retrieved = list(retrieve_fn(behavior, k))[:k]
        hits = len(set(retrieved) & set(truth))
        p = hits / k
        r = hits / len(truth)
        f = 2 * p * r / (p + r) if p + r > 0 else 0.0
        precisions.append(p)
        recalls.append(r)
        fs.append(f)
    n = len(precisions)
    if n == 0:
        return MetricReport(0.0, 0.0, 0.0, k, 0, skipped)
    return MetricReport(float(np.mean(precisions)), float(np.mean(recalls)),
                        float(np.mean(fs)), k, n, skipped)


def synth_clusters(num_clusters: int, items_per_cluster: int, num_users: int,
                   interactions_per_user: int, mixture_weight: float,
                   seed: int):
    """Clustered implicit-feedback corpus with planted structure.

    Each user draws a primary cluster and a distinct secondary cluster;
    every interaction samples an item from the secondary cluster with
    probability `mixture_weight`, else from the primary; item i is in
    cluster i // items_per_cluster. Returns (records, labels) where labels
    carries the cluster sizes and each user's (primary, secondary) pair."""
    if num_clusters < 1:
        raise ValueError("num_clusters must be >= 1")
    if not 0 <= mixture_weight <= 1:
        raise ValueError("mixture_weight must be in [0, 1]")
    rng = substream(seed, "synth")
    records = []
    user_clusters = {}
    t = 0
    for u in range(num_users):
        primary = int(rng.integers(num_clusters))
        if num_clusters > 1:
            secondary = int(rng.integers(num_clusters - 1))
            if secondary >= primary:
                secondary += 1
        else:
            secondary = primary
        user_clusters[u] = (primary, secondary)
        for _ in range(interactions_per_user):
            g = secondary if rng.random() < mixture_weight else primary
            item = g * items_per_cluster + int(rng.integers(items_per_cluster))
            records.append(InteractionRecord(u, item, 5.0, t))
            t += 1
    labels = {
        "num_clusters": num_clusters,
        "items_per_cluster": items_per_cluster,
        "user_clusters": user_clusters,
    }
    return records, labels


def build_item_vocab(records) -> tuple:
    """Contiguous indexing of item ids. Returns (ids, id_to_index)."""
    ids = sorted({r.item_id for r in records})
    return ids, {item: i for i, item in enumerate(ids)}


def training_samples(split: EvalSplit, item_index: dict, max_seq_len: int):
    """(behavior context, target) pairs: one per ground-truth item of each
    training user, the behavior half reindexed as the context."""
    from .structure import UserContext
    samples = []
    for user in split.train_users:
        behavior, truth = split.history[user]
        ctx_items = [item_index[i] for i in behavior if i in item_index]
        ctx = UserContext.from_sequence(ctx_items, max_seq_len)
        for item in truth:
            if item in item_index:
                samples.append((ctx, item_index[item]))
    return samples
