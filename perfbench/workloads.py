"""The benchmark's workloads and the layer map that later changes cite.

A workload is a fixed cycle of `uadb` CLI jobs (one `cli.main` call each)
on synthetic CSVs generated from the benchmark seed. The cycle repeats
unchanged for the whole run, so every job kind is equally represented and
each repeat doubles as a bit-exact determinism check.
"""

from __future__ import annotations

from dataclasses import dataclass

KINDS = ("clustered", "global", "local", "dependency")


@dataclass(frozen=True)
class Slot:
    """One job of the cycle: the CLI arguments and the dataset it reads.

    replica r > 0 draws another dataset of the same kind (seed + 1000 r).
    """

    kind: str
    args: tuple[str, ...]
    replica: int = 0

    @property
    def data(self) -> str:
        return f"{self.kind}-{self.replica}"

    @property
    def label(self) -> str:
        return f"{self.args[0]}-{self.args[-1]}-{self.data}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int
    slots: tuple[Slot, ...]
    history: bool = False  # also write --history-out (boost only)


def _boost(teacher: str, kinds, replicas: int = 1) -> tuple[Slot, ...]:
    return tuple(
        Slot(kind, ("boost", "--teacher", teacher), r) for r in range(replicas) for kind in kinds
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper-n300",
            why=(
                "The paper's own scale (n=300, d=2, T=10, 3 folds) on two datasets of each of "
                "the four synthetic kinds (two, so the mean AUCROC varies less between seeds): "
                "the isolation-forest teacher and its scalar rng draws do about half the work, "
                "so detector/rng changes show here; it bypasses the neighbor detectors."
            ),
            n=300,
            slots=_boost("iforest", KINDS, replicas=2),
            history=True,
        ),
        Workload(
            name="train-n3000",
            why=(
                "n=3000 with the millisecond histogram teacher, so nn.train does about 95% of "
                "the work and training-step/booster changes show here; it bypasses the isolation "
                "forest, so iforest changes should predict no change."
            ),
            n=3000,
            slots=_boost("hbos", ("clustered", "dependency")),
        ),
        Workload(
            name="neighbors-n4000",
            why=(
                "LOF and kNN detection at n=4000, where the O(n^2 d) pairwise tensor dominates "
                "time and peak memory, so neighbor-graph changes show in peak_rss_mb; it "
                "bypasses nn and booster entirely."
            ),
            n=4000,
            slots=(
                Slot("local", ("detect", "--detector", "lof")),
                Slot("local", ("detect", "--detector", "knn")),
            ),
        ),
    )
}

# per-layer metric -> (end-to-end metrics it should move, workloads where it should)
LAYER_MAP = {
    "detectors.iforest.s": (("job_s.p50", "rows_per_s"), ("paper-n300",)),
    "rng.u64.calls": (("job_s.p50", "rows_per_s"), ("paper-n300",)),
    "rng.u64.s": (("job_s.p50", "rows_per_s"), ("paper-n300",)),
    "detectors.lof.s": (("peak_rss_mb", "job_s.p50"), ("neighbors-n4000",)),
    "detectors.knn.s": (("peak_rss_mb", "job_s.p50"), ("neighbors-n4000",)),
    "detectors.fit_score.peak_alloc_mb": (("peak_rss_mb", "job_s.p50"), ("neighbors-n4000",)),
    "detectors.hbos.s": (("job_s.p50",), ("neighbors-n4000",)),
    "detectors.save_scores.s": (("job_s.p50",), ("neighbors-n4000",)),
    "data.load_csv.s": (("job_s.p50",), ("neighbors-n4000",)),
    "nn.train.s": (("job_s.p50", "rows_per_s"), ("train-n3000", "paper-n300")),
    "nn.train.calls": (("job_s.p50", "rows_per_s"), ("train-n3000", "paper-n300")),
    "nn.train.steps": (("job_s.p50", "rows_per_s"), ("train-n3000", "paper-n300")),
    "nn.train.step_ms": (("job_s.p50", "rows_per_s"), ("train-n3000", "paper-n300")),
    "nn.forward.s": (("job_s.p50",), ("train-n3000",)),
    "nn.forward.rows": (("job_s.p50",), ("train-n3000",)),
    "booster.run_booster.s": (("job_s.p50",), ("train-n3000",)),
    "booster.self_s": (("job_s.p50",), ("train-n3000",)),
    "booster.conditioner.fit.s": (("job_s.p50",), ("train-n3000",)),
    "booster.conditioner.apply.s": (("job_s.p50",), ("train-n3000",)),
    "booster.variance.s": (("job_s.p50",), ("train-n3000",)),
    "booster.update.s": (("job_s.p50",), ("train-n3000",)),
    "metrics.s": (("job_s.p50",), ("paper-n300",)),
    "metrics.calls": (("job_s.p50",), ("paper-n300",)),
    "cli.self_s": (("job_s.p50",), tuple(WORKLOADS)),
    "job_traced_s": ((), tuple(WORKLOADS)),
    "trace_overhead_s": ((), tuple(WORKLOADS)),
}
