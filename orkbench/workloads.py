"""The four CLI workloads and the datasets they run on.

Each workload runs one ``orkmc`` subcommand on ``datasets`` generated
datasets.  A fit's cost depends on its data (the number of projected-gradient
sweeps varies by a factor of two or more between seeds), so one run averages
over several datasets drawn from the run's seed instead of timing one large
one; that keeps two runs with different seeds comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

VIEWS = 2
# The traced run times each dataset twice (with and without spans), so it
# uses the first few datasets only.
TRACED_DATASETS = 4


@dataclass(frozen=True)
class Workload:
    """``orkmc <subcommand> --algo <algo> --k <k> [--chushi] <flags>`` on
    ``datasets`` generated datasets of ``n`` rows and VIEWS views of ``j``
    features each (every column shifted to minimum 0 when ``nonneg``)."""

    name: str
    subcommand: str
    algo: str
    n: int
    k: int
    j: int
    nonneg: bool = False
    flags: tuple = ()
    chushi: int = 0
    datasets: int = 8

    def cli_args(self, manifest: str, out: str, seed: int) -> list:
        args = [self.subcommand, "--algo", self.algo, "--k", str(self.k)]
        if self.chushi:
            args += ["--chushi", str(self.chushi)]
        return args + list(self.flags) + ["--data", manifest, "--out", out, "--seed", str(seed)]

    def smoke(self) -> "Workload":
        """The same command on tiny inputs, for the benchmark's own tests."""
        return replace(self, n=60, j=min(self.j, 20), chushi=min(self.chushi, 20), datasets=1)


# Why each workload exists: BENCHMARK.json and orkbench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="rkmc-dense",
            subcommand="fit", algo="rkmc", n=600, k=10, j=20,
            flags=("--yita", "1", "--max-iter", "30", "--epsilon", "1e-12"),
            datasets=20,
        ),
        Workload(
            name="rkmc-nonneg",
            subcommand="fit", algo="rkmc", n=150, k=8, j=40, nonneg=True,
            flags=("--yita", "1", "--max-iter", "10", "--epsilon", "1e-12"),
            datasets=12,
        ),
        Workload(
            name="stream",
            subcommand="stream", algo="orkmc", n=2000, k=5, j=10, chushi=500,
            flags=("--emit-every", "1"),
            datasets=20,
        ),
        Workload(
            name="lloyd-io",
            subcommand="fit", algo="kmeans", n=10000, k=10, j=10,
            datasets=14,
        ),
    )
}


def dataset_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th dataset (of at most 64) of a run with seed ``seed``."""
    return (int(seed) * 64 + index) % 2**32


def make_dataset(w: Workload, seed: int):
    """Generate one dataset of workload ``w`` with ``orkmc.datagen``."""
    from orkmc import datagen
    from orkmc.model import MultiViewDataset

    data = datagen.generate(datagen.SimSpec(n=w.n, k=w.k, v=VIEWS, j=w.j, seed=seed))
    if w.nonneg:
        data = MultiViewDataset(
            views=tuple(x - x.min(axis=0) for x in data.views),
            labels=data.labels,
            name=data.name + "-nonneg",
        )
    return data
