"""Golden request streams of the Fig. 11-14 configurations.

The simulator only prices the wire requests that striping, placement and
request planning produce, so a figure can change only if one of these
streams does.  Each configuration's plan — per rank, the ordered
``(server, coalesced extents, transfer_bytes, is_read)`` requests — is
hashed at the ``--quick`` shape of ``examples/reproduce_figures.py`` and
pinned here.  A change to those layers that moves any stream fails this
test in well under a second, long before the full figure run would show
it.
"""

import hashlib

import pytest

from repro.core import FileLevel, Greedy, RoundRobin
from repro.netsim.classes import CLASS1, CLASS3
from repro.perf import WorkloadSpec, build_workload
from repro.perf.figures import FILE_LEVEL_CONFIGS, PLACEMENT_CONFIGS

QUICK_SHAPE = (512, 2048)


def _file_level_specs(nprocs, nservers):
    for label, level, combine in FILE_LEVEL_CONFIGS:
        spec = WorkloadSpec(
            level=level, combine=combine, nprocs=nprocs, nservers=nservers,
            array_shape=QUICK_SHAPE, access_pattern="(*, BLOCK)", is_read=True,
        )
        yield label, spec, RoundRobin(nservers)


def _placement_specs(nprocs, nservers):
    performance = [CLASS1.performance] * (nservers // 2) + [
        CLASS3.performance
    ] * (nservers // 2)
    for algorithm in ("round_robin", "greedy"):
        for label, is_read, combine in PLACEMENT_CONFIGS:
            spec = WorkloadSpec(
                level=FileLevel.MULTIDIM, combine=combine, nprocs=nprocs,
                nservers=nservers, array_shape=QUICK_SHAPE,
                access_pattern="(BLOCK, *)", is_read=is_read,
            )
            policy = (
                RoundRobin(nservers) if algorithm == "round_robin"
                else Greedy(performance)
            )
            yield f"{algorithm} {label}", spec, policy


FIGURES = {
    "fig11": lambda: _file_level_specs(8, 4),
    "fig12": lambda: _file_level_specs(16, 8),
    "fig13": lambda: _placement_specs(8, 8),
    "fig14": lambda: _placement_specs(16, 16),
}


def plan_digest(spec, policy) -> str:
    workload = build_workload(spec, policy)
    h = hashlib.sha256()
    for plan in workload.plans:
        h.update(repr((plan.rank, plan.useful_bytes)).encode())
        for req in plan.requests:
            h.update(
                repr(
                    (req.server, req.extents, req.transfer_bytes, req.is_read)
                ).encode()
            )
    return h.hexdigest()[:16]


GOLDEN = {
    "fig11": {
        "Linear": "abaac2a7751c5767",
        "Combined Linear": "f7e5df6ae42246bc",
        "Multi-dim": "6bd52d790ab616e2",
        "Combined Multi-dim": "f87c5a8ce57ea000",
        "Array": "7d6de685bef7fc14",
        "Combined Array": "7d6de685bef7fc14",
    },
    "fig12": {
        "Linear": "a5a82d5225d90785",
        "Combined Linear": "d0ff34deab5ff30f",
        "Multi-dim": "69408eda6139a4f4",
        "Combined Multi-dim": "d0994aed490e4984",
        "Array": "17b661569258d26b",
        "Combined Array": "17b661569258d26b",
    },
    "fig13": {
        "round_robin Write": "e902899eaa61dd1c",
        "round_robin Combined Write": "8ecf18e3e7dd4b25",
        "round_robin Read": "dd422a960c61b6d5",
        "round_robin Combined Read": "75ab49a94b0a905a",
        "greedy Write": "2dadf4c725d9e208",
        "greedy Combined Write": "ad0adac19fc08aa2",
        "greedy Read": "bb2ca884be39917b",
        "greedy Combined Read": "872cdebd210f3bc6",
    },
    "fig14": {
        "round_robin Write": "6d1d57d726d86043",
        "round_robin Combined Write": "97f14a934041036b",
        "round_robin Read": "f7cf9dd428103a42",
        "round_robin Combined Read": "6caaaf74fc9e45d6",
        "greedy Write": "d7ff8e20dab9402b",
        "greedy Combined Write": "c31085ad6f7e3626",
        "greedy Read": "8530fd25d5dc0e6c",
        "greedy Combined Read": "6dcfdaca8c712319",
    },
}


@pytest.mark.parametrize("figure", sorted(FIGURES))
def test_figure_plans_unchanged(figure):
    got = {label: plan_digest(spec, policy) for label, spec, policy in FIGURES[figure]()}
    assert got == GOLDEN[figure]
