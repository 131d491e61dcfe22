#!/usr/bin/env python3
"""Batched zoo-model inference through the NVDLA pipeline.

Where ``full_network_inference.py`` walks a toy 3-stage network one
image at a time, this example compiles real Table-I topologies from
``models/zoo.py`` (width/resolution-scaled for simulation speed) and
runs a whole batch through every conv/SDP/PDP stage at once — on both
convolution engines, with burst-aware tile scheduling, and with the
shared burst-map cache keeping repeated latency analyses free.

Run:  python examples/batched_network_inference.py
"""

import numpy as np

from repro.core.latency import burst_map_cache_stats
from repro.nvdla.config import CoreConfig
from repro.runtime import NetworkRunner
from repro.utils.tables import format_table


def main() -> None:
    config = CoreConfig(k=16, n=16)
    batch = 4
    models = ("mobilenet_v2", "resnet18", "shufflenet_v2")

    runners = {
        engine: NetworkRunner(
            config, engine=engine, scale=0.125, input_size=32
        )
        for engine in ("binary", "tempus")
    }

    rows = []
    for name in models:
        binary = runners["binary"].run(name, batch)
        tempus = runners["tempus"].run(name, batch)
        assert np.array_equal(binary.output, tempus.output), (
            "engines diverged"
        )
        # The per-image reference pipeline reproduces the batched run
        # bit for bit (and cycle for cycle).
        reference = runners["tempus"].run_per_image(name, batch)
        assert np.array_equal(tempus.output, reference.output)
        assert tempus.conv_cycles == reference.conv_cycles
        rows.append(
            (
                name,
                len(tempus.stages),
                "x".join(str(d) for d in tempus.output.shape),
                f"{binary.conv_cycles:,}",
                f"{tempus.conv_cycles:,}",
                f"{tempus.images_per_million_cycles:.3f}",
                (
                    "-"
                    if tempus.cache["hit_rate"] is None
                    else f"{tempus.cache['hit_rate']:.2f}"
                ),
            )
        )

    print(
        format_table(
            [
                "model",
                "stages",
                "output",
                "binary cycles",
                "tempus cycles",
                "img/Mcycle",
                "cache hit",
            ],
            rows,
            title=(
                f"batch-{batch} inference on the {config.describe()} "
                "pipeline (scale 0.125, 32x32 input)"
            ),
        )
    )
    stats = burst_map_cache_stats()
    print(
        f"\nburst-map cache totals: {stats['hits']} hits / "
        f"{stats['misses']} misses ({stats['entries']} entries)"
    )
    print(
        "outputs are bit-identical across engines and to the per-image "
        "reference pipeline."
    )


if __name__ == "__main__":
    main()
