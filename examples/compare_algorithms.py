"""Reproduce the paper's headline comparison table at a reduced scale.

Runs the paper's five algorithms (Send-V, H-WTopk, Send-Sketch, Improved-S,
TwoLevel-S) over the scaled default Zipfian workload and prints the same three
metrics the evaluation section reports: intra-cluster communication,
end-to-end (simulated) running time and SSE.

Run with:  python examples/compare_algorithms.py           # scaled default workload
           python examples/compare_algorithms.py --quick   # small and fast
"""

from __future__ import annotations

import argparse

from repro.core.histogram import WaveletHistogram
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_algorithms, standard_algorithms


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="use the small test configuration instead of the scaled default")
    arguments = parser.parse_args()

    config = ExperimentConfig.quick() if arguments.quick else ExperimentConfig()
    dataset = config.build_dataset()
    cluster = config.build_cluster(dataset)
    reference = dataset.frequency_vector()
    ideal_sse = WaveletHistogram.from_frequency_vector(reference, config.k).sse(reference)

    print(f"workload: n={dataset.n}, u=2^{config.u.bit_length() - 1}, alpha={config.alpha}, "
          f"~{config.target_splits} splits, k={config.k}, eps={config.epsilon}")
    print(f"times are simulated against the paper's 16-node cluster "
          f"(scale factor {config.scale_factor(dataset):.0f}x)\n")

    measurements = run_algorithms(dataset, standard_algorithms(config),
                                  reference=reference,
                                  profile=config.build_profile(cluster))
    print(f"{'algorithm':<12} {'rounds':>6} {'comm (bytes)':>14} {'time (s)':>12} "
          f"{'SSE':>12} {'SSE/ideal':>10}")
    for measurement in measurements:
        print(f"{measurement.algorithm:<12} {measurement.num_rounds:>6} "
              f"{measurement.communication_bytes:>14,.0f} "
              f"{measurement.simulated_time_s:>12.1f} "
              f"{measurement.sse:>12.3e} {measurement.sse / ideal_sse:>10.2f}")

    print("\nExpected shape (paper Section 5): H-WTopk beats Send-V on both metrics; "
          "the sampling methods are cheapest by far, with TwoLevel-S communicating the "
          "least; Send-Sketch is the slowest method overall.")


if __name__ == "__main__":
    main()
