"""Fig 25: computing time needed for eavesdropping.

The paper's C++ service infers >95 % of key presses within 0.1 ms.  We
time every lookup during a real attack run (each batch pass's wall time
per lookup it scored, histogram) and additionally benchmark the bare
nearest-centroid inference with pytest-benchmark's statistics.
"""

import numpy as np

from conftest import scaled
from repro.analysis.experiments import cached_model, run_credential_batch
from repro.core import features


def test_fig25_inference_time_histogram(benchmark, config, chase):
    def run():
        batch = run_credential_batch(config, chase, n_texts=scaled(10), seed=2500)
        return np.array(batch.inference_times_s)

    times = benchmark.pedantic(run, rounds=1, iterations=1)

    edges = [0, 25e-6, 50e-6, 100e-6, 150e-6, np.inf]
    hist, _ = np.histogram(times, bins=edges)
    print("\nFig 25 — inference time histogram:")
    labels = ["<25us", "25-50us", "50-100us", "100-150us", ">150us"]
    for label, count in zip(labels, hist):
        print(f"  {label:>10s}: {count:5d} ({100 * count / len(times):.1f}%)")
    print(f"  median={np.median(times) * 1e6:.1f}us  p95={np.quantile(times, 0.95) * 1e6:.1f}us")

    # the paper's bound, evaluated at the median and a loose tail (Python
    # scheduler noise makes the extreme tail unstable)
    assert np.median(times) < 1e-4
    assert np.quantile(times, 0.9) < 1e-3


def test_fig25_bare_classification_benchmark(benchmark, config, chase):
    """Microbenchmark of one nearest-centroid inference."""
    model = cached_model(config, chase)
    vec = model.centroid("key:w") * 1.001

    result = benchmark(model.classify, vec)
    assert result.label == "key:w"
    # pytest-benchmark reports the distribution; assert the mean is sane
    assert benchmark.stats.stats.mean < 1e-3
