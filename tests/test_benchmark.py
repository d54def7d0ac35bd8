import hashlib

import pytest

from skd.benchmark import make_benchmark


def benchmark_digest(bench) -> str:
    """SHA-256 over the train set's arrays and every verification pair."""
    sset = bench.train_set
    digest = hashlib.sha256()
    for array in (sset.labels, sset.features, sset.inputs, sset.outlier):
        digest.update(array.tobytes())
    for a, b, same in zip(*bench.eval_pairs):
        digest.update(a.tobytes())
        digest.update(b.tobytes())
        digest.update(same.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("seed, expected", [
    (1, "459777839d6b16000e9bf7a30e60e84143e5be7a57490cfc85a7c5732ead92a2"),
    (1811, "b77c6105a9323a9c159375121dac933a6b2511f0e2a55baf2850e47fc1291aac"),
])
def test_make_benchmark_golden(seed, expected):
    bench = make_benchmark(seed)
    assert len(bench.train_set) == 300 and len(bench.eval_pairs[2]) == 600
    assert benchmark_digest(bench) == expected
