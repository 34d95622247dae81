"""The CI smoke entry point must pass as a test too."""

from repro.serving.smoke import build_toy_magnet, main


def test_smoke_main_passes():
    assert main(["--requests", "8", "--concurrency", "2"]) == 0


def test_smoke_main_passes_with_worker_processes():
    assert main(["--requests", "8", "--concurrency", "2",
                 "--workers", "1"]) == 0


def test_toy_magnet_is_calibrated():
    magnet = build_toy_magnet(seed=1)
    assert all(d.threshold is not None for d in magnet.detectors)
    assert magnet.reformer is not None
