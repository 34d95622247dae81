"""The batched, numpy-only rendering path of the synthetic datasets.

Pins the generated splits bit for bit, checks the numpy blur and zoom
against ``scipy.ndimage`` (the reference they port), and checks that the
one-image entry points are the batch path's n = 1 case.
"""

import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import repro.datasets
from repro.datasets import digits as D
from repro.datasets import objects as O
from repro.datasets import rendering as R
from repro.datasets.corruptions import CORRUPTIONS
from repro.datasets import load_digit_splits, load_object_splits

#: SHA-256 over the train, val and test x and y bytes of each split set,
#: recorded with the per-image scipy.ndimage renderer these replace.
PINNED = {
    ("digits", 0, (240, 80, 80)): "22bdb55ede4df609b048e23bcbf57a5a3232ccfe49b1f939f64c450cf7515c8d",
    ("digits", 1, (240, 80, 80)): "22b3d4671888ec3b89791d3b765953092f796faa07d5c5ebe4905d6b67053e07",
    ("digits", 2, (240, 80, 80)): "4bd94aaad4e070a5a6bbcf852ea0b1259dd1b7fd9c678b6b766fa8127b580e40",
    ("digits", 3, (240, 80, 80)): "6c42bd0fc6ffcf7a515f639f385e63398325261e647abfd25a36cbc7ad5715de",
    ("objects", 0, (160, 80, 80)): "65e10a88d195e6dd3537d2792d74322415815968e39c50d0df24c59f0493318f",
    ("objects", 1, (160, 80, 80)): "0d4bbcdb91d9d2d588c1a3ca1a912c7c0cf1164784a126b0d8542c63598423f2",
    ("objects", 2, (160, 80, 80)): "9442980b5f46b1b5d0d1d15a46613fbbefa62c89557192bc274757917c7dec8a",
    ("objects", 3, (160, 80, 80)): "4e26b3bcd00174b750b209a98b9a1d89ccce203e6dfa876123a0ec378427152d",
    ("digits", 0, (800, 200, 400)): "d8071c5c739ca9a998d3bf16fee5db718ce35ac3fea256bd4ade26dcf2e1aff8",
    ("objects", 0, (800, 200, 400)): "d6d5535f0877551e649ac488f0331b95b534cde03db632f6b27e37876cfc2023",
}

LOADERS = {"digits": load_digit_splits, "objects": load_object_splits}


def splits_digest(splits) -> str:
    h = hashlib.sha256()
    for part in ("train", "val", "test"):
        ds = getattr(splits, part)
        h.update(ds.x.tobytes())
        h.update(ds.y.tobytes())
    return h.hexdigest()


class TestPinnedSplits:
    def test_sizes_cover_several_and_partial_chunks(self):
        assert max(max(sizes) for _, _, sizes in PINNED) > 4 * R.CHUNK
        assert any(n % R.CHUNK for _, _, sizes in PINNED for n in sizes)

    @pytest.mark.parametrize("dataset,seed,sizes", sorted(PINNED))
    def test_digest(self, dataset, seed, sizes):
        splits = LOADERS[dataset](*sizes, seed=seed)
        assert splits_digest(splits) == PINNED[dataset, seed, sizes]


class TestOneImageIsTheBatchCase:
    @pytest.mark.parametrize("module,render,shape", [
        (D, D.render_digit, (1, 28, 28)),
        (O, O.render_object, (3, 32, 32)),
    ])
    def test_sequential_renders_equal_generate(self, module, render, shape):
        """One image at a time on one stream equals the chunked batch."""
        n = R.CHUNK + 7
        generate = D.generate_digits if module is D else O.generate_objects
        batch = generate(n, seed=5)
        rng = np.random.default_rng(5)
        labels = np.arange(n) % 10
        rng.shuffle(labels)
        np.testing.assert_array_equal(labels, batch.y)
        single = np.stack([render(int(c), rng) for c in labels])
        assert single.shape == (n,) + shape
        np.testing.assert_array_equal(single.view(np.uint32), batch.x.view(np.uint32))

    def test_render_digit_is_first_of_batch(self):
        one = D.render_digit(4, np.random.default_rng(3))
        rest = D._render_digits(np.array([4, 8, 1]), np.random.default_rng(3), 28)
        np.testing.assert_array_equal(one, rest[0])

    def test_clean_digit_is_first_of_clean_batch(self):
        one = D.render_digit(7, np.random.default_rng(0), clean=True)
        rest = D._render_digits(np.array([7, 0]), np.random.default_rng(1), 28, clean=True)
        np.testing.assert_array_equal(one, rest[0])

    def test_render_object_is_first_of_batch(self):
        one = O.render_object(9, np.random.default_rng(3))
        rest = O._render_objects(np.array([9, 2, 5]), np.random.default_rng(3), 32)
        np.testing.assert_array_equal(one, rest[0])


class TestScipyParity:
    """The numpy ports against the scipy.ndimage calls they replace."""

    @pytest.fixture(autouse=True)
    def ndimage(self):
        return pytest.importorskip("scipy.ndimage")

    def test_blur_random_shapes_and_sigmas(self, ndimage):
        rng = np.random.default_rng(0)
        for _ in range(300):
            lead = tuple(rng.integers(1, 4, size=rng.integers(0, 3)))
            h, w = rng.integers(1, 12, size=2)
            x = rng.random(lead + (h, w)).astype(np.float32)
            sigma = float(rng.uniform(0.05, 4.0))
            expected = ndimage.gaussian_filter(x, [0] * len(lead) + [sigma, sigma])
            np.testing.assert_array_equal(R.gaussian_blur(x, sigma), expected)

    def test_blur_radius_wider_than_axis(self, ndimage):
        """int(4σ + 0.5) = 12 taps a side over 2- and 5-pixel axes."""
        x = np.random.default_rng(1).random((3, 2, 5)).astype(np.float32)
        expected = ndimage.gaussian_filter(x, [0, 3.0, 3.0])
        np.testing.assert_array_equal(R.gaussian_blur(x, 3.0), expected)

    def test_blur_one_sigma_per_image(self, ndimage):
        rng = np.random.default_rng(2)
        x = rng.random((9, 3, 10, 7)).astype(np.float32)
        sigma = rng.uniform(0.1, 1.6, size=9)     # kernel radii 0 to 6
        expected = np.stack([ndimage.gaussian_filter(img, [0, s, s])
                             for img, s in zip(x, sigma.tolist())])
        np.testing.assert_array_equal(R.gaussian_blur(x, sigma), expected)

    @pytest.mark.parametrize("severity", [1, 2, 3, 4, 5])
    def test_blur_corruption_severities(self, ndimage, severity):
        x = np.random.default_rng(severity).random((4, 3, 32, 32)).astype(np.float32)
        sigma = [0.4, 0.7, 1.0, 1.5, 2.0][severity - 1]
        expected = ndimage.gaussian_filter(x, (0, 0, sigma, sigma))
        out = CORRUPTIONS["gaussian_blur"](x, severity, np.random.default_rng(0))
        np.testing.assert_array_equal(out, expected)

    def test_zoom_random_grids(self, ndimage):
        rng = np.random.default_rng(3)
        for _ in range(500):
            n, size = int(rng.integers(1, 20)), int(rng.integers(1, 40))
            grid = rng.random((n, n))
            expected = ndimage.zoom(grid, size / n, order=1, mode="nearest")[:size, :size]
            np.testing.assert_array_equal(R._zoom_linear(grid, size), expected)

    def test_zoom_batch_equals_each_grid(self, ndimage):
        grids = np.random.default_rng(4).random((5, 8, 8))
        out = R._zoom_linear(grids, 26)   # 26 = a size whose last sample overshoots
        for grid, layer in zip(grids, out):
            expected = ndimage.zoom(grid, 26 / 8, order=1, mode="nearest")[:26, :26]
            np.testing.assert_array_equal(layer, expected)


class TestMemoryBound:
    def test_four_chunks_peak_like_one(self):
        """Generation's working memory is one chunk's, whatever the count."""
        def peak(n):
            O.generate_objects(1, seed=0)          # warm module state
            tracemalloc.start()
            try:
                ds = O.generate_objects(n, seed=0)
                return tracemalloc.get_traced_memory()[1], ds.x.nbytes + ds.y.nbytes
            finally:
                tracemalloc.stop()

        one, _ = peak(R.CHUNK)
        four, outputs = peak(4 * R.CHUNK)
        assert four <= one + outputs


def test_generation_and_corruptions_run_without_scipy():
    """Rendering and every corruption are numpy only: scipy cannot import."""
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "import numpy as np\n"
        "from repro.datasets import CORRUPTIONS, load_digit_splits, load_object_splits\n"
        "for load in (load_digit_splits, load_object_splits):\n"
        "    x = load(800, 200, 400, seed=0).test.x[:8]\n"
        "    for fn in CORRUPTIONS.values():\n"
        "        fn(x, 3, np.random.default_rng(0))\n"
        "print('ok')\n")
    src = Path(repro.datasets.__file__).parents[2]
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"
