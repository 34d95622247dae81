"""Property-based tests for the ROC metrics and learning-rate schedules."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.evaluation.roc import roc_curve
from repro.nn.schedules import CosineLR, SqrtDecayLR, StepLR


class TestRocProperties:
    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_auc_in_unit_interval(self, data):
        clean = data.draw(arrays(np.float64, (20,),
                                 elements=st.floats(0, 10)))
        adv = data.draw(arrays(np.float64, (20,),
                               elements=st.floats(0, 10)))
        curve = roc_curve(clean, adv)
        assert -1e-9 <= curve.auc <= 1.0 + 1e-9

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_curve_monotone_in_fpr(self, data):
        clean = data.draw(arrays(np.float64, (15,),
                                 elements=st.floats(0, 5)))
        adv = data.draw(arrays(np.float64, (15,),
                               elements=st.floats(0, 5)))
        curve = roc_curve(clean, adv)
        # FPR sorted ascending; TPR must be non-decreasing along it.
        assert (np.diff(curve.fpr) >= -1e-12).all()
        assert (np.diff(curve.tpr) >= -1e-12).all()

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_shift_improves_or_keeps_auc(self, data):
        scores = data.draw(arrays(np.float64, (25,),
                                  elements=st.floats(0, 1)))
        base = roc_curve(scores, scores).auc
        shifted = roc_curve(scores, scores + 1.5).auc
        assert shifted >= base - 1e-9
        assert shifted >= 0.99  # fully separated


class TestScheduleProperties:
    @given(base=st.floats(1e-4, 1.0), step=st.integers(1, 20),
           gamma=st.floats(0.1, 1.0), epoch=st.integers(0, 100))
    @settings(max_examples=50, deadline=None)
    def test_step_lr_bounds(self, base, step, gamma, epoch):
        lr = StepLR(base, step, gamma).lr_at(epoch)
        assert 0 < lr <= base + 1e-12

    @given(base=st.floats(1e-4, 1.0), total=st.integers(1, 100),
           epoch=st.integers(0, 200))
    @settings(max_examples=50, deadline=None)
    def test_cosine_bounds(self, base, total, epoch):
        lr = CosineLR(base, total).lr_at(epoch)
        assert -1e-12 <= lr <= base + 1e-12

    @given(base=st.floats(1e-4, 1.0), total=st.integers(1, 100))
    @settings(max_examples=50, deadline=None)
    def test_sqrt_decay_monotone(self, base, total):
        sched = SqrtDecayLR(base, total)
        lrs = [sched.lr_at(e) for e in range(total + 1)]
        assert all(a >= b - 1e-12 for a, b in zip(lrs, lrs[1:]))
        assert lrs[-1] == 0.0
