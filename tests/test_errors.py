"""Every package error survives a pickle round trip (pool workers raise them)."""

import inspect
import pickle

import pytest

from cluster_tails import errors

# constructor arguments per class; every exception class in `errors` must be here
SAMPLES = {
    errors.ClusterTailsError: ("something failed",),
    errors.ModelError: ("must be positive", "mark_law.alpha"),
    errors.SupercriticalModel: ("E[kappa] >= 1", "target_mean_kappa"),
    errors.InfiniteMean: ("alpha <= 1",),
    errors.ClusterOverflow: (7, 1000),
    errors.InsufficientExceedances: (1.0, 2, 3),
    errors.DegenerateTail: ("all equal",),
    errors.UnstableEstimate: ("se too large",),
    errors.LatticeMismatch: ("no common step",),
    errors.ConfigError: ("expected a number", "grid.x_max"),
}


def test_samples_cover_every_error_class():
    classes = {
        obj
        for _, obj in inspect.getmembers(errors, inspect.isclass)
        if issubclass(obj, Exception) and obj.__module__ == errors.__name__
    }
    assert classes == set(SAMPLES)


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_pickle_round_trip(cls):
    err = cls(*SAMPLES[cls])
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert str(back) == str(err)
    assert vars(back) == vars(err)
