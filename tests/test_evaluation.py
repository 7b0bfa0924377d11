from gppca.evaluation import ExperimentConfig


def test_unset_hyperparameters_come_from_the_experiment():
    artificial, vdp = (ExperimentConfig(experiment=e) for e in ("artificial", "vdp"))
    assert (artificial.lengthscale, artificial.beta) == (0.2, 25.0)
    assert (vdp.lengthscale, vdp.beta) == (0.6, 50.0)
    given = ExperimentConfig(experiment="vdp", lengthscale=0.3, beta=10.0)
    assert (given.lengthscale, given.beta) == (0.3, 10.0)
