import softvote


def test_public_names():
    names = softvote.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert all(hasattr(softvote, name) for name in names)
    namespace = {}
    exec("from softvote import *", namespace)
    assert set(names) <= set(namespace)
    assert not {"Chromosome", "BreedingError", "GenerationStats", "draw_fitness_sample"} & set(dir(softvote))
