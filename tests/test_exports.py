import sc2combat


def test_every_export_resolves():
    assert len(set(sc2combat.__all__)) == len(sc2combat.__all__)
    for name in sc2combat.__all__:
        getattr(sc2combat, name)
