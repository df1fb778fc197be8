import perdec


def test_public_names_resolve_once():
    names = perdec.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(perdec, name) is not None
