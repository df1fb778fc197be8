from perdec import kernels


def test_implementation_name():
    # the benchmark records implementation_name()
    assert kernels.implementation_name() == "pure"
