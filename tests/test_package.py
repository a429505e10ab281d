import chamberwalk


def test_every_exported_name_resolves():
    missing = [name for name in chamberwalk.__all__ if not hasattr(chamberwalk, name)]
    assert missing == []
    assert len(set(chamberwalk.__all__)) == len(chamberwalk.__all__)
