"""Smoke test of the ``tune`` CLI subcommand at the size the roofline tests used."""


class TestCLITune:
    def test_tune_subcommand(self, capsys):
        from repro.__main__ import main

        assert main(["tune", "conv2d", "--size", "64", "--candidates", "8", "16"]) == 0
        out = capsys.readouterr().out
        assert "best tile sizes" in out
