"""The benchmark's kernel oracle reads the ``u`` and ``w`` words back.

``perfbench/run.py::check_kernel`` rebuilds each sampled kernel generator
u*g*w from the ``u`` and ``w`` fields of ``kernel --format json`` with
``path_from_word``. A word that no longer reads back would fail every
kernel job of the benchmark; this test fails first.
"""

import json
from importlib import resources

from quivinv import kernel_generators, load_presentation
from quivinv.cli import main
from quivinv.quiver import path_from_word


def test_kernel_json_words_read_back_to_the_generator_paths(capsys):
    quiver = str(resources.files("quivinv").joinpath("data", "a1_preprojective.quiver"))
    assert main(["kernel", quiver, "--max-u", "1", "--max-w", "1", "--format", "json"]) == 0
    records = json.loads(capsys.readouterr().out)["generators"]
    pres = load_presentation(quiver)
    gens = kernel_generators(pres, 1, 1)
    assert len(records) == len(gens) > 0
    assert any(g.u.is_trivial for g in gens) and any(len(g.u) == 1 for g in gens)
    for record, gen in zip(records, gens):
        assert path_from_word(pres.quiver, record["u"]) == gen.u
        assert path_from_word(pres.quiver, record["w"]) == gen.w
