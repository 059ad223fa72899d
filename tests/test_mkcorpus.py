"""scripts/mkcorpus.py still rebuilds the shipped corpus byte for byte.  Its
rows are rendered and round-tripped in memory, so nothing is written."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from actualcause.dsl import parse_case, serialize_case

from conftest import corpus_dir

MKCORPUS = Path(__file__).resolve().parents[1] / "scripts" / "mkcorpus.py"


def load_mkcorpus(monkeypatch):
    spec = importlib.util.spec_from_file_location("mkcorpus", MKCORPUS)
    module = importlib.util.module_from_spec(spec)
    # its @dataclass looks the module up in sys.modules while building `Row`
    monkeypatch.setitem(sys.modules, "mkcorpus", module)
    spec.loader.exec_module(module)
    return module


def test_every_row_rebuilds_its_committed_case_file(monkeypatch):
    mkcorpus = load_mkcorpus(monkeypatch)
    built: dict[str, str] = {}
    for row in mkcorpus.ROWS:
        case = parse_case(mkcorpus._case_text(row))
        canonical = serialize_case(case)
        assert parse_case(canonical) == case, row.num
        built[f"{row.num:02d}-{row.source or 'unsourced'}.case"] = canonical
    corpus = corpus_dir()
    assert sorted(built) == sorted(path.name for path in corpus.glob("*.case"))
    for name, text in built.items():
        assert (corpus / name).read_bytes() == text.encode("utf-8"), name
