"""The cost ledger (``tests/cost_ledger.py``) counts the same on every run."""

import json

from cost_ledger import difference, rows


def test_two_ledger_runs_in_one_process_agree_exactly():
    slice_ = (("oracle-deep", "close-roots", "residue-wide"), [3], 2, [8])
    first, second = list(rows(*slice_)), list(rows(*slice_))
    assert json.dumps(first) == json.dumps(second)
    assert [row["case"] for row in first] == ["oracle-deep", "close-roots", "residue-wide", "cascade"]
    for row in first:
        assert row["opcodes"] == sum(row["opcodes_by_module"].values()) > 0
        assert row["calls"]["troptri.roottree.RootTree.run"] == (2 if "seed" in row else 1)
        assert row["tracemalloc_peak_kib"] > 0
        moved = difference(row, row)
        assert moved["opcodes"] == [row["opcodes"], row["opcodes"], 0]
        assert moved["opcodes_by_module"] == moved["calls"] == {}
