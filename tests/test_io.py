"""The output contract: every file lcl writes goes through `lcl._io`, in UTF-8
with LF endings and floats at 17 significant digits."""
import ast
from pathlib import Path

import numpy as np
import pytest

import lcl
from lcl._io import write_json
from lcl.landau import ToeplitzBlock
from lcl.measures import ConvergenceRow, rows_to_csv
from lcl.symbols import RadialSymbolProfile

_WRITERS = {"write_text", "write_bytes", "save", "savetxt", "savez",
            "savez_compressed", "tofile"}


def _write_calls(source: str) -> list[int]:
    """Line numbers of the calls in `source` that open or write a file."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        if name in _WRITERS:
            lines.append(node.lineno)
        elif name == "open":
            # builtin open(path, mode) or Path.open(mode)
            pos = 1 if isinstance(node.func, ast.Name) else 0
            modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
            modes += node.args[pos:pos + 1]
            if any(not (isinstance(m, ast.Constant) and isinstance(m.value, str)
                        and set(m.value) <= set("rbt")) for m in modes):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("source, found", [
    ('open(p, "w", encoding="utf-8")', True),
    ('open(p, mode="a")', True),
    ('open(p, m)', True),
    ('Path(p).open("x")', True),
    ('Path(p).write_text("")', True),
    ('np.savetxt(p, a)', True),
    ('open(p, "r", encoding="utf-8")', False),
    ('open(p)', False),
    ('Path(p).open("rb")', False),
], ids=range(9))
def test_write_scan_finds_writes(source, found):
    assert bool(_write_calls(source)) == found


def test_only_io_writes_files():
    src = Path(lcl.__file__).parent
    writers = {path.name: _write_calls(path.read_text(encoding="utf-8"))
               for path in sorted(src.glob("*.py"))}
    assert writers.pop("_io.py")
    assert not {name: lines for name, lines in writers.items() if lines}


def test_rows_to_csv_bytes(tmp_path):
    path = tmp_path / "rows.csv"
    rows_to_csv([ConvergenceRow(q=2, lambda_q=5.0, k_max=10, lhs=0.1, rhs=-0.0,
                                relative_gap=1e-300)], path)
    assert path.read_bytes() == (b"q,lambda_q,k_max,lhs,rhs,rel_gap\n"
                                 b"2,5,10,0.10000000000000001,-0,1e-300\n")


def test_toeplitz_block_bytes(tmp_path):
    blk = ToeplitzBlock(q=0, B=1.0, k_max=1, entries=np.array([[0.1, -0.0], [-0.0, 1e-300]]),
                        bandwidth=1, truncation_tail_bound=0.0)
    blk.to_csv(tmp_path / "block.csv")
    assert (tmp_path / "block.csv").read_bytes() == (
        b"k,k_prime,value\n0,0,0.10000000000000001\n0,1,-0\n1,0,-0\n1,1,1e-300\n")
    blk.summary_json(tmp_path / "block.json")
    assert (tmp_path / "block.json").read_bytes() == (
        b'{\n  "q": 0,\n  "B": 1.0,\n  "k_max": 1,\n  "dimension": 2,\n'
        b'  "bandwidth": 1,\n  "max_diagonal": 0.1,\n  "min_diagonal": 1e-300,\n'
        b'  "trace": 0.1,\n  "truncation_tail_bound": 0.0\n}\n')


def test_radial_profile_bytes(tmp_path):
    prof = RadialSymbolProfile(np.array([1e-300, 0.1, 2.0]), np.array([-0.0, 0.1, 1.0]), {})
    prof.to_csv(tmp_path / "profile.csv")
    assert (tmp_path / "profile.csv").read_bytes() == (
        b"r,value\n1e-300,-0\n0.10000000000000001,0.10000000000000001\n2,1\n")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_write_json_refuses_non_finite_floats(tmp_path, value):
    # NaN and Infinity are not JSON tokens, so no manifest may hold one
    with pytest.raises(ValueError):
        write_json(tmp_path / "bad.json", {"tolerances": {"gap": value}})
