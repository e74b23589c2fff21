import dataclasses
import json

import pytest

from charfield import cli
from charfield.chartab import dixon_table
from charfield.cli import main
from charfield.verify import EXCLUSIONS, THEOREM_A_F2, THEOREM_A_F3
from charfield.zoo import build, parse_spec


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_pretty_c4(capsys):
    code, out, _ = run(capsys, "table", "C4", "--format", "pretty")
    assert code == 0
    assert "E(4)" in out and "order 4" in out


def test_table_json_a5(capsys):
    code, out, _ = run(capsys, "table", "A5", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert sorted(irr["degree"] for irr in obj["irreducibles"]) == [1, 3, 3, 4, 5]
    assert obj["order"] == 60


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "S3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "class,1a,2a,3a"


def test_fov_json_psl28(capsys):
    code, out, _ = run(capsys, "fov", "PSL(2,8)", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["f"] == 3 and obj["rational"] == 3


def test_fov_trivial(capsys):
    code, out, _ = run(capsys, "fov", "C1", "--format", "json")
    assert code == 0
    assert json.loads(out)["f"] == 1


def test_exit_code_parse_error(capsys):
    code, _, err = run(capsys, "table", "Q5")
    assert code == 2 and "parse error" in err


@pytest.mark.parametrize("spec,position", [
    ("<(0,1)>", 2), ("<(1,2,1)>", 6), ("<(1)>", 1), ("<(1,2)", 6)],
    ids=["point 0", "repeated point", "1-cycle", "unclosed bracket"])
def test_cycle_spec_errors_are_parse_errors_with_a_position(capsys, spec, position):
    code, _, err = run(capsys, "table", spec)
    assert code == 2 and f"(at position {position})" in err


def cycle_notation(perm):
    """perm in GAP's notation: 1-based cycles, each from its smallest point."""
    seen, cycles = set(), []
    for start in range(perm.degree):
        if start in seen:
            continue
        cyc = [start]
        while perm(cyc[-1]) != start:
            cyc.append(perm(cyc[-1]))
        seen.update(cyc)
        if len(cyc) > 1:
            cycles.append("(" + ",".join(str(p + 1) for p in cyc) + ")")
    return "".join(cycles) or "()"


@pytest.mark.parametrize("spec", [c.spec for c in (*THEOREM_A_F2, *THEOREM_A_F3, *EXCLUSIONS)])
def test_cycle_spec_of_a_corpus_group_gives_its_table(capsys, spec):
    # oracle: the family's own generators, written in cycle notation, give
    # the same element ids, so the same degree and the same table byte for
    # byte, apart from the group's name
    group = build(spec)
    cycles = "<" + ",".join(map(cycle_notation, group.generators)) + ">"
    assert str(parse_spec(cycles)) == cycles
    assert build(cycles).degree == group.degree
    tables = []
    for name in (spec, cycles):
        code, out, _ = run(capsys, "table", name, "--format", "json")
        head = '"group":' + json.dumps(name)
        assert code == 0 and out.count(head) == 1
        tables.append(out.replace(head, '"group":""'))
    assert tables[0] == tables[1]


def test_exit_code_semantic_error(capsys):
    code, _, err = run(capsys, "table", "D9")
    assert code == 3 and "construction error" in err
    code, _, err = run(capsys, "fov", "F15")
    assert code == 3


def test_verify_exclusions_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "exclusions")
    assert code == 0
    assert "exclusions: 8 passed, 0 failed" in out


def test_verify_omega_warns_not_fails(capsys):
    code, out, _ = run(capsys, "verify", "omega")
    assert code == 0
    assert "WARN omega-quadratic" in out and "r=12" in out


def test_byte_determinism(capsys):
    _, a, _ = run(capsys, "table", "D18", "--format", "json")
    _, b, _ = run(capsys, "table", "D18", "--format", "json")
    assert a == b
    _, c, _ = run(capsys, "fov", "F52", "--format", "json")
    _, d, _ = run(capsys, "fov", "F52", "--format", "json")
    assert c == d


def test_omega_range(capsys):
    code, out, _ = run(capsys, "omega", "3..20", "--format", "csv")
    assert code == 0
    degrees = [int(line.split(",")[1]) for line in out.splitlines()[1:]]
    assert degrees == [1, 1, 2, 1, 3, 2, 3, 2, 5, 2, 6, 3, 4, 4, 8, 3, 9, 4]


def test_omega_range_errors(capsys):
    code, _, err = run(capsys, "omega", "2..5")
    assert code == 2 and "range error" in err
    code, _, err = run(capsys, "omega", "3..20000")
    assert code == 2


def test_subfields_values(capsys):
    code, out, _ = run(capsys, "subfields", "9", "--d", "3", "--format", "csv")
    assert code == 0 and out.splitlines()[1] == "9,3,1"
    code, out, _ = run(capsys, "subfields", "7", "--d", "3", "--format", "csv")
    assert code == 0 and out.splitlines()[1] == "7,3,1"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "c4.json"
    code, out, _ = run(capsys, "table", "C4", "--format", "json", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["order"] == 4


@pytest.mark.parametrize("argv", [("table", "A5"), ("omega", "3..5")])
def test_unwritable_out_file_is_an_output_error(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "x.txt"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith("output error: ") and "x.txt" in err
    assert not target.parent.exists()


@pytest.mark.parametrize("argv", [("--seed", "7", "fov", "C2"),
                                  ("verify", "subfields", "--jobs", "2")])
def test_removed_flags_are_parse_errors(argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


def test_fov_of_a_compositum_field(capsys):
    code, out, _ = run(capsys, "fov", "D16xC4")
    assert code == 0
    assert "Q(8|1)           degree 4  rows 4" in out


def test_unclosed_rows_are_a_computation_error(capsys, monkeypatch):
    # A5 with one 3-dimensional row replaced by a copy of the other
    def duplicated_row(group, classes):
        t = dixon_table(group, classes)
        i, j = [r for r, d in enumerate(t.degrees) if d == 3]
        values, counts = list(t.values), list(t.root_counts)
        values[j], counts[j] = values[i], counts[i]
        return dataclasses.replace(t, values=tuple(values), root_counts=tuple(counts))

    monkeypatch.setattr(cli, "dixon_table", duplicated_row)
    code, _, err = run(capsys, "fov", "A5")
    assert code == 4
    assert err.startswith("computation error:") and "Galois" in err
