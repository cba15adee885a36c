"""One error hierarchy: every error blocklex raises on purpose is a
`BlocklexError` that carries its exit code, `cli.main` maps exceptions
through that one base, and any other exception is a bug that propagates."""

import ast
import json
from pathlib import Path

import pytest

import blocklex
from blocklex import cli
from blocklex.budget import (
    BlocklexError,
    BudgetExceeded,
    HypothesisFailed,
    Inconclusive,
    SizeCapExceeded,
    UsageError,
)
from blocklex.cli import main
from blocklex.compression import CompressionDidNotStabilize
from blocklex.solver import ChainSearchInconclusive, NoNestedSolutions

SRC = Path(blocklex.__file__).resolve().parent

# -- the hierarchy kept in the source ------------------------------------------

RAISED = {"ValueError", "RuntimeError", "Exception"}
CAUGHT = {"ValueError", "OSError", "Exception", "BaseException"}

# (module, enclosing definition, statement): why it stays outside the hierarchy
ALLOWED = {
    ("certify.py", "Certificate.__post_init__", "raise ValueError"):
        "invariant: certify draws a conclusion only when every hypothesis holds",
    ("solver.py", "Profile.__post_init__", "raise ValueError"):
        "invariant: only the engines build a Profile, from a monotone table",
    ("solver.py", "DeltaSequence.__post_init__", "raise ValueError"):
        "invariant: only delta_sequence builds one, from a profile that starts at 0",
    ("graphs.py", "parse_graph_spec", "except ValueError"):
        "input read: int()'s own message for a malformed power becomes a UsageError",
    ("graphs.py", "split_integers", "except ValueError"):
        "input read: a comma-separated piece that int() refuses becomes a UsageError",
    ("cli.py", "_write", "except OSError"):
        "input read: an --out that cannot be written becomes a UsageError",
    ("cli.py", "_load_json_arg", "except OSError"):
        "input read: an @file that cannot be read becomes a UsageError",
    ("cli.py", "_load_json_arg", "except ValueError"):
        "input read: text json.load refuses (bad JSON, UTF-8 or digit count) becomes a UsageError",
}


def hierarchy_breaches(source: str) -> list[tuple[str, str]]:
    """(enclosing definition, statement) for each raise of a stdlib
    ValueError, RuntimeError or Exception and each handler of ValueError,
    OSError, Exception or of everything in `source`."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            where = ".".join(scope) or "<module>"
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, ast.Name) and exc.id in RAISED:
                    out.append((where, f"raise {exc.id}"))
            elif isinstance(child, ast.ExceptHandler):
                if child.type is None:
                    out.append((where, "except:"))
                else:
                    kinds = child.type.elts if isinstance(child.type, ast.Tuple) else [child.type]
                    out.extend(
                        (where, f"except {t.id}")
                        for t in kinds
                        if isinstance(t, ast.Name) and t.id in CAUGHT
                    )
            visit(child, scope)

    visit(ast.parse(source), [])
    return out


def test_no_module_raises_or_catches_a_stdlib_error_outside_the_allow_list():
    found = {
        (path.name, where, what)
        for path in sorted(SRC.glob("*.py"))
        for where, what in hierarchy_breaches(path.read_text(encoding="utf-8"))
    }
    assert found - set(ALLOWED) == set()
    assert set(ALLOWED) - found == set(), "an allowed site is gone: drop its entry"


def test_the_source_check_flags_what_it_forbids():
    """Negative controls: each forbidden form is found, and its scope named."""
    assert hierarchy_breaches('raise ValueError("x")') == [("<module>", "raise ValueError")]
    source = (
        "class A:\n"
        "    def f(self):\n"
        "        try:\n"
        "            raise RuntimeError\n"
        "        except (KeyError, OSError):\n"
        "            raise Exception('y')\n"
        "        except:\n"
        "            pass\n"
    )
    assert hierarchy_breaches(source) == [
        ("A.f", "raise RuntimeError"),
        ("A.f", "except OSError"),
        ("A.f", "raise Exception"),
        ("A.f", "except:"),
    ]
    assert hierarchy_breaches("raise UsageError('x')\ntry:\n    pass\nexcept KeyError:\n    pass") == []


def test_the_classes_carry_their_exit_codes():
    assert issubclass(UsageError, ValueError)
    assert not issubclass(SizeCapExceeded, ValueError)
    assert not issubclass(NoNestedSolutions, ValueError)
    for cls in (UsageError, HypothesisFailed, Inconclusive):
        assert issubclass(cls, BlocklexError)
    assert (cli.UsageError, cli.HypothesisFailed) == (UsageError, HypothesisFailed)
    assert (blocklex.BlocklexError, blocklex.UsageError, blocklex.HypothesisFailed) == (
        BlocklexError,
        UsageError,
        HypothesisFailed,
    )


# -- exit codes ----------------------------------------------------------------


@pytest.mark.parametrize(
    "cls, code",
    [
        (UsageError, 64),
        (HypothesisFailed, 2),
        (NoNestedSolutions, 2),
        (CompressionDidNotStabilize, 2),
        (Inconclusive, 3),
        (BudgetExceeded, 3),
        (SizeCapExceeded, 3),
        (ChainSearchInconclusive, 3),
    ],
)
def test_each_class_exits_with_its_code(capsys, monkeypatch, cls, code):
    def refuse(spec):
        raise cls("boom")

    monkeypatch.setattr(cli, "parse_graph_spec", refuse)
    assert main(["graph", "K2"]) == code == cls.exit_code
    assert capsys.readouterr()[:] == ("", "error: boom\n")


@pytest.mark.parametrize("cls", [ValueError, IndexError])
def test_any_other_exception_propagates_out_of_main(capsys, monkeypatch, cls):
    """Negative controls: an error raised by no blocklex check is a bug,
    not a usage error."""

    def crash(spec):
        raise cls("a bug")

    monkeypatch.setattr(cli, "parse_graph_spec", crash)
    with pytest.raises(cls, match="a bug"):
        main(["graph", "K2"])
    assert capsys.readouterr().err == ""


# -- malformed input -------------------------------------------------------------

K2_PARTITION = {"order": [1, 2], "boundaries": [2]}

# (argv with {f} for the file, the file's JSON or None, the error message)
MALFORMED = {
    "domination": (
        ["order", "K2xK3", "--domination", "1,x"], None, "--domination must be integers, got 'x'"
    ),
    "once": (
        ["compress", "K2xK3", "--set", "[0]", "--once", "1,,2"],
        None,
        "--once must be integers, got ''",
    ),
    "boundaries": (
        ["partition", "K6", "--boundaries", "2,a,5"], None, "--boundaries must be integers, got 'a'"
    ),
    "edge-of-three": (
        ["graph", "@{f}"],
        {"n": 3, "edges": [[0, 1, 2]]},
        "an edge must have two ends, got [0, 1, 2]",
    ),
    "edge-object": (
        ["graph", "@{f}"],
        {"n": 3, "edges": [{}]},
        "edge ends must be a list of integers, got {}",
    ),
    "block-key": (
        ["order", "K2xK2", "--bl", "{f}"],
        {"partitions": [K2_PARTITION] * 2, "block_perms": {"1,a": [1, 2]}},
        "block ids must be integers, got 'a'",
    ),
    "missing-file": (
        ["graph", "@{f}.missing"], None, "[Errno 2] No such file or directory: '{f}.missing'"
    ),
    "unwritable-out": (
        ["graph", "K2", "--out", "{f}/out.json"],
        None,
        "[Errno 2] No such file or directory: '{f}/out.json'",
    ),
    "set-object": (
        ["compress", "K2xK3", "--set", "{}"], None, "vertex ids must be a list of integers, got {}"
    ),
    "set-string": (
        ["compress", "K2xK3", "--set", '"01"'],
        None,
        "vertex ids must be a list of integers, got '01'",
    ),
    "set-past-the-digit-limit": (
        ["compress", "K2xK3", "--set", f"[{'1' * 5000}]"],
        None,
        "Exceeds the limit (4300 digits) for integer string conversion: value has 5000 digits",
    ),
    "set-not-json": (
        ["compress", "K2xK3", "--set", "[0,"], None, "Expecting value: line 1 column 4 (char 3)"
    ),
    "edge-string": (
        ["graph", "@{f}"],
        {"n": 2, "edges": ["01"]},
        "edge ends must be a list of integers, got '01'",
    ),
    "factors-string": (
        ["graph", "@{f}"],
        {"n": 4, "edges": [[0, 1], [2, 3], [0, 2], [1, 3]], "factors": "22"},
        "factor sizes must be a list of integers, got '22'",
    ),
    "partition-order-string": (
        ["partition", "K2", "--file", "{f}"],
        {"order": "12", "boundaries": [2]},
        "partition order ranks must be a list of integers, got '12'",
    ),
    "partition-boundaries-object": (
        ["partition", "K2", "--file", "{f}"],
        {"order": [1, 2], "boundaries": {"2": 2}},
        "partition boundaries must be a list of integers, got {'2': 2}",
    ),
    "block-perm-string": (
        ["order", "K2xK2", "--bl", "{f}"],
        {"partitions": [K2_PARTITION] * 2, "block_perms": {"1,1": "21"}},
        "block permutations must be a list of integers, got '21'",
    ),
    "default-perm-string": (
        ["order", "K2xK2", "--bl", "{f}"],
        {"partitions": [K2_PARTITION] * 2, "default_perm": "21"},
        "default permutation must be a list of integers, got '21'",
    ),
}


@pytest.mark.parametrize("argv, data, message", MALFORMED.values(), ids=MALFORMED)
def test_malformed_input_exits_64_with_one_error_line(capsys, tmp_path, argv, data, message):
    f = tmp_path / "in.json"
    if data is not None:
        f.write_text(json.dumps(data))
    code = main([a.replace("{f}", str(f)) for a in argv])
    out, err = capsys.readouterr()
    want = f"error: {message.replace('{f}', str(f))}"
    assert (code, out, err.partition(";")[0].rstrip("\n")) == (64, "", want)
    assert err.count("\n") == 1
    assert "invalid literal" not in err and "values to unpack" not in err

